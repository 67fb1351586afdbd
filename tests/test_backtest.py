import numpy as np
import pytest

from tailmes.backtest import (
    LossPanel,
    PanelError,
    build_index,
    ingest_csv,
    read_forecast_csv,
    rolling_forecast,
    write_forecast_csv,
)
from tailmes.distributions import BurrParams, InnovationSpec, TCopulaParams, sample_innovations
from tailmes.garch import GarchParams, simulate_ccc


def _dates(n, start=0):
    return tuple(f"2020-01-01#{i + start:06d}" for i in range(n))


def _synthetic_panel(n_rows, n_series=2, seed=0, caps="random"):
    rng = np.random.default_rng(seed)
    spec = InnovationSpec.homogeneous(
        BurrParams(0.25, 20.0), TCopulaParams.equicorrelated(4.0, 0.5, n_series))
    eps = sample_innovations(spec, n_rows + 200, rng)
    params = [GarchParams(0.001, 0.1, 0.85)] * n_series
    y = simulate_ccc(params, eps, [0.1] * n_series)[200:]
    if caps == "random":
        mcaps = np.exp(rng.normal(size=(n_rows, n_series))) * 100.0
    elif caps == "equal":
        mcaps = np.ones((n_rows, n_series))
    else:
        mcaps = None
    return LossPanel(dates=_dates(n_rows), losses=y, market_caps=mcaps,
                     series_ids=tuple(f"s{j}" for j in range(n_series)))


class TestLossPanel:
    def test_validation(self):
        with pytest.raises(PanelError):
            LossPanel(dates=("b", "a"), losses=np.zeros((2, 1)), series_ids=("s",))
        with pytest.raises(PanelError):
            LossPanel(dates=("a", "b"), losses=np.array([[0.0], [np.nan]]),
                      series_ids=("s",))
        with pytest.raises(PanelError):
            LossPanel(dates=("a", "b"), losses=np.zeros((2, 1)), series_ids=("s",),
                      market_caps=np.array([[1.0], [-2.0]]))

    def test_transposed_losses_rejected(self):
        # a one-series panel given as 1 x T (or as a flat array) is not
        # transposed behind the caller's back
        for losses in (np.zeros((1, 3)), np.zeros(3)):
            with pytest.raises(PanelError, match="3 dates for 1 loss rows"):
                LossPanel(dates=_dates(3), losses=losses, series_ids=("s",))
        with pytest.raises(PanelError, match="3 dates for 2 loss rows"):
            LossPanel(dates=_dates(3), losses=np.zeros((2, 3)), series_ids=("a", "b"))


class TestBuildIndex:
    def test_equal_caps_is_simple_average(self):
        panel = _synthetic_panel(50, n_series=3, caps="equal")
        index, weights = build_index(panel)
        assert np.allclose(index, panel.losses[1:].mean(axis=1))
        assert np.allclose(weights, 1 / 3)

    def test_hand_example(self):
        panel = LossPanel(dates=_dates(2),
                          losses=np.array([[0.0, 0.0], [2.0, -1.0]]),
                          market_caps=np.array([[3.0, 1.0], [5.0, 5.0]]),
                          series_ids=("a", "b"))
        index, weights = build_index(panel)
        assert index[0] == pytest.approx(0.75 * 2.0 + 0.25 * (-1.0))
        assert np.allclose(weights, [[0.75, 0.25]])

    def test_cap_scaling_invariance(self):
        panel = _synthetic_panel(30, seed=1)
        index, weights = build_index(panel)
        scaled = LossPanel(dates=panel.dates, losses=panel.losses,
                           market_caps=panel.market_caps * 1234.5,
                           series_ids=panel.series_ids)
        index2, weights2 = build_index(scaled)
        assert np.allclose(index, index2)
        assert np.allclose(weights, weights2)

    def test_weight_rows_sum_to_one(self):
        _, weights = build_index(_synthetic_panel(40, n_series=4, seed=2))
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)


@pytest.fixture(scope="module")
def small_run():
    panel = _synthetic_panel(318, n_series=2, seed=3)
    records = rolling_forecast(panel, n=300, ell_n=10, p=0.01)
    return panel, records


class TestRollingForecast:

    def test_window_count_identity(self, small_run):
        panel, records = small_run
        assert len(records) == panel.n_obs - 310

    def test_record_contents(self, small_run):
        _, records = small_run
        rec = records[0]
        assert len(rec.theta_hat) == 2
        assert abs(sum(rec.weights) - 1.0) < 1e-10
        for j in range(2):
            assert rec.ci_lower[j] <= rec.theta_hat[j] <= rec.ci_upper[j]

    def test_no_look_ahead_truncation(self, small_run):
        panel, records = small_run
        rec = records[3]
        cut = panel.dates.index(rec.date) + 1
        truncated = LossPanel(dates=panel.dates[:cut], losses=panel.losses[:cut],
                              market_caps=panel.market_caps[:cut],
                              series_ids=panel.series_ids)
        again = rolling_forecast(truncated, n=300, ell_n=10, p=0.01)[-1]
        assert again.date == rec.date
        assert again.theta_hat == rec.theta_hat
        assert again.weights == rec.weights
        assert (again.wald.statistic if again.wald else None) == (
            rec.wald.statistic if rec.wald else None)

    def test_interval_proportional_to_point(self, small_run):
        # within a window, length = theta * (factor - 1/factor): lower and
        # upper are exact multiplicative images of the point forecast
        _, records = small_run
        rec = records[0]
        for j in range(2):
            factor = rec.ci_upper[j] / rec.theta_hat[j]
            assert rec.theta_hat[j] / rec.ci_lower[j] == pytest.approx(factor, rel=1e-10)

    def test_programming_error_propagates(self, monkeypatch):
        # only domain errors (ValueError) turn a window into a failed record
        import tailmes.evt as evt

        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(evt, "hill", broken)
        with pytest.raises(TypeError, match="injected"):
            rolling_forecast(_synthetic_panel(312, n_series=2, seed=5), n=300, ell_n=10, p=0.01)

    def test_too_short_panel(self):
        panel = _synthetic_panel(100)
        with pytest.raises(PanelError):
            rolling_forecast(panel, n=300, ell_n=10, p=0.01)

    def test_depth_constraint(self):
        panel = _synthetic_panel(318)
        with pytest.raises(ValueError):
            rolling_forecast(panel, n=300, ell_n=10, p=0.4)

    @pytest.mark.parametrize("iota", [0.0, 1.0, 1.5, float("nan")])
    def test_bad_iota_refused_before_the_first_window(self, monkeypatch, iota):
        import tailmes.backtest as backtest

        def window(*args, **kwargs):
            raise AssertionError("a window ran")

        monkeypatch.setattr(backtest, "_window_forecast", window)
        with pytest.raises(ValueError, match="iota"):
            rolling_forecast(_synthetic_panel(318), n=300, ell_n=10, p=0.01, iota=iota)


class TestIngestCsv:
    def _write(self, tmp_path, lines):
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_flat_price_zero_loss(self, tmp_path):
        path = self._write(tmp_path, [
            "date,price_a,mcap_a",
            "2021-01-01,100,5",
            "2021-01-04,100,5",
        ])
        panel = ingest_csv(path)
        assert panel.losses[0, 0] == 0.0
        assert panel.dates == ("2021-01-04",)

    def test_drop_example(self, tmp_path):
        path = self._write(tmp_path, [
            "date,price_a,mcap_a",
            "2021-01-01,100,5",
            "2021-01-04,90,5",
        ])
        panel = ingest_csv(path)
        assert panel.losses[0, 0] == pytest.approx(-np.log(0.9))

    def test_unsorted_dates_cite_line(self, tmp_path):
        path = self._write(tmp_path, [
            "date,price_a,mcap_a",
            "2021-01-05,100,5",
            "2021-01-04,90,5",
        ])
        with pytest.raises(PanelError, match="line 3"):
            ingest_csv(path)

    def test_nonpositive_price_cites_line(self, tmp_path):
        path = self._write(tmp_path, [
            "date,price_a,mcap_a",
            "2021-01-01,100,5",
            "2021-01-04,-3,5",
        ])
        with pytest.raises(PanelError, match="line 3"):
            ingest_csv(path)

    def test_garbage_value(self, tmp_path):
        path = self._write(tmp_path, [
            "date,price_a,mcap_a",
            "2021-01-01,100,5",
            "2021-01-04,oops,5",
        ])
        with pytest.raises(PanelError, match="price_a"):
            ingest_csv(path)

    def test_partial_caps_name_missing_ids(self, tmp_path):
        path = self._write(tmp_path, [
            "date,price_a,price_b,price_c,mcap_b",
            "2021-01-01,100,50,20,5",
            "2021-01-04,90,51,21,5",
        ])
        with pytest.raises(PanelError, match="no mcap_<id> column for a, c"):
            ingest_csv(path)

    def test_no_caps_single_series_ok(self, tmp_path):
        path = self._write(tmp_path, [
            "date,price_a",
            "2021-01-01,100",
            "2021-01-04,90",
            "2021-01-05,95",
        ])
        panel = ingest_csv(path)
        assert panel.market_caps is None
        assert panel.n_obs == 2


class TestForecastCsvRoundTrip:
    def test_nonconverged_ids_round_trip(self, tmp_path, monkeypatch):
        import dataclasses

        import tailmes.evt as evt

        fit, calls = evt.qmle_fit, []

        def last_margin_unconverged(series):
            # every window fits the index, s0 and s1, in that order
            calls.append(1)
            return dataclasses.replace(fit(series), converged=len(calls) % 3 != 0)

        monkeypatch.setattr(evt, "qmle_fit", last_margin_unconverged)
        records = rolling_forecast(_synthetic_panel(312, n_series=2, seed=5),
                                   n=300, ell_n=10, p=0.01)
        assert len(records) == 2
        for rec in records:
            assert rec.diagnostics == {"qmle_nonconverged": ["s1"]}
            assert {"qmle-nonconverged", "qmle-nonconverged:s1"} <= set(rec.flags)
        path = tmp_path / "fc.csv"
        write_forecast_csv(records, path)
        back = read_forecast_csv(path)
        assert [r.flags for r in back] == [r.flags for r in records]
        assert [r.diagnostics for r in back] == [r.diagnostics for r in records]

    @pytest.mark.parametrize("name, stage", [("qmle_fit", "qmle"), ("hill", "evt")])
    def test_failure_stage_round_trip(self, tmp_path, monkeypatch, name, stage):
        # a domain error fails the window; the flag names the stage it came from
        import tailmes.evt as evt

        def failing(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(evt, name, failing)
        records = rolling_forecast(_synthetic_panel(312, n_series=2, seed=5),
                                   n=300, ell_n=10, p=0.01)
        assert len(records) == 2
        for rec in records:
            assert rec.failed
            assert rec.flags == ("window-failed", f"window-failed:{stage}")
            assert rec.diagnostics == {"error": "injected"}
        path = tmp_path / "fc.csv"
        write_forecast_csv(records, path)
        back = read_forecast_csv(path)
        assert [r.flags for r in back] == [r.flags for r in records]
        assert all(r.failed for r in back)

    def test_round_trip(self, tmp_path):
        panel = _synthetic_panel(315, n_series=2, seed=5)
        records = rolling_forecast(panel, n=300, ell_n=10, p=0.01)
        path = tmp_path / "fc.csv"
        write_forecast_csv(records, path)
        back = read_forecast_csv(path)
        assert len(back) == len(records)
        assert back[0].date == records[0].date
        assert back[0].theta_hat == pytest.approx(records[0].theta_hat)
        if records[0].wald is not None:
            assert back[0].wald.statistic == pytest.approx(records[0].wald.statistic)
            assert back[0].wald.dof == records[0].wald.dof
