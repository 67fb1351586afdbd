"""Tests of the benchmark itself: each output check passes on real output and
fails on a corrupted copy; the tracer wraps every namespace and reports missing
functions as not measured; BENCHMARK.json names what the runner prints.

    python3 -m pytest bench/test_checks.py
"""

import copy
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs as gen
import run
import tracer
import worker  # puts the checkout's src/ first on sys.path
import tailmes
from tailmes.backtest import LossPanel, rolling_forecast
from tailmes.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
STUDY_DESIGN = {"n": gen.STUDY_N, "p_grid": gen.STUDY_P_GRID,
                "replications": gen.STUDY_REPLICATIONS}
NU, RHO = gen.STUDY_NU, gen.STUDY_RHO
A, B = gen.STUDY_BURR


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quadrature():
    return {p: checks.theta_by_quadrature(NU, RHO, A, B, p) for p in gen.STUDY_P_GRID}


@pytest.fixture
def study(quadrature):
    out = {
        "rows": [{"p": p, "n_used": 32, "n_failed": 0, "rmse": 2.0, "rmse_np": 9.0,
                  "coverage": 93.75} for p in gen.STUDY_P_GRID],
        "true_theta": {p: {"theta_p": q, "mc_error": 3e-4 * q} for p, q in quadrature.items()},
    }
    refs = {"quadrature": dict(quadrature),
            "rejection": {p: (quadrature[p], 0.01 * quadrature[p], 10_000)
                          for p in (1e-2, 1e-3)}}
    return out, refs


def test_quadrature_and_rejection_agree():
    rng = np.random.default_rng(5)
    for p in (1e-2, 1e-3):
        mean, se, kept = checks.theta_by_rejection(NU, RHO, A, B, p, 2_000_000, rng)
        quad = checks.theta_by_quadrature(NU, RHO, A, B, p)
        assert kept > 1000
        assert abs(mean - quad) < 5 * se


def test_quadrature_converged():
    for p in gen.STUDY_P_GRID:
        coarse = checks.theta_by_quadrature(NU, RHO, A, B, p)
        fine = checks.theta_by_quadrature(NU, RHO, A, B, p, h=1.0 / 64.0)
        assert coarse == pytest.approx(fine, rel=1e-12)


def test_study_checks_pass(study):
    out, refs = study
    assert checks.check_study(out, STUDY_DESIGN, refs) == []


def _row(out, p):
    return next(r for r in out["rows"] if r["p"] == p)


@pytest.mark.parametrize("corrupt, expect", [
    (lambda out, refs: out["true_theta"][1e-4].update(
        theta_p=out["true_theta"][1e-4]["theta_p"] * 1.01), "quadrature"),
    (lambda out, refs: refs["rejection"].update(
        {1e-2: (refs["rejection"][1e-2][0] * 1.1,) + refs["rejection"][1e-2][1:]}),
     "rejection"),
    (lambda out, refs: _row(out, 1e-3).update(n_failed=1), "n_used + n_failed"),
    (lambda out, refs: _row(out, 1e-5).update(rmse_np=1.0), "nonparametric RMSE"),
    (lambda out, refs: _row(out, 1e-4).update(coverage=50.0), "coverage"),
])
def test_study_checks_catch(study, corrupt, expect):
    out, refs = copy.deepcopy(study)
    corrupt(out, refs)
    errors = checks.check_study(out, STUDY_DESIGN, refs)
    assert any(expect in e for e in errors), errors


def test_coverage_floor():
    assert checks.coverage_floor(32) == 22
    assert checks.coverage_floor(1000, alpha=0.5) == 950


# ---------------------------------------------------------------------------
# backtest-d8 on a two-window cut of the generated panel
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def d8(tmp_path_factory):
    work = tmp_path_factory.mktemp("d8")
    header, rows = gen.d8_panel_rows(0, 0)
    panel = work / "panel.csv"
    with open(panel, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows[:gen.BT_N + gen.BT_ELL + 3])
    out = work / "forecast.csv"
    assert cli_main(["forecast", str(panel), "--out", str(out), "--p", repr(gen.BT_P),
                     "--window", str(gen.BT_N), "--clip", str(gen.BT_ELL)]) == 0
    dates, _, caps = worker.read_panel(panel)
    return worker.read_forecast_rows(out), dict(zip(dates, caps.tolist())), \
        worker.d8_first_window(panel)


def d8_errors(rows, caps_by_date, window):
    _, residuals, vol_forecasts = window
    return (checks.check_intervals(rows, gen.BT_N, gen.BT_P, gen.BT_IOTA)
            + checks.check_weights(rows, caps_by_date)
            + checks.check_d8(rows, gen.D8_GAMMAS)
            + checks.check_window(rows[0], residuals, vol_forecasts, gen.BT_N, gen.BT_P))


def test_d8_checks_pass(d8):
    rows, caps_by_date, window = d8
    assert len(rows) == 2
    assert rows[0]["date"] == window[0]
    assert d8_errors(rows, caps_by_date, window) == []


def _swap_weights(rows):
    w = rows[1]["weight"]
    w[0], w[3] = w[3], w[0]


def _swap_gammas(rows):
    for r in rows:
        r["gamma"][1], r["gamma"][6] = r["gamma"][6], r["gamma"][1]


@pytest.mark.parametrize("corrupt, expect", [
    (lambda rows: rows[0]["theta"].__setitem__(3, rows[0]["theta"][3] * 1.01), "recomputed"),
    (lambda rows: rows[1]["hi"].__setitem__(2, rows[1]["hi"][2] * 1.001), "not symmetric"),
    (_swap_weights, "cap share"),
    (lambda rows: rows[1]["gamma"].__setitem__(5, rows[1]["gamma"][5] + 0.01), "half-width"),
    (lambda rows: rows[0]["gamma"].__setitem__(0, rows[0]["gamma"][0] * 1.001), "recomputed"),
    (lambda rows: [r.update(wald_p=0.5) for r in rows], "rejects"),
    (_swap_gammas, "not ordered"),
])
def test_d8_checks_catch(d8, corrupt, expect):
    rows, caps_by_date, window = d8
    rows = copy.deepcopy(rows)
    corrupt(rows)
    errors = d8_errors(rows, caps_by_date, window)
    assert any(expect in e for e in errors), errors


# ---------------------------------------------------------------------------
# screen-d2 on two of the generated panels
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def d2():
    records = []
    for (dates, losses, caps), _ in zip(gen.d2_panels(0), range(2)):
        panel = LossPanel(dates=dates, losses=losses, series_ids=("s1", "s2"), market_caps=caps)
        records += rolling_forecast(panel, n=gen.D2_N, ell_n=gen.BT_ELL, p=gen.BT_P)
    return worker.record_rows(records)


def d2_errors(rows):
    return (checks.check_intervals(rows, gen.D2_N, gen.BT_P, gen.BT_IOTA)
            + checks.check_weights(rows, {r["date"]: [1.0, 1.0] for r in rows})
            + checks.check_d2(rows, gen.D2_GAMMA))


def test_d2_checks_pass(d2):
    assert len(d2) == 2
    assert d2_errors(d2) == []


@pytest.mark.parametrize("corrupt, expect", [
    (lambda rows: rows[1].update(contrast_ok=False), "positive definite"),
    (lambda rows: [r.update(gamma=[g + 0.03 for g in r["gamma"]]) for r in rows], "near"),
    (lambda rows: rows[0]["weight"].__setitem__(0, 0.6), "cap share"),
])
def test_d2_checks_catch(d2, corrupt, expect):
    rows = copy.deepcopy(d2)
    corrupt(rows)
    errors = d2_errors(rows)
    assert any(expect in e for e in errors), errors


def test_hill_and_mes_refs_by_hand():
    x = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    y = np.array([1.0, 9.0, -2.0, 9.0, 9.0])
    assert checks.hill_ref(x, 2) == pytest.approx((math.log(5 / 3) + math.log(4 / 3)) / 2)
    assert checks.mes_within_ref(x, y, 2) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# tracer and BENCHMARK.json
# ---------------------------------------------------------------------------


def test_tracer_wraps_every_namespace_and_restores():
    original = tailmes.garch.qmle_fit
    t = tracer.Tracer()
    t.install()
    try:
        assert tailmes.backtest.qmle_fit is tailmes.garch.qmle_fit is not original
        assert tailmes.simlab.qmle_fit is tailmes.garch.qmle_fit
        with t.root():
            tailmes.backtest.qmle_fit(np.random.default_rng(1).standard_normal(300))
    finally:
        t.uninstall()
    assert tailmes.backtest.qmle_fit is original
    m = t.metrics()
    assert m["garch.qmle_fit_calls"] == 1
    assert m["garch.variance_path_calls"] > 10
    assert m["garch.qmle_fit_s"] > 0 and m["evt.hill_calls"] == 0
    assert m["garch.self_s"] == pytest.approx(m["garch.qmle_fit_s"])


def test_tracer_reports_missing_function_as_not_measured(monkeypatch):
    monkeypatch.setitem(tracer.GROUPS, "evt.hill", ("evt", ("no_such_function",)))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    m = t.metrics()
    assert m["evt.hill_s"] is None and m["evt.hill_calls"] is None
    assert m["evt.mes_within_s"] == 0


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
