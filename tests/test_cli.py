import json

import numpy as np
import pytest

from tailmes.cli import ConfigError, load_sim_config, main
from tailmes.distributions import BurrParams, InnovationSpec, TCopulaParams, sample_innovations
from tailmes.garch import GarchParams, simulate_ccc
from tailmes.simlab import SimConfig


@pytest.fixture()
def panel_csv(tmp_path):
    """Small two-series price/cap panel written to disk."""
    rng = np.random.default_rng(12)
    n = 320
    spec = InnovationSpec.homogeneous(BurrParams(0.25, 20.0),
                                      TCopulaParams.bivariate(4.0, 0.6))
    eps = sample_innovations(spec, n + 100, rng)
    losses = simulate_ccc([GarchParams(0.0001, 0.1, 0.85)] * 2, eps, [0.01, 0.01])[100:]
    prices = 100.0 * np.exp(np.cumsum(-losses, axis=0))
    lines = ["date,price_a,price_b,mcap_a,mcap_b"]
    for i in range(n):
        lines.append(f"2020-01-01#{i:06d},{prices[i, 0]:.10f},{prices[i, 1]:.10f},"
                     f"{5 + (i % 7)},{3 + (i % 5)}")
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _sim_config(tmp_path, extra=""):
    cfg = tmp_path / "study.ini"
    cfg.write_text(
        "[study]\n"
        "n = 300\n"
        "replications = 2\n"
        "p_grid = 0.01 0.001\n"
        "base_seed = 5\n" + extra)
    return cfg


class TestSimulateCommand:
    def test_smoke_and_manifest(self, tmp_path):
        cfg = _sim_config(tmp_path)
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 risk levels
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["n"] == 300
        assert manifest["seeds"] == {"base_seed": 5}
        assert str(out) in manifest["outputs"]

    def test_byte_identical_rerun(self, tmp_path):
        cfg = _sim_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--threads", "1"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_rerun_from_manifest_argv(self, tmp_path):
        cfg = _sim_config(tmp_path)
        out = tmp_path / "res.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "1"])
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        redo = tmp_path / "redo.csv"
        argv = [a if a != str(out) else str(redo) for a in manifest["argv"]]
        assert main(argv) == 0
        assert redo.read_bytes() == out.read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = _sim_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(out2),
              "--seed", "99", "--threads", "1"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[study]\nn = not_a_number\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_invalid_p_grid_exit_2(self, tmp_path):
        cfg = _sim_config(tmp_path, extra="")
        cfg.write_text(cfg.read_text().replace("p_grid = 0.01 0.001",
                                               "p_grid = 0.4"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_empty_p_grid_exit_2(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("p_grid = 0.01 0.001", "p_grid ="))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "p_grid" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("extra, key", [("replicatons = 5\n", "replicatons"),
                                            ("ml_draws = 5\n", "ml_draws")])
    def test_unknown_study_key_exit_2(self, tmp_path, capsys, extra, key):
        cfg = _sim_config(tmp_path, extra=extra)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_garch_key_rejected(self, tmp_path):
        cfg = _sim_config(tmp_path, extra="[garch_y]\nomega = 0.002\ngama = 0.1\n")
        with pytest.raises(ConfigError, match=r"\[garch_y\].*gama"):
            load_sim_config(cfg)

    def test_known_keys_load(self, tmp_path):
        cfg = _sim_config(tmp_path, extra="a = 0.5\n[garch_x]\nalpha = 0.1\n")
        config = load_sim_config(cfg, seed_override=8)
        assert (config.n, config.replications, config.p_grid) == (300, 2, (0.01, 0.001))
        assert (config.burr.a, config.burr.b, config.base_seed) == (0.5, 20.0, 8)
        assert (config.garch_x.omega, config.garch_x.alpha) == (0.001, 0.1)
        assert config.garch_y == SimConfig().garch_y


class TestForecastCommand:
    def test_window_count(self, tmp_path, panel_csv):
        out = tmp_path / "fc.csv"
        code = main(["forecast", str(panel_csv), "--out", str(out),
                     "--window", "300", "--clip", "10", "--p", "0.01"])
        assert code == 0
        lines = out.read_text().splitlines()
        # 320 price rows -> 319 loss rows -> 319 - 310 records
        assert len(lines) - 1 == 9
        manifest = json.loads((tmp_path / "fc.csv.manifest.json").read_text())
        assert manifest["command"] == "forecast"

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["forecast", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")]) == 3

    def test_bad_panel_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,price_a\n2021-01-02,100\n2021-01-01,90\n")
        assert main(["forecast", str(bad), "--out", str(tmp_path / "o.csv")]) == 3

    def test_missing_caps_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "nocaps.csv"
        lines = ["date,price_a,price_b"]
        for i in range(30):
            lines.append(f"2021-01-01#{i:04d},{100 + i},{200 - i}")
        bad.write_text("\n".join(lines) + "\n")
        assert main(["forecast", str(bad), "--out", str(tmp_path / "o.csv"),
                     "--window", "15", "--clip", "2", "--p", "0.1"]) == 2
        assert "market caps are required" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_partial_caps_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "partialcaps.csv"
        lines = ["date,price_a,price_b,mcap_a"]
        for i in range(30):
            lines.append(f"2021-01-01#{i:04d},{100 + i},{200 - i},5")
        bad.write_text("\n".join(lines) + "\n")
        assert main(["forecast", str(bad), "--out", str(tmp_path / "o.csv"),
                     "--window", "15", "--clip", "2", "--p", "0.1"]) == 3
        assert "no mcap_<id> column for b" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_threads_flag_rejected(self, tmp_path, panel_csv):
        assert main(["forecast", str(panel_csv), "--out", str(tmp_path / "o.csv"),
                     "--window", "300", "--clip", "10", "--p", "0.01", "--threads", "2"]) == 2
        assert not (tmp_path / "o.csv").exists()

    def test_p_too_large_exit_2(self, tmp_path, panel_csv):
        assert main(["forecast", str(panel_csv), "--out", str(tmp_path / "o.csv"),
                     "--window", "300", "--clip", "10", "--p", "0.4"]) == 2

    def test_bad_iota_exit_2(self, tmp_path, panel_csv, capsys):
        assert main(["forecast", str(panel_csv), "--out", str(tmp_path / "o.csv"),
                     "--window", "300", "--clip", "10", "--p", "0.01", "--iota", "1.5"]) == 2
        assert "iota" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_p_zero_exit_2(self, tmp_path, panel_csv):
        # the level is checked by TailConfig, so p = 0 is a configuration error
        assert main(["forecast", str(panel_csv), "--out", str(tmp_path / "o.csv"),
                     "--window", "300", "--clip", "10", "--p", "0"]) == 2


class TestTestCommand:
    @pytest.fixture()
    def forecast_csv(self, tmp_path, panel_csv):
        out = tmp_path / "fc.csv"
        main(["forecast", str(panel_csv), "--out", str(out),
              "--window", "300", "--clip", "10", "--p", "0.01"])
        return out

    def test_prints_statistic(self, tmp_path, forecast_csv, capsys):
        date = forecast_csv.read_text().splitlines()[1].split(",")[0]
        assert main(["test", str(forecast_csv), date]) == 0
        captured = capsys.readouterr().out
        assert "statistic:" in captured and "p_value:" in captured

    def test_missing_date_exit_4(self, forecast_csv):
        assert main(["test", str(forecast_csv), "1999-01-01"]) == 4

    def test_malformed_csv_exit_3(self, tmp_path):
        junk = tmp_path / "junk.csv"
        junk.write_text("a,b,c\n1,2,3\n")
        assert main(["test", str(junk), "2020-01-01"]) == 3
