"""One round of one workload, in a fresh interpreter started by run.py.

Imports tailmes from the checkout's src/, notes when that import is done (the
cold set-up), makes the workload's inputs from the seed, times the workload's
phase, checks its outputs, and prints one JSON line for run.py:

    python3 bench/worker.py --workload backtest-d8 --seed 3 --trace 0
"""

import argparse
import contextlib
import csv
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUN_DIR = Path(__file__).resolve().parent / "runs"
sys.path.insert(0, str(SRC))
import tailmes  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import numpy as np  # noqa: E402
# entry points are looked up on their modules at call time, so that the
# tracer's wrappers see the benchmark's own calls too
from tailmes import backtest, cli, simlab  # noqa: E402

import checks  # noqa: E402
import inputs as gen  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402


def _floats(values):
    return [float(v) if v != "" else None for v in values]


def read_forecast_rows(path) -> list:
    """Forecast CSV rows as plain dicts, parsed here rather than by tailmes."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ids = [h[len("theta_"):] for h in header if h.startswith("theta_")]
        rows = []
        for line in reader:
            vals = dict(zip(header, line))
            rows.append({
                "date": vals["date"],
                "theta": _floats(vals[f"theta_{i}"] for i in ids),
                "lo": _floats(vals[f"lo_{i}"] for i in ids),
                "hi": _floats(vals[f"hi_{i}"] for i in ids),
                "gamma": _floats(vals[f"gamma_{i}"] for i in ids),
                "weight": _floats(vals[f"weight_{i}"] for i in ids),
                "wald_p": float(vals["wald_p"]) if vals["wald_p"] else None,
                "contrast_ok": vals["wald_stat"] != "",
                "failed": "window-failed" in vals["flags"].split(";"),
            })
    return rows


def record_rows(records) -> list:
    """ForecastRecords as the same plain dicts as read_forecast_rows gives."""
    return [{
        "date": r.date, "theta": list(r.theta_hat), "lo": list(r.ci_lower),
        "hi": list(r.ci_upper), "gamma": list(r.gamma_hat), "weight": list(r.weights),
        "wald_p": r.wald.p_value if r.wald is not None else None,
        "contrast_ok": r.wald is not None and r.wald.contrast_ok,
        "failed": "window-failed" in r.flags,
    } for r in records]


def read_panel(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        lines = list(reader)
    d = (len(header) - 1) // 2
    dates = [line[0] for line in lines]
    values = np.array([[float(v) for v in line[1:]] for line in lines])
    return dates, values[:, :d], values[:, d:]


def d8_first_window(panel_path):
    """Residuals and volatility forecasts of the first window, rebuilt from the
    panel file: losses, lagged-cap index and residuals by the benchmark, the
    GARCH fits by tailmes.qmle_fit (the first window has no predecessor)."""
    dates, prices, caps = read_panel(panel_path)
    losses = -np.log(prices[1:] / prices[:-1])
    caps = caps[1:]
    weights = caps[:-1] / caps[:-1].sum(axis=1, keepdims=True)
    index = np.sum(weights * losses[1:], axis=1)
    width = gen.BT_N + gen.BT_ELL
    cols = [index[:width]] + list(losses[1:width + 1].T)
    fits = [tailmes.qmle_fit(c) for c in cols]
    residuals = np.column_stack([c / f.vol_path for c, f in zip(cols, fits)])[gen.BT_ELL:]
    return dates[width + 1], residuals, [f.vol_forecast for f in fits[1:]]


def run_study_round(seed, tracer):
    design = {"n": gen.STUDY_N, "p_grid": gen.STUDY_P_GRID,
              "replications": gen.STUDY_REPLICATIONS}
    config = simlab.SimConfig(n=gen.STUDY_N, p_grid=gen.STUDY_P_GRID,
                              replications=gen.STUDY_REPLICATIONS, base_seed=seed,
                              nu=gen.STUDY_NU, rho=gen.STUDY_RHO,
                              burr=tailmes.BurrParams(*gen.STUDY_BURR))
    with tracer.root():
        t0 = time.perf_counter()
        result = simlab.run_study(config, threads=1)
        phase = time.perf_counter() - t0
    rss = peak_rss_mib()
    tracer.uninstall()

    out = {
        "rows": [{"p": r.p, "n_used": r.n_used, "n_failed": r.n_failed, "rmse": r.rmse,
                  "rmse_np": r.rmse_np, "coverage": r.coverage} for r in result.rows],
        "true_theta": result.diagnostics["true_theta"],
    }
    a, b = gen.STUDY_BURR
    nu, rho = gen.STUDY_NU, gen.STUDY_RHO
    rng = np.random.default_rng([seed, 99])
    references = {
        "quadrature": {p: checks.theta_by_quadrature(nu, rho, a, b, p) for p in gen.STUDY_P_GRID},
        "rejection": {p: checks.theta_by_rejection(nu, rho, a, b, p, draws, rng)
                      for p, draws in ((1e-2, 2_000_000), (1e-3, 10_000_000))},
    }
    errors = checks.check_study(out, design, references)
    attempted = gen.STUDY_REPLICATIONS * len(gen.STUDY_P_GRID)
    failed = sum(r["n_failed"] for r in out["rows"])
    return phase, gen.STUDY_REPLICATIONS, rss, attempted, failed, errors


def d8_panel_errors(panel, rows) -> list:
    """The checks that need one panel's file: intervals, weights, first window."""
    errors = []
    if len(rows) != gen.D8_WINDOWS:
        errors.append(f"{panel.name}: {len(rows)} forecast rows, expected {gen.D8_WINDOWS}")
    dates, _, caps = read_panel(panel)
    errors += checks.check_intervals(rows, gen.BT_N, gen.BT_P, gen.BT_IOTA)
    errors += checks.check_weights(rows, dict(zip(dates, caps.tolist())))
    date, residuals, vol_forecasts = d8_first_window(panel)
    if rows[0]["date"] != date:
        errors.append(f"{panel.name}: first forecast dated {rows[0]['date']}, expected {date}")
    elif rows[0]["failed"]:
        errors.append(f"{panel.name}: first window failed; its Hill and MES cannot be recomputed")
    else:
        errors += checks.check_window(rows[0], residuals, vol_forecasts, gen.BT_N, gen.BT_P)
    return errors


def run_d8_round(seed, tracer, work):
    panels = [work / f"panel{i}.csv" for i in range(gen.D8_PANELS)]
    forecasts = [work / f"forecast{i}.csv" for i in range(gen.D8_PANELS)]
    for i, panel in enumerate(panels):
        gen.write_d8_panel(seed, i, panel)
    argvs = [["forecast", str(panel), "--out", str(out), "--p", repr(gen.BT_P),
              "--window", str(gen.BT_N), "--clip", str(gen.BT_ELL), "--iota", repr(gen.BT_IOTA)]
             for panel, out in zip(panels, forecasts)]
    with tracer.root(), contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        codes = [cli.main(argv) for argv in argvs]
        phase = time.perf_counter() - t0
    rss = peak_rss_mib()
    tracer.uninstall()

    windows = gen.D8_PANELS * gen.D8_WINDOWS
    if any(codes):
        return phase, windows, rss, windows, windows, [f"forecast exit codes {codes}"]
    rows, errors = [], []
    for panel, out in zip(panels, forecasts):
        panel_rows = read_forecast_rows(out)
        errors += d8_panel_errors(panel, panel_rows)
        rows += panel_rows
    errors += checks.check_d8(rows, gen.D8_GAMMAS)
    failed = sum(r["failed"] for r in rows)
    return phase, len(rows), rss, len(rows), failed, errors


def run_d2_round(seed, tracer):
    panels = [backtest.LossPanel(dates=dates, losses=losses, series_ids=("s1", "s2"),
                                 market_caps=caps)
              for dates, losses, caps in gen.d2_panels(seed)]
    with tracer.root():
        t0 = time.perf_counter()
        records = [rec for panel in panels
                   for rec in backtest.rolling_forecast(panel, n=gen.D2_N, ell_n=gen.BT_ELL,
                                                        p=gen.BT_P, iota=gen.BT_IOTA)]
        phase = time.perf_counter() - t0
    rss = peak_rss_mib()
    tracer.uninstall()

    rows = record_rows(records)
    errors = []
    if len(rows) != gen.D2_PANELS:
        errors.append(f"{len(rows)} records, expected {gen.D2_PANELS}")
    caps_by_date = {r["date"]: [1.0, 1.0] for r in rows}
    errors += checks.check_intervals(rows, gen.D2_N, gen.BT_P, gen.BT_IOTA)
    errors += checks.check_weights(rows, caps_by_date)
    errors += checks.check_d2(rows, gen.D2_GAMMA)
    failed = sum(r["failed"] for r in rows)
    return phase, len(rows), rss, len(rows), failed, errors


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if Path(tailmes.__file__).resolve().parent != SRC / "tailmes":
        print(f"tailmes imported from {tailmes.__file__}, not {SRC}", file=sys.stderr)
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    work = Path(tempfile.mkdtemp(dir=RUN_DIR))
    try:
        if args.workload == "study":
            res = run_study_round(args.seed, tracer)
        elif args.workload == "backtest-d8":
            res = run_d8_round(args.seed, tracer, work)
        else:
            res = run_d2_round(args.seed, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    phase, windows, rss, attempted, failed, errors = res
    report = {"ready": READY, "phase_s": phase, "windows": windows, "peak_rss_mib": rss,
              "attempted": attempted, "failed": failed, "errors": errors}
    if args.trace:
        tracer.write(RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        report["layers"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
