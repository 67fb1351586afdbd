"""Benchmark runner for tailmes: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload study --seed 1 --seconds 20 --trace 0

Each round of the workload runs in a fresh interpreter (bench/worker.py), so
every round pays, and measures, a cold `import tailmes`. Rounds repeat on the
same inputs while the next one is expected to end within --seconds; there is
always at least one. With --trace 0 the last stdout line carries the
end-to-end metrics (medians over rounds; setup_s from the first round; peak
memory the largest). With --trace 1 one untraced and one traced round run, and
the line carries the per-layer metrics of the traced round plus
trace.overhead_s, the traced phase's wall time minus the untraced one's.

This file uses the standard library only; the worker imports numpy/tailmes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "backtest-d8", "screen-d2")
BUDGET_S = 170.0
# single-threaded numerics: the workloads measure the program, not how a
# shared 2-core machine schedules BLAS threads
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

UNITS = {"setup_s": "s", "study_s": "s", "windows_per_s": "windows/s", "peak_rss_mib": "MiB"}


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round did not end within the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} worker exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    print(f"{workload} round (trace {trace}): setup {report['setup_s']:.3f} s, "
          f"phase {report['phase_s']:.3f} s", file=sys.stderr)
    return report


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tailmes" / "__init__.py").is_file():
        print(f"no tailmes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + BUDGET_S
    try:
        if args.trace:
            rounds = [run_round(args.workload, args.seed, 0, deadline),
                      run_round(args.workload, args.seed, 1, deadline)]
        else:
            rounds = [run_round(args.workload, args.seed, 0, deadline)]
            while True:
                elapsed = time.monotonic() - started
                if elapsed + elapsed / len(rounds) > args.seconds:
                    break
                rounds.append(run_round(args.workload, args.seed, 0, deadline))
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = [e for r in rounds for e in r["errors"]]
    for e in dict.fromkeys(errors):
        print(f"check failed: {e}", file=sys.stderr)
    if args.trace:
        layers = rounds[1]["layers"]
        layers["trace.overhead_s"] = rounds[1]["phase_s"] - rounds[0]["phase_s"]
        metrics = {name: metric(layers[name], unit) for name, unit in metric_units().items()}
        for name, m in metrics.items():
            if m["value"] is None:
                print(f"not measured: {name}", file=sys.stderr)
    else:
        values = {
            "setup_s": rounds[0]["setup_s"],
            "study_s": statistics.median(r["phase_s"] for r in rounds),
            "windows_per_s": statistics.median(r["windows"] / r["phase_s"] for r in rounds),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in rounds),
        }
        metrics = {name: metric(values[name], unit) for name, unit in UNITS.items()}
        print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s)")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
