"""Per-layer tracing of tailmes from the outside, by wrapping module functions.

The modules import each other's functions by name, so a function is replaced
in the namespace of every tailmes module that holds it, not only where it is
defined. Each wrapped call records a span (group, parent span, start, end) in
memory; spans are written out once, when the run ends. A group none of whose
functions exists any more is reported as not measured (None), never as zero.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import Counter

# group -> (module, functions); the layer is the module name
GROUPS = {
    "simlab.run_study": ("simlab", ("run_study",)),
    "simlab.replication": ("simlab", ("_run_rep_all_p",)),
    # theta_quadrature is listed so the group survives a switch of the oracle
    "simlab.truth": ("simlab", ("cached_true_theta", "true_theta_oracle", "theta_quadrature")),
    "simlab.ml_fit": ("simlab", ("_fit_ml",)),
    "simlab.ml_draws": ("simlab", ("_conditional_tail_draws",)),
    "simlab.aggregate": ("simlab", ("_aggregate",)),
    "distributions.sample_innovations": ("distributions", ("sample_innovations",)),
    "garch.simulate_ccc": ("garch", ("simulate_ccc",)),
    "garch.qmle_fit": ("garch", ("qmle_fit",)),
    "garch.filter": ("garch", ("filter_and_residualize",)),
    "evt.hill": ("evt", ("hill",)),
    "evt.mes_within": ("evt", ("mes_within",)),
    "evt.assemble": ("evt", ("mes_extrapolate", "assemble_forecast")),
    "evt.mes_np": ("evt", ("mes_np",)),
    "taildep.sigma_hat": ("taildep", ("sigma_hat_from_residuals", "sigma_hat")),
    "taildep.r_hat_pair": ("taildep", ("r_hat_pair",)),
    "inference.wald_test": ("inference", ("wald_test",)),
    "backtest.ingest": ("backtest", ("ingest_csv",)),
    "backtest.build_index": ("backtest", ("build_index",)),
    "backtest.rolling_forecast": ("backtest", ("rolling_forecast",)),
    "backtest.forecast_window": ("backtest", ("_window_forecast",)),
    "backtest.write_csv": ("backtest", ("write_forecast_csv",)),
    "cli.main": ("cli", ("main",)),
}
# everything below these calls counts as theirs: the truth oracle and the ML
# fit reuse evt/simlab helpers that would otherwise be split out of them
OPAQUE = {"simlab.truth", "simlab.ml_fit"}
# objective evaluations of the QMLE: counted, not timed (about 1000 per fit)
COUNTED = {"garch.variance_path_calls": ("garch", "_variance_path")}
LAYERS = ("distributions", "garch", "evt", "taildep", "inference", "simlab", "backtest", "cli")
ROOT = "trace.root"


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for group in GROUPS:
        units[f"{group}_s"] = "s"
        units[f"{group}_calls"] = "count"
    units["backtest.window_s"] = "s"
    units["garch.variance_path_calls"] = "count"
    units["garch.qmle_iterations"] = "count"
    units["garch.qmle_nonconverged"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans = []  # [group, parent index or -1, start, end]
        self.counts = Counter()
        self.missing = set()
        self._stack = []
        self._opaque = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, group):
        span = [group, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The benchmark's own span around the timed phase."""
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def _timed(self, group, fn):
        tracer = self
        opaque = group in OPAQUE

        def wrapper(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            span = tracer._open(group)
            tracer._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._opaque -= opaque
                tracer._close(span)
            if group == "garch.qmle_fit":
                tracer._count_fit(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_fit(self, fit):
        iterations = getattr(fit, "iterations", None)
        converged = getattr(fit, "converged", None)
        if iterations is None or converged is None:
            self.missing.add("garch.qmle_fit.result")
            return
        self.counts["garch.qmle_iterations"] += int(iterations)
        self.counts["garch.qmle_nonconverged"] += not converged

    # -- installing --------------------------------------------------------

    def _replace(self, original, wrapper, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "tailmes" or name.startswith("tailmes.")]
        by_name = {m.__name__: m for m in modules}
        for group, (layer, names) in GROUPS.items():
            home = by_name.get(f"tailmes.{layer}")
            found = [getattr(home, n) for n in names if callable(getattr(home, n, None))]
            if not found:
                self.missing.add(group)
            for fn in found:
                self._replace(fn, self._timed(group, fn), modules)
        for name, (layer, fn_name) in COUNTED.items():
            fn = getattr(by_name.get(f"tailmes.{layer}"), fn_name, None)
            if not callable(fn):
                self.missing.add(name)
                continue
            self._replace(fn, self._counted(name, fn), modules)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for group, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, _, start, end) in enumerate(self.spans)]

    def metrics(self) -> dict:
        self_s = Counter()
        calls = Counter()
        for span, own in zip(self.spans, self.self_times()):
            group, parent = span[0], span[1]
            self_s[group] += own
            if parent < 0 or self.spans[parent][0] != group:
                calls[group] += 1
        out = {}
        for group in GROUPS:
            measured = group not in self.missing
            out[f"{group}_s"] = self_s[group] if measured else None
            out[f"{group}_calls"] = calls[group] if measured else None
        windows = [end - start for group, _, start, end in self.spans
                   if group == "backtest.forecast_window"]
        out["backtest.window_s"] = (None if "backtest.forecast_window" in self.missing
                                    else statistics.median(windows) if windows else 0.0)
        out["garch.variance_path_calls"] = (None if "garch.variance_path_calls" in self.missing
                                            else self.counts["garch.variance_path_calls"])
        fit_ok = "garch.qmle_fit" not in self.missing and "garch.qmle_fit.result" not in self.missing
        out["garch.qmle_iterations"] = self.counts["garch.qmle_iterations"] if fit_ok else None
        out["garch.qmle_nonconverged"] = self.counts["garch.qmle_nonconverged"] if fit_ok else None
        for layer in LAYERS:
            groups = [g for g, (lay, _) in GROUPS.items() if lay == layer]
            measured = [g for g in groups if g not in self.missing]
            out[f"{layer}.self_s"] = sum(self_s[g] for g in measured) if measured else None
        out["trace.unattributed_s"] = self_s[ROOT]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["group", "parent", "start", "end"], "spans": self.spans,
                       "counts": dict(self.counts), "not_measured": sorted(self.missing)},
                      fh)
