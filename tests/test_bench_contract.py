"""The benchmark's tracer (bench/tracer.py) wraps tailmes functions by name
from outside the package. A group none of whose functions exists any more is
reported as null, which invalidates a traced benchmark run, so a rename has to
fail here first. The tracer file is only read, never changed."""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

from tailmes.garch import GarchFit

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(layer, names):
    module = importlib.import_module(f"tailmes.{layer}")
    return any(callable(getattr(module, name, None)) for name in names)


def test_every_group_resolves():
    tracer = _tracer()
    missing = [group for group, (layer, names) in tracer.GROUPS.items()
               if not _resolves(layer, names)]
    assert missing == []


def test_every_counter_resolves():
    tracer = _tracer()
    missing = [name for name, (layer, fn_name) in tracer.COUNTED.items()
               if not _resolves(layer, (fn_name,))]
    assert missing == []


def test_fit_result_carries_counted_fields():
    # the tracer sums GarchFit.iterations and counts not GarchFit.converged
    assert {"iterations", "converged"} <= {f.name for f in fields(GarchFit)}
