"""The bench tracer (bench/tracing.py) wraps htwist methods by name, listed
in its ``METHODS``; a method missing from htwist would break every traced
bench run.  The tracer is loaded by path and left as it is."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_methods_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.METHODS
    for layer, cls, method in tracing.METHODS:
        owner = getattr(importlib.import_module(f"htwist.{layer}"), cls)
        assert callable(getattr(owner, method, None)), (layer, cls, method)
