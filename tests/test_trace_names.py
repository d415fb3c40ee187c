"""The package functions that the benchmark's layer trace wraps exist.

``benchmarks/bench_trace.py`` wraps functions by module and name from
outside the package; a function renamed or removed in ``hdts`` would
break only the traced benchmark.  The trace module is loaded from its
file, read only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_trace = _load_trace()
WRAPPED = sorted({(module, name) for module, name, *_ in _trace.SPANS + _trace.COUNTS})


def test_the_trace_wraps_the_named_layers():
    assert ("precube", "make_precube") in WRAPPED
    assert ("serialize", "precube_to_json") in WRAPPED and len(WRAPPED) > 20


@pytest.mark.parametrize("module,name", WRAPPED, ids=[f"{m}.{n}" for m, n in WRAPPED])
def test_every_wrapped_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"hdts.{module}"), name, None))
