"""The traced benchmark run wraps program functions by name; every name
it wraps must still resolve, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


@pytest.fixture(scope="module")
def trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve(trace_child):
    assert trace_child.FUNCTIONS
    for module_name, func, _ in trace_child.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), func)), (module_name, func)


def test_imputer_methods_resolve(trace_child):
    from typoimpute import imputers

    for class_name in trace_child.IMPUTERS:
        cls = getattr(imputers, class_name)
        for op in ("fit", "predict"):
            assert callable(cls.__dict__.get(op)), (class_name, op)
    assert callable(imputers.PriorFeatureSpace.dense)
    assert callable(imputers.build_imputer)


def test_haversine_callers_resolve(trace_child):
    from typoimpute.geo import haversine_km

    for module_name in trace_child.HAVERSINE_CALLERS.values():
        assert importlib.import_module(module_name).haversine_km is haversine_km, module_name
