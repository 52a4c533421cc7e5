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


@pytest.mark.parametrize(
    "method", ["frequency", "genus_family", "geo_backoff", "knn", "correlation", "ridge"])
def test_traced_impute_records_method_and_fallback_spans(trace_child, tmp_path, method):
    """A traced ``impute`` stage keeps the method's spans apart from the
    global-mode fallback's, as the per-layer metrics need, and the
    method answers all hidden cells of the stage in one call."""
    import random

    from synth import blank_some, random_dataset
    from typoimpute import cli, imputers
    from typoimpute.kb import OBSERVED_CODE, serialize_dataset

    rng = random.Random(5)
    data = random_dataset(rng, n_languages=30, n_features=5, min_observed=3)
    codes = data.codes()
    train = data.subset(codes[:20])
    (tmp_path / "train.tsv").write_text(serialize_dataset(train))
    test = blank_some(data.subset(codes[20:]), rng, per_language=2)
    (tmp_path / "test.tsv").write_text(serialize_dataset(test))
    (tmp_path / "method.cfg").write_text(f"method={method}\n")
    argv = ["impute", "--train", str(tmp_path / "train.tsv"),
            "--test", str(tmp_path / "test.tsv"), "--out", str(tmp_path / "filled.tsv"),
            "--imputer-config", str(tmp_path / "method.cfg")]

    cls = type(imputers.build_imputer({"method": method}))
    tracer, patches = trace_child.Tracer(), trace_child.Patches()
    predict = cls.predict
    trace_child.install(tracer, patches)
    try:
        code = tracer.call("cli.impute", cli.main, argv)
    finally:
        patches.undo()
    assert code == 0
    assert cls.predict is predict
    names = [span[1] for span in tracer.spans]
    assert {"cli.impute", f"imputers.{method}.fit", f"imputers.{method}.predict",
            "imputers.fallback.fit"} <= set(names)
    assert int((test.cell_state != OBSERVED_CODE).sum()) > 1
    assert names.count(f"imputers.{method}.predict") == 1
    # the parse hook counts the cells of both files it parsed
    assert tracer.counts["kb.cells_parsed"] == len(train.cell_row) + len(test.cell_row)


@pytest.mark.parametrize("blocks,primal", [("indicators", True), (None, False)],
                         ids=["indicators", "default"])
def test_traced_ridge_fit_records_a_design_per_primal_solve(trace_child, tmp_path, blocks, primal):
    """The tracer's ``design`` span wraps ``dense`` inside ``fit``, which
    builds a design only for a target that ``solve_ridge`` solves: with
    ``blocks=indicators`` some targets here are narrow and each solve has
    its design; with the default blocks every target is wide, solved in
    the dual, and neither span is recorded."""
    import random

    from synth import blank_some, random_dataset
    from typoimpute import cli, imputers
    from typoimpute.kb import serialize_dataset

    rng = random.Random(7)
    data = random_dataset(rng, n_languages=50, n_features=8, p_observed=0.7)
    codes = data.codes()
    train = data.subset(codes[:40])
    (tmp_path / "train.tsv").write_text(serialize_dataset(train))
    test = blank_some(data.subset(codes[40:]), rng, per_language=2)
    (tmp_path / "test.tsv").write_text(serialize_dataset(test))
    config = "method=ridge\n" + (f"blocks={blocks}\n" if blocks else "")
    (tmp_path / "ridge.cfg").write_text(config)
    argv = ["impute", "--train", str(tmp_path / "train.tsv"),
            "--test", str(tmp_path / "test.tsv"), "--out", str(tmp_path / "filled.tsv"),
            "--imputer-config", str(tmp_path / "ridge.cfg")]

    # the routes the fit takes, read from the fitted imputer
    fitted = imputers.build_imputer(dict(line.split("=") for line in config.split())).fit(train)
    counts = fitted._counts
    narrow = sum(
        len(f.space.inventory) > 1
        and 0 < len(f.space) <= int(counts.onehot[:, f.space._target_columns].any(axis=1).sum())
        for f in fitted._fitted.values())
    assert (narrow > 0) == primal

    tracer, patches = trace_child.Tracer(), trace_child.Patches()
    trace_child.install(tracer, patches)
    try:
        code = tracer.call("cli.impute", cli.main, argv)
    finally:
        patches.undo()
    assert code == 0
    names = [span[1] for span in tracer.spans]
    assert "imputers.ridge.fit" in names
    assert names.count("imputers.ridge.design") == names.count("imputers.ridge.solve") == narrow
