"""The package namespace: every public name, resolved on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import typoimpute
from typoimpute import configio, errors, evaluate, geo, imputers, kb, splits
from typoimpute.cli import main
from typoimpute.configio import read_kv
from typoimpute.splits import SplitSpec

SUBMODULES = (configio, errors, evaluate, geo, imputers, kb, splits)

PUBLIC = (
    "Answers", "ConfigError", "DEFAULT_HELD_OUT_GENERA", "Dataset", "DatasetError",
    "EARTH_RADIUS_KM", "EvalReport", "EvaluationError", "Imputer", "Language", "NoPredictionError",
    "ParseError", "SplitError", "SplitResult", "SplitSpec", "SystemOutput",
    "UndefinedCorrelationError", "build_controlled_split", "build_imputer", "fill_dataset",
    "filter_dataset", "haversine_km", "parse_dataset", "random_split", "score",
    "serialize_dataset",
)
IMPUTERS = (
    "ALL_BLOCKS", "Answers", "CorrelationImputer", "EnsembleImputer", "GenusFamilyBackoffImputer",
    "GeoBackoffImputer", "GlobalFrequencyImputer", "Imputer", "KNOWN_KEYS", "METHODS",
    "NearestNeighborImputer", "NoPredictionError", "PriorFeatureSpace",
    "RidgePriorImputer", "build_imputer", "fill_dataset", "load_language_vectors", "solve_ridge",
)


def test_public_names_are_the_listed_ones():
    """The cell table is the only data model (no ``Cell``) and an
    ensemble has one way to combine its members (no ``POLICIES``)."""
    assert sorted(typoimpute.__all__) == sorted([*PUBLIC, "__version__"])
    assert sorted(imputers.__all__) == sorted(IMPUTERS)
    for module in SUBMODULES:
        assert not hasattr(module, "Cell") and not hasattr(module, "POLICIES"), module


@pytest.mark.parametrize("name", [n for n in typoimpute.__all__ if n != "__version__"])
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(typoimpute, name)
    homes = [module for module in SUBMODULES if hasattr(module, name)]
    assert homes, name
    for module in homes:
        assert getattr(module, name) is value
    if hasattr(value, "__module__"):  # classes and functions
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from typoimpute import *", namespace)
    for name in typoimpute.__all__:
        assert namespace[name] is getattr(typoimpute, name)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        typoimpute.no_such_name  # noqa: B018
    assert not hasattr(typoimpute, "cmd_report")


def test_package_import_loads_no_submodule():
    probe = ("import sys, typoimpute; "
             "print(' '.join(m for m in sys.modules if m.startswith(('typoimpute.', 'numpy'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(typoimpute.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.stdout.split() == []


def test_cli_exceptions_are_reexported_unchanged():
    assert kb.DatasetError is errors.DatasetError
    assert kb.ParseError is errors.ParseError
    assert evaluate.EvaluationError is errors.EvaluationError
    assert issubclass(errors.ParseError, errors.DatasetError)
    assert issubclass(splits.SplitError, errors.DatasetError)
    assert issubclass(evaluate.UndefinedCorrelationError, errors.EvaluationError)


def test_blank_bounds_default_to_the_split_spec(tmp_path, capsys):
    with pytest.raises(SystemExit) as done:
        main(["blank", "--help"])
    assert done.value.code == 0
    help_text = capsys.readouterr().out
    assert f"lowest blanking ratio (default {SplitSpec.blanking_low})" in help_text
    assert f"highest blanking ratio (default {SplitSpec.blanking_high})" in help_text
    data = tmp_path / "data.tsv"
    data.write_text("".join(
        f"l{i}\tL{i}\t{i}.0\t{i}.0\tG{i % 2}\tF\tXX\tf1=a | f2=b | f3=c | f4=d\n"
        for i in range(6)), encoding="utf-8")
    for i, (argv, low, high) in enumerate((
        ((), SplitSpec.blanking_low, SplitSpec.blanking_high),
        (("--low", "0.3"), 0.3, SplitSpec.blanking_high),
        (("--high", "0.4"), SplitSpec.blanking_low, 0.4),
    )):
        out = tmp_path / f"blank{i}"
        assert main(["blank", "--input", str(data), "--out-dir", str(out),
                     "--seed", "1", *argv]) == 0
        manifest = read_kv(out / "run_manifest.txt")
        assert (manifest["param.low"], manifest["param.high"]) == (str(low), str(high))
