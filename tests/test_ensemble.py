"""Ensemble combination and config-driven imputer construction."""

import importlib
import random
import re
from pathlib import Path

import numpy as np
import pytest

from typoimpute.configio import ConfigError
from typoimpute.imputers import (
    CorrelationImputer,
    EnsembleImputer,
    GenusFamilyBackoffImputer,
    GeoBackoffImputer,
    GlobalFrequencyImputer,
    NearestNeighborImputer,
    RidgePriorImputer,
    build_imputer,
    fill_dataset,
)
from typoimpute.imputers.config import _METHODS as _METHOD_TABLE, METHODS

from synth import (Answer, Cell, answer_map, answers_of, build_dataset, cells_of, make_language,
                   predict_one, random_dataset)


class _Canned:
    """Test double that answers every cell, or only the cells of
    ``targets``, with a fixed prediction, or never (no value); it
    records the cells it is asked about."""

    def __init__(self, value=None, confidence=0.5, source="canned", targets=None):
        self.value = value
        self.confidence = confidence
        self.source = source
        self.targets = targets
        self.fitted = False
        self.asked = []

    def fit(self, train, context=None):
        self.fitted = True
        return self

    def predict(self, test, cells):
        self.asked.append(cells.tolist())
        targets = self.targets or test.feature_names
        return answers_of({cell: (self.value, self.confidence, self.source)
                           for cell in cells.tolist() if self.value is not None
                           and test.feature_names[test.cell_feature[cell]] in targets})


def _ask(imputer, target="f"):
    return predict_one(imputer, make_language("qqq"), {}, target)


def test_ensemble_of_one_is_identity():
    rng = random.Random(90)
    train = random_dataset(rng, n_languages=10, min_observed=1)
    solo = GlobalFrequencyImputer().fit(train)
    combined = EnsembleImputer([GlobalFrequencyImputer()]).fit(train)
    for target in train.features():
        assert _ask(combined, target) == _ask(solo, target)


def test_first_success_respects_order():
    ens = EnsembleImputer([_Canned("a", 0.1), _Canned("b", 0.9)])
    assert _ask(ens).value == "a"


def test_first_success_falls_through_failures():
    ens = EnsembleImputer([_Canned(None), _Canned(None), _Canned("c", 0.3)])
    assert _ask(ens).value == "c"


def test_all_members_failing_leaves_cell_out():
    ens = EnsembleImputer([_Canned(None), _Canned(None)])
    assert _ask(ens) is None


def _three_cells():
    """One test language hiding the features f, g and h."""
    return build_dataset([make_language("qqq")],
                         {("qqq", f): Cell.unknown() for f in ("f", "g", "h")})


def test_first_success_asks_later_members_only_about_unanswered_cells():
    first = _Canned("a", 0.1, targets={"g"})
    second = _Canned("b", 0.9, targets={"f"})
    last = _Canned("c", 0.5)
    filled = fill_dataset(EnsembleImputer([first, second, last]), _three_cells())
    assert {f: cell.value for (_, f), cell in cells_of(filled).items()} == \
        {"f": "b", "g": "a", "h": "c"}
    assert (first.asked, second.asked, last.asked) == ([[0, 1, 2]], [[0, 2]], [[2]])
    done = _Canned("d")
    fill_dataset(EnsembleImputer([done, last]), _three_cells())
    assert last.asked == [[2]]  # nothing left for it


def test_members_see_exactly_the_unanswered_cells_in_table_order():
    """Over many cells and members that each answer a seeded share of
    what they are asked, every member is asked about exactly the cells
    no earlier member answered, in table order, and the ensemble's
    answers are the members' answers, each cell once."""
    rng = random.Random(93)
    languages = [make_language(f"q{i:02d}") for i in range(12)]
    test = build_dataset(languages, {(lang.code, f"f{j}"): Cell.unknown()
                                     for lang in languages for j in range(8)})

    class Sometimes:
        def __init__(self, name):
            self.name, self.asked = name, []

        def predict(self, test, cells):
            self.asked.append(cells.tolist())
            return answers_of({c: (self.name, 0.5, self.name) for c in cells.tolist()[::-1]
                               if rng.random() < 0.4})

    members = [Sometimes(name) for name in "abcd"]
    cells = np.arange(len(test.cell_row))
    answers = EnsembleImputer(members).predict(test, cells)
    got = answer_map(answers)
    left = cells.tolist()
    for member in members:
        assert member.asked == [left]
        left = [c for c in left if c not in got or got[c].value > member.name]
    assert len(answers) == len(got) and 0 < len(got) < len(cells)
    assert left == [c for c in cells.tolist() if c not in got]


def test_member_prediction_passed_through_unchanged():
    ens = EnsembleImputer([_Canned("x", 0.42, source="special")])
    assert _ask(ens) == Answer("x", 0.42, "special")


def test_fit_reaches_every_member():
    rng = random.Random(92)
    train = random_dataset(rng, n_languages=5)
    members = [_Canned("a"), _Canned("b")]
    EnsembleImputer(members).fit(train)
    assert all(m.fitted for m in members)


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least one member"):
        EnsembleImputer([])


# ---------------------------------------------------------------------------
# config-driven construction


def test_build_each_method():
    cases = {
        "frequency": GlobalFrequencyImputer,
        "genus_family": GenusFamilyBackoffImputer,
        "geo_backoff": GeoBackoffImputer,
        "knn": NearestNeighborImputer,
        "correlation": CorrelationImputer,
        "ridge": RidgePriorImputer,
    }
    for method, cls in cases.items():
        assert isinstance(build_imputer({"method": method}), cls)


def test_build_applies_overrides():
    geo = build_imputer({"method": "geo_backoff", "near_km": "700", "far_km": "1400"})
    assert (geo.near_km, geo.far_km) == (700.0, 1400.0)
    knn = build_imputer({"method": "knn", "k": "7"})
    assert knn.k == 7
    corr = build_imputer({"method": "correlation", "alpha": "0.5", "min_support": "3"})
    assert (corr.alpha, corr.min_support) == (0.5, 3)
    ridge = build_imputer({
        "method": "ridge",
        "lambda": "10",
        "areal_km": "1500",
        "blocks": "genetic,indicators",
        "use_context": "true",
    })
    assert ridge.lam == 10.0
    assert ridge.areal_km == 1500.0
    assert ridge.blocks == ("genetic", "indicators")
    assert ridge.use_context is True


def test_build_knn_receives_vectors():
    vectors = {"aaa": (1.0, 0.0)}
    knn = build_imputer({"method": "knn"}, vectors=vectors)
    assert knn.vectors == {"aaa": (1.0, 0.0)}


def test_build_ensemble_with_members():
    ens = build_imputer({
        "method": "ensemble",
        "members": "frequency, correlation",
    })
    assert isinstance(ens, EnsembleImputer)
    assert isinstance(ens.members[0], GlobalFrequencyImputer)
    assert isinstance(ens.members[1], CorrelationImputer)


def test_build_ensemble_members_share_overrides():
    ens = build_imputer({
        "method": "ensemble",
        "members": "correlation,frequency",
        "min_support": "2",
    })
    assert ens.members[0].min_support == 2


@pytest.mark.parametrize(
    "config, fragment",
    [
        ({"method": "frequency", "bogus": "1"}, "unknown config keys"),
        ({}, "missing the method"),
        ({"method": "volunteer"}, "unknown method"),
        ({"method": "knn", "k": "two"}, "must be an integer"),
        ({"method": "geo_backoff", "near_km": "wide"}, "must be a number"),
        ({"method": "ridge", "use_context": "maybe"}, "must be true or false"),
        ({"method": "ridge", "blocks": "genetic,psychic"}, "unknown prior blocks"),
        ({"method": "ridge", "blocks": " , "}, "at least one prior block"),
        ({"method": "ensemble"}, "missing the members"),
        ({"method": "ensemble", "members": " , "}, "members list is empty"),
        ({"method": "ensemble", "members": "frequency,ensemble"}, "cannot nest"),
        ({"method": "ensemble", "members": "frequency", "policy": "vote"},
         "unknown config keys: policy$"),
        ({"method": "frequency", "k": "0"}, "does not read config keys: k$"),
        ({"method": "frequency", "lambda": "-3"}, "does not read config keys: lambda$"),
        ({"method": "ridge", "k": "3"}, "does not read config keys: k$"),
        ({"method": "ensemble", "members": "frequency,knn", "policy": "first_success"},
         "unknown config keys: policy$"),
        ({"method": "correlation", "members": "frequency"}, "does not read config keys: members$"),
        ({"method": "ensemble", "members": "frequency,knn", "areal_km": "10"},
         "does not read config keys: areal_km$"),
    ],
)
def test_build_rejects_bad_config(config, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_imputer(config)


def _settings(imputer):
    """The public attributes of an imputer, members' settings included."""
    settings = {k: v for k, v in vars(imputer).items() if not k.startswith("_")}
    if "members" in settings:
        settings["members"] = [(type(m), _settings(m)) for m in settings["members"]]
    return settings


@pytest.mark.parametrize("method", METHODS)
def test_built_defaults_are_the_constructors(method):
    """The builder sets no default of its own: a config naming only the
    method builds what the constructor builds."""
    module, name, _ = _METHOD_TABLE[method]
    cls = getattr(importlib.import_module(f"typoimpute.imputers.{module}"), name)
    if method == "ensemble":
        built = build_imputer({"method": method, "members": "frequency,ridge"})
        expected = cls([GlobalFrequencyImputer(), RidgePriorImputer()])
    else:
        built, expected = build_imputer({"method": method}), cls()
    assert type(built) is cls
    assert _settings(built) == _settings(expected)


def test_readme_imputer_keys_match_the_builder():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            table[cells[0].strip("`")] = tuple(re.findall(r"`([a-z_]+)`", cells[2]))
    assert table == {method: keys for method, (_, _, keys) in _METHOD_TABLE.items()}


def test_built_ensemble_runs_end_to_end():
    rng = random.Random(93)
    train = random_dataset(rng, n_languages=12, min_observed=1)
    ens = build_imputer({
        "method": "ensemble",
        "members": "correlation,genus_family,frequency",
        "min_support": "1",
    })
    ens.fit(train)
    for target in train.features():
        assert _ask(ens, target).value in train.counts.columns[target]
