"""Ensemble combination policies and config-driven imputer construction."""

import random

import pytest

from typoimpute.configio import ConfigError
from typoimpute.imputers import (
    CorrelationImputer,
    EnsembleImputer,
    GenusFamilyBackoffImputer,
    GeoBackoffImputer,
    GlobalFrequencyImputer,
    ImputerQuery,
    NearestNeighborImputer,
    NoPredictionError,
    Prediction,
    RidgePriorImputer,
    build_imputer,
)

from synth import make_language, random_dataset


class _Canned:
    """Test double that returns a fixed prediction or always fails."""

    def __init__(self, value=None, confidence=0.5, source="canned"):
        self.value = value
        self.confidence = confidence
        self.source = source
        self.fitted = False

    def fit(self, train, context=None):
        self.fitted = True
        return self

    def predict(self, query):
        if self.value is None:
            raise NoPredictionError("canned failure")
        return Prediction(self.value, self.confidence, self.source)


def _query(target="f"):
    return ImputerQuery(language=make_language("qqq"), observed={}, target=target)


def test_ensemble_of_one_is_identity():
    rng = random.Random(90)
    train = random_dataset(rng, n_languages=10, min_observed=1)
    solo = GlobalFrequencyImputer().fit(train)
    combined = EnsembleImputer([GlobalFrequencyImputer()]).fit(train)
    for target in train.features():
        query = _query(target)
        assert combined.predict(query) == solo.predict(query)


def test_max_confidence_picks_strongest():
    ens = EnsembleImputer([_Canned("a", 0.4), _Canned("b", 0.9)])
    pred = ens.predict(_query())
    assert (pred.value, pred.confidence) == ("b", 0.9)


def test_max_confidence_tie_goes_to_earlier_member():
    ens = EnsembleImputer([_Canned("first", 0.7), _Canned("second", 0.7)])
    assert ens.predict(_query()).value == "first"


def test_max_confidence_never_below_any_member():
    rng = random.Random(91)
    for _ in range(50):
        members = [_Canned(f"v{i}", round(rng.random(), 3)) for i in range(4)]
        ens = EnsembleImputer(members)
        pred = ens.predict(_query())
        assert pred.confidence >= max(m.confidence for m in members)


def test_max_confidence_skips_failing_members():
    ens = EnsembleImputer([_Canned(None), _Canned("b", 0.2)])
    assert ens.predict(_query()).value == "b"


def test_first_success_respects_order():
    ens = EnsembleImputer([_Canned("a", 0.1), _Canned("b", 0.9)], policy="first_success")
    assert ens.predict(_query()).value == "a"


def test_first_success_falls_through_failures():
    ens = EnsembleImputer([_Canned(None), _Canned(None), _Canned("c", 0.3)],
                          policy="first_success")
    assert ens.predict(_query()).value == "c"


@pytest.mark.parametrize("policy", ["max_confidence", "first_success"])
def test_all_members_failing_raises(policy):
    ens = EnsembleImputer([_Canned(None), _Canned(None)], policy=policy)
    with pytest.raises(NoPredictionError, match="no member"):
        ens.predict(_query())


def test_member_prediction_passed_through_unchanged():
    ens = EnsembleImputer([_Canned("x", 0.42, source="special")])
    assert ens.predict(_query()) == Prediction("x", 0.42, "special")


def test_fit_reaches_every_member():
    rng = random.Random(92)
    train = random_dataset(rng, n_languages=5)
    members = [_Canned("a"), _Canned("b")]
    EnsembleImputer(members).fit(train)
    assert all(m.fitted for m in members)


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least one member"):
        EnsembleImputer([])
    with pytest.raises(ValueError, match="unknown policy"):
        EnsembleImputer([_Canned("a")], policy="vote")


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
        "policy": "first_success",
    })
    assert isinstance(ens, EnsembleImputer)
    assert ens.policy == "first_success"
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
        ({"method": "ensemble", "members": "frequency", "policy": "vote"}, "unknown policy"),
    ],
)
def test_build_rejects_bad_config(config, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_imputer(config)


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
        pred = ens.predict(_query(target))
        assert pred.value in train.counts.columns[target]
