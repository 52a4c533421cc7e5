"""Cross-feature correlation imputer: NMI weights, smoothed votes."""

import random

import pytest

from typoimpute.imputers import (
    CorrelationImputer,
    fill_dataset,
)

from oracles import correlation_scores_oracle, mapped_votes_oracle, nmi_oracle
from synth import Cell, blank_some, build_dataset, cells_of, language_of, make_language, observed_of, predict_one, random_dataset


def _oracle_prediction(scores):
    """Value and confidence of an oracle score dict: the best total, ties
    to the smaller value, and its share of all totals."""
    value = min(scores, key=lambda b: (-scores[b], b))
    mass = sum(scores[b] for b in sorted(scores))
    return value, scores[value] / mass if mass > 0 else 1.0 / len(scores)


def _implication_dataset(n=9, mapping=None):
    """Languages observing A and B where B is a function of A."""
    mapping = mapping or {"a0": "b2", "a1": "b0", "a2": "b1"}
    keys = sorted(mapping)
    languages = []
    cells = {}
    for i in range(n):
        code = f"l{i:02d}"
        a = keys[i % len(keys)]
        languages.append(make_language(code))
        cells[(code, "A")] = Cell.observed(a)
        cells[(code, "B")] = Cell.observed(mapping[a])
        cells[(code, "C")] = Cell.observed("const")
    return build_dataset(languages, cells), mapping


def test_deterministic_implication_is_recovered():
    train, mapping = _implication_dataset(n=9)
    imp = CorrelationImputer()
    imp.fit(train)
    for a, b in mapping.items():
        pred = predict_one(imp, make_language("qqq"), {"A": a}, "B")
        assert pred.value == b
        assert pred.source == "correlation"
        assert pred.confidence > 0.5


def test_constant_feature_contributes_nothing():
    train, mapping = _implication_dataset(n=9)
    imp = CorrelationImputer()
    imp.fit(train)
    with_const = predict_one(imp, make_language("q1"), {"A": "a0", "C": "const"}, "B")
    without = predict_one(imp, make_language("q2"), {"A": "a0"}, "B")
    assert with_const == without


def test_min_support_gates_pairs():
    train, _ = _implication_dataset(n=4)  # only 4 co-observers
    strict = CorrelationImputer(min_support=5)
    strict.fit(train)
    assert predict_one(strict, make_language("qqq"), {"A": "a0"}, "B") is None
    loose = CorrelationImputer(min_support=4)
    loose.fit(train)
    assert predict_one(loose, make_language("qqq"), {"A": "a0"}, "B") is not None


def test_hand_computed_vote():
    # A/T co-observed 6 times: a1 -> t1 t1 t2, a2 -> t2 t2 t2
    pairs = [("a1", "t1"), ("a1", "t1"), ("a1", "t2"),
             ("a2", "t2"), ("a2", "t2"), ("a2", "t2")]
    languages = []
    cells = {}
    for i, (a, t) in enumerate(pairs):
        code = f"l{i:02d}"
        languages.append(make_language(code))
        cells[(code, "A")] = Cell.observed(a)
        cells[(code, "T")] = Cell.observed(t)
    train = build_dataset(languages, cells)
    imp = CorrelationImputer(alpha=1.0, min_support=5)
    imp.fit(train)

    weight = nmi_oracle(pairs)
    assert weight > 0
    # smoothed conditionals: (2+1)/(3+2) and (1+1)/(3+2), each times the weight
    assert correlation_scores_oracle(train, {"A": "a1"}, "T") == pytest.approx(
        {"t1": weight * 0.6, "t2": weight * 0.4})
    pred = predict_one(imp, make_language("qqq"), {"A": "a1"}, "T")
    assert pred.value == "t1"
    assert pred.confidence == pytest.approx(0.6)


def test_informative_feature_outvotes_weak_one():
    # A determines T; B is nearly independent of T
    languages = []
    cells = {}
    rows = [
        ("a1", "b1", "t1"), ("a1", "b2", "t1"), ("a1", "b1", "t1"),
        ("a1", "b2", "t1"), ("a2", "b1", "t2"), ("a2", "b2", "t2"),
        ("a2", "b1", "t2"), ("a2", "b2", "t2"),
    ]
    for i, (a, b, t) in enumerate(rows):
        code = f"l{i:02d}"
        languages.append(make_language(code))
        cells[(code, "A")] = Cell.observed(a)
        cells[(code, "B")] = Cell.observed(b)
        cells[(code, "T")] = Cell.observed(t)
    train = build_dataset(languages, cells)
    imp = CorrelationImputer()
    imp.fit(train)
    pred = predict_one(imp, make_language("qqq"), {"A": "a1", "B": "b1"}, "T")
    assert pred.value == "t1"


def test_no_observed_features_means_no_prediction():
    train, _ = _implication_dataset()
    imp = CorrelationImputer()
    imp.fit(train)
    assert predict_one(imp, make_language("qqq"), {}, "B") is None


def test_unknown_target_means_no_prediction():
    train, _ = _implication_dataset()
    imp = CorrelationImputer()
    imp.fit(train)
    assert predict_one(imp, make_language("qqq"), {"A": "a0"}, "Z") is None


def test_alpha_validation():
    with pytest.raises(ValueError):
        CorrelationImputer(alpha=-0.5)


def test_scores_match_oracle_on_random_data():
    rng = random.Random(70)
    for trial in range(25):
        train = random_dataset(
            rng,
            n_languages=rng.randint(3, 15),
            n_features=rng.randint(2, 6),
            p_observed=rng.choice([0.5, 0.8, 1.0]),
            min_observed=1,
        )
        alpha = rng.choice([0.5, 1.0])
        min_support = rng.choice([1, 3, 5])
        imp = CorrelationImputer(alpha=alpha, min_support=min_support)
        imp.fit(train)
        for code in train.codes():
            lang = language_of(train, code)
            full = observed_of(train, code)
            for target in train.features():
                observed = {f: v for f, v in full.items() if f != target}
                want = correlation_scores_oracle(
                    train, observed, target, alpha=alpha, min_support=min_support
                )
                got = predict_one(imp, lang, observed, target)
                if want is None:
                    assert got is None
                    continue
                value, confidence = _oracle_prediction(want)
                ranked = sorted(want.values())
                if len(ranked) < 2 or ranked[-1] - ranked[-2] > 1e-9:
                    assert got.value == value
                assert got.confidence == pytest.approx(confidence, rel=1e-9, abs=1e-12)


def test_fill_blanked_cells_end_to_end():
    train, mapping = _implication_dataset(n=12)
    languages = []
    cells = {}
    keys = sorted(mapping)
    for i in range(6):
        code = f"t{i:02d}"
        a = keys[i % len(keys)]
        languages.append(make_language(code))
        cells[(code, "A")] = Cell.observed(a)
        cells[(code, "B")] = Cell.blanked(mapping[a])
    test = build_dataset(languages, cells)
    imp = CorrelationImputer()
    imp.fit(train)
    predictions = fill_dataset(imp, test)
    assert len(predictions) == 6
    for (code, feature), pred in predictions.items():
        assert feature == "B"
        assert pred.value == cells_of(test)[(code, "B")].value


def test_predictions_match_oracle_at_benchmark_size():
    """600 languages x 60 features at 30% density, the size of the
    benchmark's models-M workload.  Predictions agree with the oracle
    wherever its top two totals are more than 1e-9 apart, and exact
    oracle ties stay exact (then the smaller value wins)."""
    rng = random.Random(71)
    train = random_dataset(rng, n_languages=600, n_features=60, n_values=3,
                           p_observed=0.3, min_observed=3)
    imp = CorrelationImputer().fit(train)
    features = train.features()
    decided = ties = 0
    for code in rng.sample(train.codes(), 25):
        lang = language_of(train, code)
        full = observed_of(train, code)
        observed = {f: v for f, v in full.items() if rng.random() < 0.7}
        # a value no training language has votes evenly: an exact tie
        unseen = {f: "unseen" for f in rng.sample(features, 2)}
        for profile in (observed, unseen):
            for target in rng.sample([f for f in features if f not in profile], 3):
                want = correlation_scores_oracle(train, profile, target)
                got = predict_one(imp, lang, profile, target)
                if want is None:
                    assert got is None
                    continue
                ranked = sorted(want, key=lambda b: (-want[b], b))
                if want[ranked[0]] - want[ranked[1]] > 1e-9:
                    assert got.value == ranked[0]
                    decided += 1
                tied = [b for b in ranked if want[b] == want[ranked[0]]]
                if len(tied) > 1:
                    # an exact oracle tie stays exact: the smaller value
                    # wins with the share of all tied values
                    assert got.value == ranked[0]
                    assert got.confidence == pytest.approx(_oracle_prediction(want)[1])
                    ties += 1
    assert decided > 50 and ties > 10


def test_block_predictions_equal_per_map_totals_bit_for_bit():
    """Scored as blocks of many test languages, value and confidence
    equal exactly those of the totals computed one observed map at a
    time, so a language's answer does not depend on its block."""
    rng = random.Random(72)
    data = random_dataset(rng, n_languages=300, n_features=30, n_values=4,
                          p_observed=0.4, min_observed=3)
    codes = data.codes()
    train = data.subset(codes[:240])
    test = blank_some(data.subset(codes[240:]), rng, per_language=4)
    imp = CorrelationImputer(min_support=3).fit(train)
    predictions = fill_dataset(imp, test)
    compared = 0
    for (code, target), cell in cells_of(test).items():
        if cell.state == "observed":
            continue
        totals = mapped_votes_oracle(imp, observed_of(test, code), target)
        got = predictions.get((code, target))
        if totals is None:
            assert got is None
            continue
        value = min(totals, key=lambda b: (-totals[b], b))
        mass = sum(totals.values())
        confidence = totals[value] / mass if mass > 0 else 1.0 / len(totals)
        assert (got.value, got.confidence) == (value, confidence)
        compared += 1
    assert compared > 150
