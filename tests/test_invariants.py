"""Metamorphic invariants of the ridge imputer: the answers a language
gets do not depend on the order of the training rows, on an earlier
``fit`` of the same imputer, or (without ``use_context``) on which other
languages are filled with it."""

import random

import pytest

from typoimpute.imputers import RidgePriorImputer, fill_dataset

from synth import Cell, blank_some, build_dataset, cells_of, random_dataset

CONFIGS = {"ridge": {}, "ridge-context": {"use_context": True}}


def _sources(seed):
    """A training set and a blanked test set over the same ten features."""
    rng = random.Random(seed)
    data = random_dataset(rng, n_languages=150, n_features=10, n_values=4, p_observed=0.6,
                          min_observed=3)
    codes = data.codes()
    return data.subset(codes[:110]), blank_some(data.subset(codes[110:]), rng, per_language=3)


def _filled(imputer, test):
    """(code, feature) -> value of every observed cell of ``test`` filled
    by the fitted ``imputer``."""
    return {key: cell.value for key, cell in cells_of(fill_dataset(imputer, test)).items()
            if cell.state == "observed"}


def _shuffled(dataset, rng):
    """``dataset`` with its language rows and its cells in a shuffled order."""
    languages = list(dataset.languages)
    rng.shuffle(languages)
    cells = list(cells_of(dataset).items())
    rng.shuffle(cells)
    return build_dataset(languages, dict(cells))


@pytest.mark.parametrize("config", CONFIGS)
def test_ridge_ignores_the_order_of_the_training_rows(config):
    train, test = _sources(61)
    want = _filled(RidgePriorImputer(**CONFIGS[config]).fit(train, context=test), test)
    rng = random.Random(62)
    for _ in range(3):
        shuffled = _shuffled(train, rng)
        assert shuffled.codes() != train.codes()
        imputer = RidgePriorImputer(**CONFIGS[config]).fit(shuffled, context=test)
        assert _filled(imputer, test) == want


@pytest.mark.parametrize("config", CONFIGS)
def test_ridge_refit_fills_as_a_fresh_fit(config):
    """A fit on another training set, with two features the second one
    lacks, leaves nothing behind: the test set's cells of those features
    stay unanswered."""
    train, test = _sources(63)
    rng = random.Random(64)
    other = random_dataset(rng, n_languages=90, n_features=12, n_values=5, p_observed=0.6,
                           min_observed=3)
    other_test = blank_some(random_dataset(rng, n_languages=20, n_features=12), rng)
    extra = sorted(set(other.features()) - set(train.features()))
    assert len(extra) == 2
    cells = cells_of(test)
    cells.update(((lang.code, f), Cell.blanked("v0")) for lang in test.languages for f in extra)
    test = build_dataset(test.languages, cells)
    want = _filled(RidgePriorImputer(**CONFIGS[config]).fit(train, context=test), test)
    assert not any(f in extra for _, f in want)
    imputer = RidgePriorImputer(**CONFIGS[config]).fit(other, context=other_test)
    assert _filled(imputer.fit(train, context=test), test) == want


def test_ridge_fills_a_language_alone_as_in_the_full_set():
    """Without ``use_context``, a test language's answers do not depend
    on the other test languages."""
    train, test = _sources(65)
    imputer = RidgePriorImputer().fit(train, context=test)
    full = _filled(imputer, test)
    for code in test.codes():
        alone = _filled(imputer, test.subset([code]))
        assert alone == {key: value for key, value in full.items() if key[0] == code}
