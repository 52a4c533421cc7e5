"""Metamorphic invariants of every imputer config: the answers a
language gets do not depend on the order of the training rows or of the
test rows, on the order of the cells within a line of either file, on
an earlier ``fit`` of the same imputer, on the number of BLAS threads,
or (for all but ridge with ``use_context``) on which other languages
are filled with it."""

import random
import subprocess
import sys
from dataclasses import replace

import pytest

from typoimpute.configio import write_kv
from typoimpute.imputers import build_imputer, fill_dataset
from typoimpute.kb import parse_dataset, write_dataset

from synth import Cell, blank_some, build_dataset, cells_of, child_env, random_dataset

CONFIGS = {
    "frequency": {"method": "frequency"},
    "genus_family": {"method": "genus_family"},
    # on the grid of _sources: the near level holds a language's own
    # point, the far one the next points
    "geo_backoff": {"method": "geo_backoff", "near_km": "500", "far_km": "4000"},
    "knn-1": {"method": "knn", "k": "1"},
    "knn-3": {"method": "knn", "k": "3"},
    "correlation": {"method": "correlation"},
    # min_support high enough that correlation leaves about a fifth of
    # the cells to knn
    "ensemble": {"method": "ensemble", "members": "correlation,knn", "min_support": "40",
                 "k": "3"},
    "ridge": {"method": "ridge"},
    "ridge-context": {"method": "ridge", "use_context": "true"},
}
RIDGE = ("ridge", "ridge-context")
OTHERS = [name for name in CONFIGS if name not in RIDGE]


def _sources(seed):
    """A training set and a blanked test set over the same ten features.
    The languages sit on a grid of 35 points, so that knn's ties in
    agreement distance also tie in kilometres and fall to the code, and
    the last ten test languages have a genus and a family of their own,
    so that the back-off imputers reach their geographic levels."""
    rng = random.Random(seed)
    data = random_dataset(rng, n_languages=150, n_features=10, n_values=4, p_observed=0.6,
                          min_observed=3)
    codes = data.codes()
    languages = [replace(lang, latitude=30.0 * round(lang.latitude / 30),
                         longitude=60.0 * round(lang.longitude / 60)) for lang in data.languages]
    languages[140:] = [replace(lang, genus=f"Gen-{lang.code}", family=f"Fam-{lang.code}")
                       for lang in languages[140:]]
    data = build_dataset(languages, cells_of(data))
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


def _check_training_order(config, seed):
    train, test = _sources(seed)
    want = _filled(build_imputer(CONFIGS[config]).fit(train, context=test), test)
    rng = random.Random(seed + 1)
    for _ in range(3):
        shuffled = _shuffled(train, rng)
        assert shuffled.codes() != train.codes()
        imputer = build_imputer(CONFIGS[config]).fit(shuffled, context=test)
        assert _filled(imputer, test) == want


def _check_refit(config, seed):
    """A fit on another training set, with two features the second one
    lacks, leaves nothing behind: the test set's cells of those features
    stay unanswered."""
    train, test = _sources(seed)
    rng = random.Random(seed + 1)
    other = random_dataset(rng, n_languages=90, n_features=12, n_values=5, p_observed=0.6,
                           min_observed=3)
    other_test = blank_some(random_dataset(rng, n_languages=20, n_features=12), rng)
    extra = sorted(set(other.features()) - set(train.features()))
    assert len(extra) == 2
    cells = cells_of(test)
    cells.update(((lang.code, f), Cell.blanked("v0")) for lang in test.languages for f in extra)
    test = build_dataset(test.languages, cells)
    want = _filled(build_imputer(CONFIGS[config]).fit(train, context=test), test)
    assert not any(f in extra for _, f in want)
    imputer = build_imputer(CONFIGS[config]).fit(other, context=other_test)
    assert _filled(imputer.fit(train, context=test), test) == want


def _check_alone(config, seed):
    """Each test language gets the answers alone, in a seeded half of the
    test set, and in the full set."""
    train, test = _sources(seed)
    imputer = build_imputer(CONFIGS[config]).fit(train, context=test)
    full = _filled(imputer, test)
    half = random.Random(seed + 1).sample(test.codes(), len(test.codes()) // 2)
    assert _filled(imputer, test.subset(half)) == {
        key: value for key, value in full.items() if key[0] in half}
    for code in test.codes():
        alone = _filled(imputer, test.subset([code]))
        assert alone == {key: value for key, value in full.items() if key[0] == code}


def _check_test_order(config, seed):
    train, test = _sources(seed)
    want = _filled(build_imputer(CONFIGS[config]).fit(train, context=test), test)
    shuffled = _shuffled(test, random.Random(seed + 1))
    assert shuffled.codes() != test.codes()
    assert _filled(build_imputer(CONFIGS[config]).fit(train, context=shuffled), shuffled) == want


def _reread_with_cells_permuted(d, path, rng, gold=None, reveal_blanked=False):
    """``d`` written to ``path``, the ``|``-separated cells of each line
    shuffled, and parsed again, with ``gold`` as its gold companion."""
    write_dataset(path, d, reveal_blanked=reveal_blanked)
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        *columns, cells = line.split("\t")
        parts = cells.split(" | ")
        rng.shuffle(parts)
        lines.append("\t".join([*columns, " | ".join(parts)]) + "\n")
    permuted = "".join(lines)
    assert permuted != path.read_text(encoding="utf-8")
    return parse_dataset(permuted, gold=gold)


def _check_cell_order(config, seed, tmp_path):
    train, test = _sources(seed)
    want = _filled(build_imputer(CONFIGS[config]).fit(train, context=test), test)
    rng = random.Random(seed + 1)
    path = tmp_path / "data.tsv"
    train = _reread_with_cells_permuted(train, path, rng)
    gold = _reread_with_cells_permuted(test, path, rng, reveal_blanked=True)
    test = _reread_with_cells_permuted(test, path, rng, gold=gold)
    assert _filled(build_imputer(CONFIGS[config]).fit(train, context=test), test) == want


@pytest.mark.parametrize("config", CONFIGS)
def test_answers_ignore_the_order_of_the_test_rows(config):
    _check_test_order(config, 79)


@pytest.mark.parametrize("config", CONFIGS)
def test_answers_ignore_the_order_of_the_cells_in_a_line(config, tmp_path):
    _check_cell_order(config, 81, tmp_path)


def test_ensemble_impute_ignores_blas_thread_count(tmp_path):
    """``impute`` with ``method=ensemble`` writes the same bytes with one
    and with two BLAS threads."""
    train, test = _sources(83)
    write_dataset(tmp_path / "train.tsv", train)
    write_dataset(tmp_path / "test.tsv", test)
    write_kv(tmp_path / "imputer.cfg", CONFIGS["ensemble"])
    filled = []
    for threads in ("1", "2"):
        env = child_env(threads)
        out = tmp_path / f"filled{threads}.tsv"
        subprocess.run(
            [sys.executable, "-m", "typoimpute.cli", "impute",
             "--train", str(tmp_path / "train.tsv"), "--test", str(tmp_path / "test.tsv"),
             "--out", str(out), "--imputer-config", str(tmp_path / "imputer.cfg"),
             "--no-fallback"],
            env=env, check=True, capture_output=True, timeout=300,
        )
        filled.append(out.read_bytes())
    assert filled[0] != (tmp_path / "test.tsv").read_bytes()
    assert filled[0] == filled[1]


@pytest.mark.parametrize("config", RIDGE)
def test_ridge_ignores_the_order_of_the_training_rows(config):
    _check_training_order(config, 61)


@pytest.mark.parametrize("config", RIDGE)
def test_ridge_refit_fills_as_a_fresh_fit(config):
    _check_refit(config, 63)


def test_ridge_fills_a_language_alone_as_in_the_full_set():
    _check_alone("ridge", 65)


@pytest.mark.parametrize("config", OTHERS)
def test_answers_ignore_the_order_of_the_training_rows(config):
    _check_training_order(config, 71)


@pytest.mark.parametrize("config", OTHERS)
def test_refit_fills_as_a_fresh_fit(config):
    _check_refit(config, 73)


@pytest.mark.parametrize("config", OTHERS)
def test_fills_a_language_alone_as_in_the_full_set(config):
    _check_alone(config, 75)


@pytest.mark.parametrize("config", CONFIGS)
def test_only_ridge_with_context_reads_the_context(config):
    """The test set passed to ``fit`` as ``context`` changes the answers
    of ridge with ``use_context`` alone, which is why that config is
    exempt from the alone-or-in-the-full-set invariant."""
    train, test = _sources(77)
    read = _filled(build_imputer(CONFIGS[config]).fit(train, context=test), test)
    unread = _filled(build_imputer(CONFIGS[config]).fit(train), test)
    assert (read != unread) == (config == "ridge-context")
