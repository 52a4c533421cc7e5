"""The coded count tables at their narrow widths, against the plain
int64 construction in ``oracles``, and the memory they take to build."""

import random

import numpy as np
import pytest

from typoimpute.coded import CodedCounts, GroupCounts, count_matmul

from oracles import add_at_group_table, coded_tables_oracle, encode_oracle, observed_maps
from synth import Cell, build_dataset, make_language, random_dataset

DTYPES = {"onehot": np.bool_, "seen": np.bool_, "joint": np.int64, "support": np.int64,
          "marginal": np.int64, "totals": np.int64}


def _check_tables(counts: CodedCounts, sources) -> None:
    """Every table of ``counts`` has its documented dtype and the
    oracle's values."""
    expected = coded_tables_oracle(sources)
    assert [(f, v) for f, values in counts.columns.items() for v in values] == expected["pairs"]
    assert list(counts.feature_index) == expected["features"]
    for name, dtype in DTYPES.items():
        table = getattr(counts, name)
        assert table.dtype == dtype, name
        assert np.array_equal(table.astype(np.int64), expected[name]), name
    for level in ("genus", "family"):
        groups = getattr(counts, level)
        assert groups.table.dtype == np.int32
        assert np.array_equal(groups.table.astype(np.int64), expected[level]), level
        names = [getattr(lang, level) for lang in counts.languages]
        assert np.array_equal(groups.of, [groups.rows[name] for name in names])


def _datasets(seed: int):
    rng = random.Random(seed)
    n_train = rng.randint(1, 30)
    train = random_dataset(rng, n_languages=n_train, n_features=rng.randint(1, 8),
                           n_values=3, p_observed=rng.uniform(0.2, 0.9), min_observed=1,
                           singleton_genera=seed % 3 == 0)
    # Context codes repeat the training codes l00, l01, ... and go on
    # past them; its extra values v3, v4 are seen only in the context.
    context = random_dataset(rng, n_languages=n_train + rng.randint(0, 10),
                             n_features=rng.randint(1, 10), n_values=5,
                             p_observed=rng.uniform(0.2, 0.9), min_observed=1,
                             singleton_genera=seed % 3 == 1)
    return train, context


@pytest.mark.parametrize("seed", range(40))
def test_tables_match_int64_oracle_on_random_datasets(seed):
    train, context = _datasets(seed)
    _check_tables(train.counts, [train])
    _check_tables(CodedCounts([train, context]), [train, context])
    _check_tables(CodedCounts([context, train]), [context, train])


def test_tables_match_int64_oracle_for_single_language_groups():
    rng = random.Random(3)
    train = random_dataset(rng, n_languages=25, n_features=6, singleton_genera=True)
    _check_tables(train.counts, [train])
    assert (train.counts.genus.table[:-1] == train.counts.onehot).all()
    assert not train.counts.family.table[-1].any()


def test_tables_match_int64_oracle_on_zero_languages():
    empty = build_dataset([], {})
    one = build_dataset([make_language("aaa")], {("aaa", "f1"): Cell.observed("x")})
    for sources in ([empty], [empty, empty], [empty, one], [one, empty]):
        _check_tables(CodedCounts(sources), sources)
    assert GroupCounts([], np.zeros((0, 4), dtype=bool)).table.tolist() == [[0, 0, 0, 0]]


def test_context_only_values_get_columns_and_repeated_codes_count_once():
    train = build_dataset([make_language("aaa"), make_language("bbb")],
                          {("aaa", "f1"): Cell.observed("x"), ("bbb", "f1"): Cell.observed("y")})
    context = build_dataset([make_language("bbb"), make_language("ccc")],
                            {("bbb", "f1"): Cell.observed("z"), ("ccc", "f1"): Cell.observed("z")})
    counts = CodedCounts([train, context])
    assert counts.columns == {"f1": {"x": 0, "y": 1, "z": 2}}
    assert counts.totals.tolist() == [1, 1, 1]
    _check_tables(counts, [train, context])


def test_group_counts_span_column_blocks(monkeypatch):
    """A block boundary inside a group's columns changes no count."""
    from typoimpute import coded

    rng = random.Random(11)
    counts = random_dataset(rng, n_languages=30, n_features=8, n_values=4).counts
    names = [lang.genus for lang in counts.languages]
    for block in (1, 29, 30, 31, 60, 10**6):
        monkeypatch.setattr(coded, "_GROUP_BLOCK", block)
        table = GroupCounts(names, counts.onehot).table
        assert np.array_equal(table, add_at_group_table(names, counts.onehot))


@pytest.mark.parametrize("seed", range(10))
def test_encode_matches_int64_oracle(seed):
    train, context = _datasets(seed)
    counts = train.counts
    onehot, seen = counts.encode(context)
    assert onehot.dtype == seen.dtype == np.bool_
    pairs = [(f, v) for f, values in counts.columns.items() for v in values]
    observed = observed_maps(context)
    assert np.array_equal(onehot, encode_oracle(pairs, context.languages, observed))
    features = list(counts.feature_index)
    assert seen.tolist() == [[f in observed[lang.code] for f in features]
                             for lang in context.languages]


def test_count_matmul_casts_an_own_transpose_once():
    """A table times its own transpose gives the int64 product, as a
    product of two separate tables does."""
    rng = np.random.default_rng(5)
    a = rng.random((40, 13)) < 0.3
    expected = a.astype(np.int64).T @ a.astype(np.int64)
    assert np.array_equal(count_matmul(a.T, a), expected)
    assert np.array_equal(count_matmul(a.T, a.copy()), expected)
    b = rng.random((40, 13)) < 0.3  # laid out as a, another buffer
    assert np.array_equal(count_matmul(a.T, b), a.astype(np.int64).T @ b)
    assert np.array_equal(count_matmul(a, a.T), a.astype(np.int64) @ a.astype(np.int64).T)
    square = rng.random((9, 9)) < 0.5
    assert np.array_equal(count_matmul(square, square), square.astype(np.int64) @ square)
    assert count_matmul(a.T, a).dtype == np.int64


def test_bool_tables_refuse_bool_subtraction():
    counts = random_dataset(random.Random(2)).counts
    with pytest.raises(TypeError):
        counts.onehot - counts.onehot
    assert (counts.genus.table[counts.genus.of] - counts.onehot).min() >= 0


def test_counts_and_group_tables_peak_memory_is_narrow():
    """Building ``Dataset.counts`` with its genus and family tables over
    1,500 languages holds the tables at their own widths, a few index
    arrays per observed cell and one block of 2**16 one-hot cells cast
    to int32: never an int64 copy of the one-hot."""
    import tracemalloc

    genera = [(f"Gen{i:03d}", f"Fam{i // 3:03d}") for i in range(300)]
    d = random_dataset(random.Random(7), n_languages=1500, n_features=40, n_values=6,
                       p_observed=0.3, genera=genera)
    tracemalloc.start()
    try:
        counts = d.counts
        counts.genus, counts.family
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = (counts.onehot.size + counts.seen.size
              + 4 * (counts.genus.table.size + counts.family.table.size))
    assert peak <= tables + 48 * len(d.cell_row) + 8 * 2**16
