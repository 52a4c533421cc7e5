"""The coded count tables at their narrow widths, against the plain
int64 construction in ``oracles``, and the memory they take to build."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from typoimpute.coded import _COUNT_SLAB, CodedCounts, GroupCounts, count_matmul

from oracles import add_at_group_table, coded_tables_oracle, encode_oracle, observed_maps
from synth import Cell, build_dataset, child_env, make_language, random_dataset

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
def test_spans_tile_the_columns_in_feature_and_value_order(seed):
    """Each feature's span holds its ``columns`` in value order, and the
    spans, in feature order, tile the one-hot's columns, for one source
    and for a training set with its context."""
    train, context = _datasets(seed)
    for counts in (train.counts, CodedCounts([train, context])):
        spans = [counts.span(f) for f in counts.feature_index]
        stops = [0] + [span.stop for span in spans]
        assert [span.start for span in spans] == stops[:-1]
        assert stops[-1] == counts.onehot.shape[1]
        for feature, span in zip(counts.feature_index, spans):
            values = counts.columns[feature]
            assert list(values) == sorted(values)
            assert list(values.values()) == list(range(span.start, span.stop))
            assert (counts.feature_of[span] == counts.feature_index[feature]).all()


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


def test_count_matmul_ignores_whether_its_operands_share_a_buffer():
    """A table times its own transpose, a view of its own buffer, gives
    the int64 product, as a product of two separate tables does."""
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


@pytest.mark.parametrize("languages", [1, _COUNT_SLAB - 1, _COUNT_SLAB, _COUNT_SLAB + 1,
                                       2 * _COUNT_SLAB + 1])
def test_count_matmul_slabs_match_int64_oracle(languages):
    """Around each slab edge the slabbed products equal the int64
    products, for an own transpose and for two separate tables."""
    rng = np.random.default_rng(languages)
    onehot = rng.random((languages, 23)) < 0.3
    seen = rng.random((languages, 7)) < 0.6
    other = rng.random((languages, 23)) < 0.5
    wide = onehot.astype(np.int64)
    cases = [(onehot.T, onehot, wide.T @ wide), (seen.T, seen, seen.T.astype(np.int64) @ seen),
             (onehot.T, seen, wide.T @ seen), (onehot.T, other, wide.T @ other),
             (onehot[:9], onehot.T, wide[:9] @ wide.T)]
    for a, b, expected in cases:
        product = count_matmul(a, b)
        assert product.dtype == np.int64
        assert np.array_equal(product, expected)


_BUFFER_PROBE = """
import ctypes, sys
import numpy as np
from typoimpute.coded import count_matmul

def rss():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmRSS"))

onehot = np.random.default_rng(1).random((720, 235)) < 0.3
np.ones((2, 2)) @ np.ones((2, 2))
with open("/proc/self/maps") as maps:
    if "openblas" not in maps.read().lower():
        sys.exit("numpy's BLAS is not OpenBLAS")
ctypes.CDLL(None).malloc_trim(0)
before = rss()
if sys.argv[1] == "slabs":
    joint = count_matmul(onehot.T, onehot)
else:
    wide = onehot.T.astype(float)
    joint = (wide @ wide.T).astype(np.int64)
    del wide
del joint
ctypes.CDLL(None).malloc_trim(0)
print(rss() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_count_slabs_keep_openblas_buffer_small():
    """OpenBLAS keeps every page of its packing buffer that a product
    touched: a 720-language ``joint`` formed in slabs leaves less than
    half of what one product over all 720 leaves resident, at one BLAS
    thread in a fresh interpreter, with freed heap trimmed."""
    kept = {}
    for route in ("slabs", "one-shot"):
        done = subprocess.run([sys.executable, "-c", _BUFFER_PROBE, route], env=child_env("1"),
                              capture_output=True, text=True, timeout=120)
        if "not OpenBLAS" in done.stderr:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert done.returncode == 0, done.stderr
        kept[route] = int(done.stdout.split()[-1])
    assert kept["slabs"] < kept["one-shot"] / 2, kept


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
