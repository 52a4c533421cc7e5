"""Ridge solver and the prior-distribution feature space built on it."""

import itertools
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from typoimpute.geo import coordinates, distance_matrix, haversine_km
from typoimpute.kb import OBSERVED_CODE
from typoimpute.imputers import (
    ALL_BLOCKS,
    Answers,
    PriorFeatureSpace,
    RidgePriorImputer,
    fill_dataset,
    solve_ridge,
)
from typoimpute.coded import CodedCounts
from typoimpute.imputers import ridge
from typoimpute.imputers.ridge import _radius_counts

from oracles import (
    CountedPriorSpace,
    CountedPriorStats,
    GatheredPriorSpace,
    build_prior_features,
    centred_copy_ridge_oracle,
    counted_ridge_fit,
    normal_equation_residual,
    one_shot_radius_counts,
    prior_features_oracle,
    ridge_oracle,
    ridge_prediction_oracle,
)
from synth import (Answer, Cell, answer_map, blank_some, build_dataset, cells_of, child_env,
                   language_of, make_language, observed_of, predict_one, predictions_of,
                   random_dataset)


def _scores(imp, lang, observed, target):
    """The fitted regressors' score of every value of ``target``, from
    the prior vector of one language."""
    fitted = imp._fitted[target]
    raw = fitted.weights @ _dense(fitted.space, lang, observed, imp.areal_km) + fitted.biases
    return dict(zip(fitted.space.inventory, raw.tolist()))


# ---------------------------------------------------------------------------
# the solver


def test_solver_matches_dense_oracle():
    rng = np.random.default_rng(80)
    for trial in range(40):
        n = int(rng.integers(1, 51))
        d = int(rng.integers(1, 21))
        lam = float(rng.choice([0.01, 1.0, 100.0]))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        w, b = solve_ridge(X, y, lam)
        ww, bb = ridge_oracle(X, y, lam)
        assert np.allclose(w, ww, rtol=1e-6, atol=1e-8)
        assert b == pytest.approx(bb, rel=1e-6, abs=1e-8)
        assert normal_equation_residual(X, y, lam, w, b) <= 1e-8


def test_solver_primal_system_when_wide():
    """A design wider than its rows is solved by the same d x d centred
    normal equations; wide targets of the imputer go through
    ``PriorFeatureSpace.solve_dual`` instead."""
    rng = np.random.default_rng(81)
    X = rng.normal(size=(5, 40))
    y = rng.normal(size=5)
    for lam in (0.01, 1.0, 100.0):
        w, b = solve_ridge(X, y, lam)
        ww, bb = ridge_oracle(X, y, lam)
        assert np.allclose(w, ww, rtol=1e-6, atol=1e-8)
        assert b == pytest.approx(bb, rel=1e-6, abs=1e-8)
        assert normal_equation_residual(X, y, lam, w, b) <= 1e-8


def test_solver_near_interpolation():
    X = np.eye(3)
    y = np.array([3.0, -1.0, 2.0])
    w, b = solve_ridge(X, y, 1e-10)
    assert np.allclose(X @ w + b, y, atol=1e-6)


def test_solver_shrinkage_monotone():
    rng = np.random.default_rng(82)
    X = rng.normal(size=(20, 6))
    y = rng.normal(size=20)
    norms = [
        float(np.linalg.norm(solve_ridge(X, y, lam)[0]))
        for lam in (0.01, 0.1, 1.0, 10.0, 100.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_solver_zero_design_gives_mean():
    X = np.zeros((4, 3))
    y = np.array([1.0, 2.0, 3.0, 6.0])
    w, b = solve_ridge(X, y, 1.0)
    assert np.allclose(w, 0.0)
    assert b == pytest.approx(3.0)


def test_solver_column_permutation_equivariance():
    rng = np.random.default_rng(83)
    X = rng.normal(size=(12, 5))
    y = rng.normal(size=12)
    perm = [3, 0, 4, 1, 2]
    w, b = solve_ridge(X, y, 1.0)
    wp, bp = solve_ridge(X[:, perm], y, 1.0)
    assert np.allclose(wp, w[perm], atol=1e-9)
    assert bp == pytest.approx(b)


def test_solver_multi_column_matches_single_columns():
    rng = np.random.default_rng(84)
    for n, d in ((30, 8), (6, 25)):  # narrow (d <= n) and wide (d > n) designs
        X = rng.normal(size=(n, d))
        Y = rng.normal(size=(n, 4))
        W, b = solve_ridge(X, Y, 0.5)
        assert W.shape == (d, 4) and b.shape == (4,)
        for j in range(4):
            w, bj = solve_ridge(X, Y[:, j], 0.5)
            assert isinstance(bj, float)
            assert np.allclose(W[:, j], w, rtol=0.0, atol=1e-12)
            assert b[j] == pytest.approx(bj, rel=0.0, abs=1e-12)


def test_solver_leaves_its_inputs_unmodified():
    rng = np.random.default_rng(85)
    for n, d in ((30, 8), (6, 25)):  # narrow and wide designs
        X = rng.random((n, d))
        Y = np.where(rng.random((n, 3)) < 0.5, 1.0, -1.0)
        before = X.copy(), Y.copy()
        for array in (X, Y):
            array.flags.writeable = False
        solve_ridge(X, Y, 0.5)
        solve_ridge(X, Y[:, 0], 0.5)
        assert np.array_equal(X, before[0]) and np.array_equal(Y, before[1])


def test_solver_dual_matches_centred_copy_oracle():
    """Wide designs shaped like ridge's own: shares and indicators in
    [0, 1], constant columns, duplicate rows, +/-1 targets; the primal
    solve agrees with the oracle's dual system of the centred copy."""
    rng = np.random.default_rng(86)
    for trial in range(40):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(n + 1, 4 * n + 20))
        X = rng.random((n, d))
        X[:, rng.random(d) < 0.4] = rng.random((n, 1)) < 0.5
        constant = rng.random(d) < 0.2
        X[:, constant] = rng.choice([0.0, 1.0, 0.375], size=int(constant.sum()))
        X[rng.integers(0, n, size=n // 3)] = X[rng.integers(0, n)]
        Y = np.where(rng.random((n, int(rng.integers(1, 5)))) < 0.5, 1.0, -1.0)
        for lam in (0.01, 1.0, 100.0):
            for y in (Y, Y[:, 0]):
                w, b = solve_ridge(X, y, lam)
                ww, bb = centred_copy_ridge_oracle(X, y, lam)
                atol = 1e-10 * max(1.0, np.abs(ww).max())  # for the zero weights
                np.testing.assert_allclose(w, ww, rtol=1e-10, atol=atol)
                np.testing.assert_allclose(b, bb, rtol=1e-10, atol=atol)


def test_solver_input_validation():
    X = np.ones((3, 2))
    y = np.ones(3)
    with pytest.raises(ValueError):
        solve_ridge(X, np.ones(4), 1.0)
    with pytest.raises(ValueError):
        solve_ridge(X, y, 0.0)
    with pytest.raises(ValueError):
        solve_ridge(X, y, -1.0)
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        solve_ridge(bad, y, 1.0)
    with pytest.raises(ValueError):
        solve_ridge(np.ones((0, 2)), np.ones(0), 1.0)
    with pytest.raises(ValueError):
        solve_ridge(X, np.ones((3, 0)), 1.0)
    with pytest.raises(ValueError):
        solve_ridge(X, np.ones((3, 2, 1)), 1.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
def test_solver_rejects_a_non_finite_lambda(lam):
    """A NaN lambda used to give NaN weights and an infinite one zero
    weights, where a non-finite X or y is an error."""
    with pytest.raises(ValueError, match="finite"):
        solve_ridge(np.eye(3), np.array([1.0, 2.0, 3.0]), lam)


def _spd_system(seed, n, k):
    """An n x n symmetric positive-definite matrix and n x k right-hand
    sides, integer-valued, so that no rounding precedes the solve."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-3, 4, size=(n, n + 5)).astype(float)
    return X @ X.T + np.eye(n), rng.integers(-5, 6, size=(n, k)).astype(float)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 501])
def test_blocked_solve_matches_lapack(n):
    """The in-place block elimination agrees with one ``np.linalg.solve``
    to rtol 1e-10, for 1 to 5 right-hand sides, and gives its very bytes
    up to one block."""
    for k in range(1, 6):
        A, B = _spd_system(10 * n + k, n, k)
        want = np.linalg.solve(A, B)
        got = ridge._solve_in_place(A.copy(), B.copy())
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        if n <= ridge._SOLVE_BLOCK:
            assert got.tobytes() == want.tobytes()


def test_blocked_solve_of_duplicated_rows_at_a_tiny_lambda():
    """A centred Gram matrix of 200 rows with every row twice is singular
    but for lambda = 1e-10; the solve stays finite and backward stable."""
    rng = np.random.default_rng(87)
    X = np.repeat(rng.random((100, 150)), 2, axis=0)
    X -= X.mean(axis=0)
    A = X @ X.T + 1e-10 * np.eye(200)
    B = np.where(rng.random((200, 3)) < 0.5, 1.0, -1.0)
    x = ridge._solve_in_place(A.copy(), B.copy())
    assert np.isfinite(x).all()
    assert np.abs(A @ x - B).max() <= 1e-12 * np.abs(A).max() * np.abs(x).max() * 200


def _run_child(probe, threads):
    """The standard output of the Python code ``probe`` run in a child
    interpreter from this directory, with BLAS on ``threads`` threads."""
    return subprocess.run([sys.executable, "-c", probe], env=child_env(threads),
                          cwd=Path(__file__).parent, check=True, capture_output=True, text=True,
                          timeout=300).stdout


@pytest.mark.xfail(strict=True, reason=(
    "solve_ridge solves its d x d system in 64-row blocks, which ignore the thread count, but "
    "forms Xc.T @ Xc in one product, threaded by OpenBLAS, so its weights follow the thread "
    "count; 64-column tiles of Xc.T @ Xc do not help, as a (150 x 400) @ (400 x 64) product "
    "still differs between thread counts, while Xc.T @ (y - mean y) does not"))
def test_primal_weights_ignore_blas_thread_count():
    """``solve_ridge``'s weights for a seeded 400 x 150 design have the
    same bytes at 1 and 2 BLAS threads."""
    probe = "\n".join([
        "import hashlib",
        "import numpy as np",
        "from typoimpute.imputers.ridge import solve_ridge",
        "rng = np.random.default_rng(33)",
        "X = rng.standard_normal((400, 150))",
        "y = np.where(rng.random((400, 3)) < 0.5, 1.0, -1.0)",
        "w, b = solve_ridge(X, y, 1.0)",
        "print(hashlib.sha256(w.tobytes()).hexdigest(), hashlib.sha256(b.tobytes()).hexdigest())",
    ])
    digests = [_run_child(probe, threads) for threads in ("1", "2")]
    assert digests[0].count("\n") == 1 and digests[0] == digests[1]


def test_blocked_solve_ignores_blas_thread_count():
    """One ``np.linalg.solve`` of 100 rows or more is threaded by
    OpenBLAS and its bytes follow the thread count; the blocked solve's
    do not, at 1 and 2 threads, up to WALS scale."""
    probe = "\n".join([
        "import hashlib",
        "from test_ridge import _spd_system",
        "from typoimpute.imputers import ridge",
        "for n in (65, 300, 501, 1344):",
        "    for k in (1, 3):",
        "        A, B = _spd_system(n + k, n, k)",
        "        print(n, k, hashlib.sha256(ridge._solve_in_place(A, B).tobytes()).hexdigest())",
    ])
    digests = [_run_child(probe, threads) for threads in ("1", "2")]
    assert digests[0].count("\n") == 8 and digests[0] == digests[1]


# ---------------------------------------------------------------------------
# prior feature blocks


def _inventories(train):
    return {f: tuple(values) for f, values in train.counts.columns.items()}


def _stats(counts, areal_km):
    """``counts`` with the radius counts of its languages, as ``fit``
    computes them."""
    return counts, _radius_counts(counts, counts.coords, areal_km, np.arange(len(counts.languages)))


def _space(stats, train, target, min_support=5, blocks=ALL_BLOCKS):
    inventories = _inventories(train)
    return PriorFeatureSpace(
        *stats, target, inventories.get(target, ()), inventories, min_support, blocks
    )


def _design(space, rows, onehot=None):
    """``space.dense`` of the statistics rows ``rows``, as ``fit`` stacks
    a narrow target's design, with their one-hot rows or ``onehot``."""
    counts = space.counts
    return space.dense(counts.genus.of[rows], counts.family.of[rows],
                       None if space.areal is None
                       else space.areal[rows, space._target_columns],
                       counts.onehot[rows] if onehot is None else onehot)


def _training_design(space, train, target):
    """Codes of the training languages observing ``target``, with the
    design matrix of their rows."""
    codes = [code for code in train.codes() if target in observed_of(train, code)]
    rows = np.array([space.counts.rows[code] for code in codes], dtype=np.intp)
    return codes, _design(space, rows)


def _dense_block(space, block, areal_km=2500.0):
    """``space.dense`` of every language of ``block``, as ``predict``
    feeds it: a statistics language reads its fit-time radius counts,
    any other counts its neighbours within ``areal_km``."""
    counts = space.counts
    onehot, _ = counts.encode(block)
    areal = np.array([
        space.areal[counts.rows[lang.code]] if lang.code in counts.rows else
        _radius_counts(counts, coordinates([lang]), areal_km, np.array([-1]))[0]
        for lang in block.languages]).reshape(len(block.languages), -1)
    return space.dense(counts.genus.index(lang.genus for lang in block.languages),
                       counts.family.index(lang.family for lang in block.languages),
                       None if space.areal is None else areal[:, space._target_columns],
                       onehot)


def _dense(space, lang, observed, areal_km=2500.0):
    """``space.dense`` of one language observing ``observed``."""
    one = build_dataset([lang], {(lang.code, f): Cell.observed(v) for f, v in observed.items()})
    return _dense_block(space, one, areal_km)[0]


def _oracle_keys(counted, train, target, min_support=5, blocks=ALL_BLOCKS):
    """The key of every column of ``_space``'s design, in column order,
    as the counting oracle over the statistics ``counted`` spells them
    out."""
    inventories = _inventories(train)
    return CountedPriorSpace(counted, target, inventories.get(target, ()), inventories,
                             min_support, blocks).keys


def _as_sparse(keys, vec):
    assert len(keys) == len(vec)
    return {key: p for key, p in zip(keys, vec.tolist()) if p != 0.0}


def _query_sparse(train, lang, observed, target, areal_km=2500.0, min_support=5):
    space = _space(_stats(train.counts, areal_km), train, target, min_support)
    keys = _oracle_keys(CountedPriorStats([train], areal_km), train, target, min_support)
    return _as_sparse(keys, _dense(space, lang, observed, areal_km))


def _random_sources(rng, with_context):
    """A random training set and, optionally, a context set with its
    own codes whose six features and four values include some the
    training set never observes."""
    train = random_dataset(
        rng,
        n_languages=rng.randint(4, 16),
        n_features=rng.randint(2, 5),
        p_observed=rng.choice([0.6, 0.9]),
        min_observed=1,
    )
    if not with_context:
        return train, None
    extra = random_dataset(rng, n_languages=rng.randint(2, 8), n_features=6, n_values=4,
                           min_observed=1)
    return train, _recoded(extra)


def _recoded(extra):
    """``extra`` with its language codes prefixed, to serve as context."""
    return build_dataset(
        [replace(lang, code="c" + lang.code) for lang in extra.languages],
        {("c" + code, f): cell for (code, f), cell in cells_of(extra).items()},
    )


def _others(observed, target):
    return {f: v for f, v in observed.items() if f != target}


def test_prior_features_match_oracle():
    rng = random.Random(84)
    for trial in range(16):
        train, context = _random_sources(rng, with_context=trial % 2 == 1)
        sources = [train] + ([context] if context else [])
        areal = rng.choice([800.0, 2500.0])
        min_support = rng.choice([1, 3])
        stats = _stats(CodedCounts(sources), areal)
        counted = CountedPriorStats(sources, areal)
        for target in train.features():
            space = _space(stats, train, target, min_support)
            keys = _oracle_keys(counted, train, target, min_support)
            codes, X = _training_design(space, train, target)
            cases = [
                (language_of(train, code), observed_of(train, code), _as_sparse(keys, x))
                for code, x in zip(codes, X)
            ]
            queries = [(lang, observed_of(train, lang.code)) for lang in train.languages
                       if lang.code not in codes]
            if context:
                queries += [(lang, observed_of(context, lang.code)) for lang in context.languages]
            cases += [
                (lang, full, _as_sparse(keys, _dense(space, lang, _others(full, target), areal)))
                for lang, full in queries
            ]
            for lang, full, got in cases:
                own = full.get(target) if lang.code in codes else None
                want = prior_features_oracle(
                    train, lang, _others(full, target), target, areal_km=areal,
                    min_support=min_support, own_value=own, context=context,
                )
                assert sorted(got) == sorted(want)
                for key, p in want.items():
                    assert got[key] == pytest.approx(p, rel=1e-9, abs=1e-12)


def test_design_matches_counted_oracle():
    rng = random.Random(89)
    subsets = [
        blocks
        for r in range(1, len(ALL_BLOCKS) + 1)
        for blocks in itertools.combinations(ALL_BLOCKS, r)
    ]
    for trial in range(6):
        train, context = _random_sources(rng, with_context=trial % 2 == 1)
        sources = [train] + ([context] if context else [])
        areal = rng.choice([800.0, 2500.0])
        stats = _stats(CodedCounts(sources), areal)
        counted = CountedPriorStats(sources, areal)
        stranger = make_language("new", lat=rng.uniform(-60, 60), lon=rng.uniform(-170, 170))
        queries = [(stranger, observed_of(train, train.languages[0].code))]
        if context:
            queries += [(lang, observed_of(context, lang.code)) for lang in context.languages]
        inventories = _inventories(train)
        for blocks, min_support, target in itertools.product(
            subsets, (1, 5), train.features()
        ):
            space = _space(stats, train, target, min_support, blocks)
            oracle = CountedPriorSpace(
                counted, target, inventories[target], inventories, min_support, blocks
            )
            assert len(space) == len(oracle.keys)
            codes, X = _training_design(space, train, target)
            want = np.zeros((len(codes), len(oracle.keys)))
            for i, code in enumerate(codes):
                full = observed_of(train, code)
                want[i] = oracle.dense(
                    language_of(train, code), _others(full, target), own_value=full[target]
                )
            assert np.array_equal(X, want)
            for lang, full in queries:
                observed = _others(full, target)
                assert np.array_equal(_dense(space, lang, observed, areal),
                                      oracle.dense(lang, observed))


def _bench_shaped_sources(rng):
    """A sparse training set shaped like the benchmark's (about a third
    of the cells observed, up to five values per feature), and a context
    set whose languages also observe two features and a value that
    training never observes."""
    train = random_dataset(rng, n_languages=90, n_features=8, n_values=5, p_observed=0.35,
                           min_observed=2)
    extra = random_dataset(rng, n_languages=30, n_features=10, n_values=6, p_observed=0.35,
                           min_observed=2)
    return train, _recoded(extra)


def _bench_shaped_queries(rng, train, context):
    """Query languages with their full observed maps: some training
    languages, every context language, and a stranger observing values
    and a feature that no statistics language observes."""
    queries = [(lang, observed_of(train, lang.code)) for lang in rng.sample(train.languages, 12)]
    queries += [(lang, observed_of(context, lang.code)) for lang in context.languages]
    stranger = make_language("new", lat=rng.uniform(-60, 60), lon=rng.uniform(-170, 170))
    unseen = {f: "zz" for f in train.features()[::3]}
    unseen["99Z Unseen feature"] = "v0"
    queries.append((stranger, {**observed_of(train, train.languages[0].code), **unseen}))
    return queries


def test_dense_matches_gathered_oracle():
    """The query vector read from the fit-time tables equals, bit for
    bit, the one gathered per query, for every block subset, both
    support thresholds and with or without the context counts."""
    rng = random.Random(93)
    train, context = _bench_shaped_sources(rng)
    queries = _bench_shaped_queries(rng, train, context)
    inventories = _inventories(train)
    subsets = [
        blocks
        for r in range(1, len(ALL_BLOCKS) + 1)
        for blocks in itertools.combinations(ALL_BLOCKS, r)
    ]
    compared = 0
    for sources in ([train], [train, context]):
        counts = CodedCounts(sources)
        stats = _stats(counts, 2500.0)
        for blocks, min_support, target in itertools.product(
            subsets, (1, 5), train.features()
        ):
            space = _space(stats, train, target, min_support, blocks)
            oracle = GatheredPriorSpace(
                counts, 2500.0, target, inventories[target], inventories, min_support, blocks
            )
            assert len(space) == oracle.size
            for lang, full in queries:
                observed = _others(full, target)
                assert np.array_equal(_dense(space, lang, observed), oracle.dense(lang, observed))
                compared += 1
            # all queries as one block: the same rows
            block = build_dataset([lang for lang, _ in queries], {
                (lang.code, f): Cell.observed(v)
                for lang, full in queries for f, v in _others(full, target).items()})
            assert np.array_equal(_dense_block(space, block), np.array(
                [oracle.dense(lang, _others(full, target)) for lang, full in queries]))
    assert compared == 2 * 15 * 2 * len(train.features()) * len(queries)


def test_leave_one_out_design_ignores_own_value():
    """A training row's features do not change when only its own target
    value does: genus, family and implicational counts leave it out, and
    the areal and indicator blocks never contain it."""
    rng = random.Random(90)
    checked = 0
    for trial in range(8):
        train = random_dataset(rng, n_languages=12, n_features=3, p_observed=0.9, min_observed=2)
        stats = _stats(train.counts, 2500.0)
        counted = CountedPriorStats([train], 2500.0)
        inventories = _inventories(train)
        for target in train.features():
            base_codes, base_X = _training_design(_space(stats, train, target, 1), train, target)
            oracle = CountedPriorSpace(counted, target, inventories[target], inventories, 1)
            for i, code in enumerate(base_codes):
                own = cells_of(train)[(code, target)].value
                for other in inventories[target]:
                    cells = dict(cells_of(train))
                    cells[(code, target)] = Cell.observed(other)
                    changed = build_dataset(train.languages, cells)
                    if other == own or _inventories(changed)[target] != inventories[target]:
                        continue
                    space = _space(_stats(changed.counts, 2500.0), changed, target, 1)
                    codes, X = _training_design(space, changed, target)
                    assert codes == base_codes
                    assert np.array_equal(X[i], base_X[i])
                    changed_oracle = CountedPriorSpace(
                        CountedPriorStats([changed], 2500.0), target, inventories[target],
                        inventories, 1,
                    )
                    lang = language_of(train, code)
                    observed = _others(observed_of(train, code), target)
                    assert np.array_equal(
                        changed_oracle.dense(lang, observed, own_value=other),
                        oracle.dense(lang, observed, own_value=own),
                    )
                    checked += 1
    assert checked > 50


def test_dense_leaves_out_only_an_observed_own_value():
    """``dense`` has one leave-one-out rule.  The training rows observing
    the target equal the counted oracle with their ``own_value`` left
    out; the same rows with the target columns of their one-hot cleared,
    as a hidden target cell leaves them, equal it with nothing left out."""
    rng = random.Random(96)
    checked = moved = 0
    for trial in range(8):
        train, context = _random_sources(rng, with_context=trial % 2 == 1)
        sources = [train] + ([context] if context else [])
        stats = _stats(CodedCounts(sources), 2500.0)
        counted = CountedPriorStats(sources, 2500.0)
        inventories = _inventories(train)
        for target in train.features():
            space = _space(stats, train, target, min_support=1)
            oracle = CountedPriorSpace(counted, target, inventories[target], inventories, 1)
            codes, loo = _training_design(space, train, target)
            rows = np.array([space.counts.rows[code] for code in codes], dtype=np.intp)
            hidden = space.counts.onehot[rows]
            hidden[:, space._target_columns] = False
            plain = _design(space, rows, hidden)
            for code, got_loo, got_plain in zip(codes, loo, plain):
                full = observed_of(train, code)
                lang, observed = language_of(train, code), _others(full, target)
                assert np.array_equal(got_loo, oracle.dense(lang, observed, own_value=full[target]))
                assert np.array_equal(got_plain, oracle.dense(lang, observed))
                checked += 1
                moved += not np.array_equal(got_loo, got_plain)
    assert checked > 100 and moved > 50


def test_prior_blocks_are_distributions():
    rng = random.Random(85)
    for trial in range(10):
        train = random_dataset(rng, n_languages=rng.randint(4, 12), min_observed=1)
        for code in train.codes():
            lang = language_of(train, code)
            full = observed_of(train, code)
            for target in train.features():
                sparse = _query_sparse(train, lang, _others(full, target), target)
                for group, total in _block_sums(sparse).items():
                    assert total == pytest.approx(1.0), group


def _block_sums(sparse):
    sums = {}
    for key, p in sparse.items():
        if key[0] == "obs":
            continue
        group = key[:-1]  # strip the value component
        sums[group] = sums.get(group, 0.0) + p
    return sums


def test_prior_space_key_order_deterministic():
    rng = random.Random(86)
    train = random_dataset(rng, n_languages=8)
    target = train.features()[0]
    inventories = _inventories(train)
    stats = _stats(train.counts, 2500.0)
    a = PriorFeatureSpace(*stats, target, inventories[target], inventories, 5, ALL_BLOCKS)
    b = PriorFeatureSpace(*stats, target, inventories[target], inventories, 5, ALL_BLOCKS)
    keys = _oracle_keys(CountedPriorStats([train], 2500.0), train, target)
    assert len(a) == len(b) == len(keys)
    assert np.array_equal(_training_design(a, train, target)[1],
                          _training_design(b, train, target)[1])


def test_dense_agrees_with_sparse():
    rng = random.Random(87)
    train = random_dataset(rng, n_languages=8, min_observed=1)
    target = train.features()[0]
    space = _space(_stats(train.counts, 2500.0), train, target, min_support=1)
    keys = _oracle_keys(CountedPriorStats([train], 2500.0), train, target, min_support=1)
    for lang in train.languages:
        observed = _others(observed_of(train, lang.code), target)
        sparse = build_prior_features(train, lang, observed, target, min_support=1)
        dense = _dense(space, lang, observed)
        assert np.count_nonzero(dense) == len(sparse)
        for key, p in sparse.items():
            assert dense[keys.index(key)] == p


def test_isolated_language_has_no_areal_block():
    languages = [
        make_language("aaa", lat=0.0, lon=0.0),
        make_language("bbb", lat=0.5, lon=0.5),
        make_language("far", lat=-60.0, lon=170.0),
    ]
    cells = {
        ("aaa", "T"): Cell.observed("x"),
        ("bbb", "T"): Cell.observed("y"),
        ("far", "T"): Cell.observed("x"),
    }
    train = build_dataset(languages, cells)
    sparse = _query_sparse(train, language_of(train, "far"), {}, "T", areal_km=1000.0)
    assert not any(key[0] == "areal" for key in sparse)
    near = _query_sparse(train, language_of(train, "aaa"), {}, "T", areal_km=1000.0)
    assert near[("areal", "y")] == 1.0  # bbb only; self excluded


def test_leave_one_out_removes_own_observation():
    languages = [
        make_language("la1", genus="GenA", family="FamX"),
        make_language("la2", genus="GenA", family="FamX"),
        make_language("la3", genus="GenA", family="FamX"),
    ]
    cells = {
        ("la1", "T"): Cell.observed("x"),
        ("la2", "T"): Cell.observed("y"),
        ("la3", "T"): Cell.observed("y"),
    }
    train = build_dataset(languages, cells)
    space = _space(_stats(train.counts, 2500.0), train, "T")
    keys = _oracle_keys(CountedPriorStats([train], 2500.0), train, "T")

    # query case keeps all three observations
    plain = _as_sparse(keys, _dense(space, language_of(train, "la1"), {}))
    assert plain[("genus", "x")] == pytest.approx(1 / 3)
    assert plain[("genus", "y")] == pytest.approx(2 / 3)

    # training row for la1 drops its own x
    codes, X = _training_design(space, train, "T")
    loo = _as_sparse(keys, X[codes.index("la1")])
    assert ("genus", "x") not in loo
    assert loo[("genus", "y")] == pytest.approx(1.0)


def _hiding_test_set(train, languages):
    """``languages`` observing the first feature's first training value
    and hiding every other feature; with the cells ``predict`` answers."""
    features = train.features()
    first = train.counts.columns[features[0]]
    test = build_dataset(languages, {
        (lang.code, f): Cell.observed(next(iter(first))) if f == features[0] else Cell.blanked("x")
        for lang in languages for f in features})
    return test, np.flatnonzero(test.cell_state != OBSERVED_CODE)


def test_query_neighbourhood_scanned_once_per_language(monkeypatch):
    """Each ``predict`` call computes one kernel row per test language
    that is not a statistics language, against every statistics
    language, and none for a statistics language, which reads its
    fit-time row."""
    rng = random.Random(91)
    train = random_dataset(rng, n_languages=10, min_observed=2)
    n = len(train.languages)
    imp = RidgePriorImputer(min_support=1).fit(train)
    calls = []

    def counted(a, b):
        calls.append((len(a), len(b)))
        return distance_matrix(a, b)

    monkeypatch.setattr(ridge, "distance_matrix", counted)
    strangers = [make_language(f"q{i}", lat=10.0 * i, lon=20.0) for i in range(3)]
    test, cells = _hiding_test_set(train, [*strangers, *train.languages[:2]])
    for _ in range(2):
        calls.clear()
        answers = imp.predict(test, cells)
        assert len(answers) == len(cells)
        assert sum(rows for rows, _ in calls) == len(strangers)
        assert all(width == n for _, width in calls)
    calls.clear()
    test, cells = _hiding_test_set(train, train.languages)
    imp.predict(test, cells)
    assert calls == []


@pytest.mark.parametrize("blocks,passes", [
    (("genetic", "implicational"), 0),
    (("genetic", "areal"), 1),
], ids=["no-areal", "areal"])
def test_fit_computes_radius_counts_only_for_the_areal_block(monkeypatch, blocks, passes):
    rng = random.Random(93)
    train = random_dataset(rng, n_languages=30, min_observed=2)
    n = len(train.languages)
    made = []

    def counted(a, b):
        made.append((len(a), len(b)))
        return distance_matrix(a, b)

    monkeypatch.setattr(ridge, "distance_matrix", counted)
    monkeypatch.setattr(ridge, "_KERNEL_BLOCK", 7 * n)  # blocks of 7 rows
    RidgePriorImputer(min_support=1, blocks=blocks).fit(train)
    # each statistics language's kernel row once, against every language
    assert sum(rows for rows, _ in made) == n * passes
    assert all(width == n for _, width in made)


@pytest.mark.parametrize("rows_per_block", [1, 4, 7, 22, 23, 100])
def test_blocked_radius_counts_match_one_shot_oracle(monkeypatch, rows_per_block):
    """The int32 radius counts equal, bit for bit, those of one full
    kernel: over every statistics language, each leaving itself out,
    and over query points: strangers, statistics languages leaving
    themselves out in any order, and points at a statistics language's
    coordinates under a new code, one of them exactly on the radius of
    another language."""
    rng = random.Random(94)
    counts = random_dataset(rng, n_languages=23, min_observed=2).counts
    n = len(counts.languages)
    # the first and the last language lie exactly on the radius of each
    # other, in the first and the last (ragged) block
    km = float(distance_matrix(counts.coords[:1], counts.coords[-1:])[0, 0])
    assert not np.array_equal(one_shot_radius_counts(counts.coords, counts.onehot, km),
                              one_shot_radius_counts(counts.coords, counts.onehot,
                                                     np.nextafter(km, 0.0)))
    strangers = np.array([[rng.uniform(-60, 60), rng.uniform(-170, 170)] for _ in range(5)])
    own = np.array([-1, 5, -1, -1, n - 1, 3, -1, 0, -1, -1, -1], dtype=np.intp)
    points = np.vstack([counts.coords[[0, 5]], strangers[:2], counts.coords[[n - 1, 3, 3, 0]],
                        strangers[2:]])
    made = []

    def counted(a, b):
        made.append(len(a))
        return distance_matrix(a, b)

    monkeypatch.setattr(ridge, "distance_matrix", counted)
    monkeypatch.setattr(ridge, "_KERNEL_BLOCK", rows_per_block * n)
    step = min(rows_per_block, n)
    for points, own in ((counts.coords, np.arange(n)), (points, own)):
        made.clear()
        areal = _radius_counts(counts, points, km, own)
        assert areal.dtype == np.int32
        assert np.array_equal(areal, one_shot_radius_counts(counts.coords, counts.onehot, km,
                                                             points, own))
        m = len(points)
        assert made == [step] * (m // step) + ([m % step] if m % step else [])
    # a new code at the first language's coordinates counts the last,
    # exactly on the radius, and the first language itself
    assert np.array_equal(areal[0], areal[7] + counts.onehot[0])
    assert not np.array_equal(areal[0], _radius_counts(counts, points[:1],
                                                       np.nextafter(km, 0.0), own[:1])[0])


def test_radius_counts_peak_memory_is_linear_in_the_languages():
    """No languages x languages kernel: the ``tracemalloc`` peak of the
    radius counts over 1,500 languages stays within four int32 copies of
    the one-hot plus four float temporaries of one kernel block."""
    import tracemalloc

    rng = random.Random(95)
    counts = random_dataset(rng, n_languages=1500, min_observed=2).counts
    own = np.arange(len(counts.languages))
    tracemalloc.start()
    try:
        _radius_counts(counts, counts.coords, 2500.0, own)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 4 * counts.onehot.size + 4 * 8 * ridge._KERNEL_BLOCK


def test_radius_counts_make_no_float_copy_of_the_one_hot():
    """On a one-hot wider than a kernel block, the counts are int32 and
    no float copy of the whole one-hot exists: the ``tracemalloc`` peak
    stays within one int32 copy plus four float kernel blocks, below a
    float copy plus the int32 counts."""
    import tracemalloc

    rng = random.Random(96)
    counts = random_dataset(rng, n_languages=600, n_features=120, n_values=4,
                            p_observed=0.3).counts
    own = np.arange(len(counts.languages))
    assert 8 * counts.onehot.size > 4 * 8 * ridge._KERNEL_BLOCK
    tracemalloc.start()
    try:
        areal = _radius_counts(counts, counts.coords, 2500.0, own)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert areal.dtype == np.int32
    assert peak <= 4 * counts.onehot.size + 4 * 8 * ridge._KERNEL_BLOCK


def test_predict_peak_memory_is_below_a_float_copy_of_the_one_hot():
    """A no-context ``predict`` counts the neighbours of test languages
    that are not statistics languages one block of one-hot columns at a
    time: over 1,500 statistics languages its ``tracemalloc`` peak stays
    below one float64 copy of the one-hot."""
    import tracemalloc

    rng = random.Random(102)
    train = random_dataset(rng, n_languages=1500, n_features=60, n_values=4, p_observed=0.3,
                           min_observed=2)
    imp = RidgePriorImputer(blocks=("genetic", "areal")).fit(train)
    strangers = [make_language(f"q{i}", lat=rng.uniform(-60, 60), lon=rng.uniform(-170, 170))
                 for i in range(5)]
    test, cells = _hiding_test_set(train, strangers)
    onehot_bytes = 8 * train.counts.onehot.size
    assert onehot_bytes > 4 * 8 * ridge._KERNEL_BLOCK
    tracemalloc.start()
    try:
        answers = imp.predict(test, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(answers, Answers) and sorted(answers.cell.tolist()) == cells.tolist()
    assert peak < onehot_bytes


def test_predict_holds_one_block_of_prior_vectors(monkeypatch):
    """On one wide target, ``predict`` builds the dense prior vectors of
    a block of test rows at a time: from 40 to 160 test rows its
    ``tracemalloc`` peak grows by less than the vectors of 30 rows, a
    quarter of the rows added, while the coded test rows still grow."""
    import tracemalloc

    rng = random.Random(105)
    train = random_dataset(rng, n_languages=200, n_features=30, n_values=4, p_observed=0.6,
                           min_observed=2)
    target = train.features()[0]
    cells = cells_of(train)
    for i, code in enumerate(train.codes()):
        cells[(code, target)] = Cell.observed(f"t{i % 8}")
    train = build_dataset(train.languages, cells)
    imp = RidgePriorImputer(min_support=1).fit(train)
    width = len(imp._fitted[target].space)
    monkeypatch.setattr(ridge, "_PREDICT_BLOCK", 10 * width)  # blocks of 10 rows
    peaks = []
    for n in (40, 160):
        codes = train.codes()[:n]
        test = build_dataset(train.languages[:n], {
            (code, f): Cell.unknown() if f == target else cell
            for (code, f), cell in cells_of(train).items() if code in codes})
        hidden = np.flatnonzero(test.cell_state != OBSERVED_CODE)
        tracemalloc.start()
        try:
            answers = imp.predict(test, hidden)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(answers) == n
    assert width > 8 * train.counts.onehot.shape[1]
    assert peaks[1] - peaks[0] < 30 * 8 * width


def test_query_at_statistics_coordinates_shares_its_neighbourhood():
    """A query language placed exactly at a statistics language's
    coordinates gets that language's fit-time areal counts plus the
    language itself, also when a neighbour lies exactly on the radius;
    where the language does not observe the target, the areal blocks
    are byte-equal."""
    rng = random.Random(92)
    train = random_dataset(rng, n_languages=40, p_observed=0.5, min_observed=2)
    counts = train.counts
    langs = train.languages
    compared = 0
    for _ in range(30):
        s, t = rng.sample(range(len(langs)), 2)
        # t sits exactly on the radius around s
        radius = haversine_km(langs[s], langs[t])
        stats = _stats(counts, radius)
        counted = CountedPriorStats([train], radius)
        row = counts.rows[langs[s].code]
        query = replace(langs[s], code="qqq")
        assert np.array_equal(_radius_counts(counts, coordinates([query]), radius, np.array([-1])),
                              stats[1][row:row + 1] + counts.onehot[row])
        observed = observed_of(train, langs[s].code)
        for target in train.features():
            if target in observed:
                continue
            space = _space(stats, train, target, min_support=1)
            keys = _oracle_keys(counted, train, target, 1)
            areal = [i for i, key in enumerate(keys) if key[0] == "areal"]
            got = _dense(space, query, observed, radius)[areal]
            want = _dense(space, langs[s], observed, radius)[areal]
            assert got.tobytes() == want.tobytes()
            compared += 1
    assert compared > 20


# ---------------------------------------------------------------------------
# the fitted imputer


def _implication_fixture(n_per=3):
    """Singleton genera so only implication and indicators carry signal."""
    mapping = {"a0": "b2", "a1": "b0", "a2": "b1"}
    languages = []
    cells = {}
    i = 0
    for a, b in sorted(mapping.items()):
        for _ in range(n_per):
            code = f"l{i:02d}"
            languages.append(
                make_language(code, genus=f"Gen{i}", family=f"Fam{i}",
                              lat=float(i * 7 % 120 - 60), lon=float(i * 31 % 340 - 170))
            )
            cells[(code, "A")] = Cell.observed(a)
            cells[(code, "T")] = Cell.observed(b)
            i += 1
    return build_dataset(languages, cells), mapping


def test_implication_learned_through_ridge():
    train, mapping = _implication_fixture(n_per=3)
    imp = RidgePriorImputer(min_support=5, areal_km=1.0)
    imp.fit(train)
    for a, b in mapping.items():
        pred = predict_one(imp, make_language("qqq", genus="GQ", family="FQ"), {"A": a}, "T")
        assert pred.value == b
        assert pred.source == "ridge"
        assert 0.0 <= pred.confidence <= 1.0


def test_indicators_only_blocks():
    train, mapping = _implication_fixture(n_per=3)
    imp = RidgePriorImputer(blocks=("indicators",), areal_km=1.0)
    imp.fit(train)
    for a, b in mapping.items():
        pred = predict_one(imp, make_language("qqq", genus="GQ", family="FQ"), {"A": a}, "T")
        assert pred.value == b


def test_unknown_block_rejected():
    with pytest.raises(ValueError, match="unknown prior blocks"):
        RidgePriorImputer(blocks=("genetic", "bogus"))


def test_single_value_inventory_constant_prediction():
    languages = [make_language(f"l{i:02d}") for i in range(4)]
    cells = {(lang.code, "T"): Cell.observed("only") for lang in languages}
    cells[("l00", "U")] = Cell.observed("u1")
    cells[("l01", "U")] = Cell.observed("u2")
    train = build_dataset(languages, cells)
    imp = RidgePriorImputer()
    imp.fit(train)
    pred = predict_one(imp, make_language("qqq"), {}, "T")
    assert pred == (pred.__class__(value="only", confidence=1.0, source="ridge-constant"))


def test_unseen_feature_has_no_prediction():
    train, _ = _implication_fixture()
    imp = RidgePriorImputer()
    imp.fit(train)
    assert predict_one(imp, make_language("qqq"), {}, "Z") is None


def test_context_counts_change_the_prior():
    train_langs = []
    cells = {}
    for i in range(4):
        code = f"g1{i}"
        train_langs.append(make_language(code, genus="G1", family="F1", lat=float(i), lon=0.0))
        cells[(code, "T")] = Cell.observed("aa")
    for i in range(3):
        code = f"g2{i}"
        train_langs.append(make_language(code, genus="G2", family="F2", lat=float(i), lon=5.0))
        cells[(code, "T")] = Cell.observed("bb")
    train = build_dataset(train_langs, cells)

    ctx_langs = [
        make_language(f"cq{i}", genus="GenQ", family="FamQ", lat=-60.0 - i, lon=-170.0)
        for i in range(3)
    ]
    context = build_dataset(ctx_langs, {(l.code, "T"): Cell.observed("bb") for l in ctx_langs})

    qlang = make_language("qry", genus="GenQ", family="FamQ", lat=-61.0, lon=-169.0)

    plain = RidgePriorImputer(use_context=False).fit(train, context=context)
    assert predict_one(plain, qlang, {}, "T").value == "aa"  # global majority wins

    folded = RidgePriorImputer(use_context=True).fit(train, context=context)
    assert predict_one(folded, qlang, {}, "T").value == "bb"  # genus and areal context win


def test_context_fit_builds_no_training_table():
    """With ``use_context`` the training set's own table is never built:
    the inventories are the values the folded table's training rows
    observe, so context-only features and values get no regressor."""
    rng = random.Random(97)
    train, context = _bench_shaped_sources(rng)
    imp = RidgePriorImputer(min_support=1, use_context=True).fit(train, context=context)
    assert "counts" not in vars(train)
    assert {target: fitted.space.inventory for target, fitted in imp._fitted.items()} == \
        {f: tuple(values) for f, values in train.counts.columns.items()}


# ---------------------------------------------------------------------------
# the dual solve from the count tables


def _design_fit(space, target, rows, lam):
    """``solve_ridge`` over the dense design of ``rows``: weights (one row
    per value of ``target``) and biases."""
    counts = space.counts
    own = counts.onehot[np.ix_(rows, [counts.columns[target][v] for v in space.inventory])]
    w, b = solve_ridge(_design(space, rows), np.where(own, 1.0, -1.0), lam)
    return w.T, b


def _dual_fit(space, target, rows, lam):
    """``space.solve_dual`` over ``rows`` sorted by their ``target`` value."""
    counts = space.counts
    own = counts.onehot[np.ix_(rows, [counts.columns[target][v] for v in space.inventory])]
    y = own.argmax(axis=1)
    order = np.argsort(y, kind="stable")
    return space.solve_dual(rows[order], y[order], lam)


def _assert_close_fit(got, want):
    # rtol on every entry; the targets are +/-1, and the atol absorbs
    # only entries that are zero up to rounding (the weight of a column
    # constant over the rows, the bias of balanced values)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12)


def _target_rows(space, target, n_train):
    counts = space.counts
    columns = list(counts.columns[target].values())
    return np.flatnonzero(counts.onehot[:n_train, columns].any(axis=1))


def test_dual_fit_matches_design_solve():
    """Every subset of blocks, with and without context-only features
    and values, keys that only the row itself sees with the target,
    and ``min_support`` leaving no implicational key:
    the weights and biases from the count tables equal the dense
    design's primal ``solve_ridge`` at rtol 1e-9, also where a value has one
    row or none."""
    rng = random.Random(98)
    subsets = [blocks for r in range(1, len(ALL_BLOCKS) + 1)
               for blocks in itertools.combinations(ALL_BLOCKS, r)]
    lonely_keys = no_impl = one_row_classes = 0
    for trial in range(8):
        train, context = _random_sources(rng, with_context=trial % 2 == 1)
        sources = [train] + ([context] if context else [])
        counts = CodedCounts(sources)
        stats = _stats(counts, rng.choice([800.0, 2500.0]))
        inventories = _inventories(train)
        n_train = len(train.languages)
        for blocks, min_support, target in itertools.product(
            subsets, (1, 5, 10**6), train.features()
        ):
            if len(inventories[target]) < 2:
                continue
            space = PriorFeatureSpace(*stats, target, inventories[target], inventories,
                                      min_support, blocks)
            if len(space) == 0:
                continue
            lam = rng.choice([0.1, 1.0, 100.0])
            rows = _target_rows(space, target, n_train)
            _assert_close_fit(_dual_fit(space, target, rows, lam),
                              _design_fit(space, target, rows, lam))
            # the rows of the first value alone: every other class is empty
            column = counts.columns[target][space.inventory[0]]
            first = rows[counts.onehot[rows, column]]
            _assert_close_fit(_dual_fit(space, target, first, lam),
                              _design_fit(space, target, first, lam))
            impl_columns = np.flatnonzero(space._impl_key >= 0)
            observed = counts.joint[impl_columns, space._target_columns].sum(axis=1)
            lonely_keys += int((observed == 1).sum())
            no_impl += "implicational" in blocks and not len(impl_columns)
            own = counts.onehot[rows, space._target_columns].sum(axis=0)
            one_row_classes += int((own == 1).sum())
    assert lonely_keys and no_impl and one_row_classes


def test_dual_fit_predicts_as_the_design_solve():
    """The imputer's predictions with its dual weights equal those with
    the dense design's weights, with and without context."""
    rng = random.Random(99)
    train, context = _bench_shaped_sources(rng)
    queries = build_dataset(
        [*train.languages, *context.languages],
        {(lang.code, f): Cell.observed(v) for source in (train, context)
         for lang in source.languages for f, v in observed_of(source, lang.code).items()},
    )
    cells = np.arange(len(queries.cell_row))
    compared = 0
    for use_context in (False, True):
        imp = RidgePriorImputer(min_support=1, use_context=use_context).fit(train, context=context)
        dense = RidgePriorImputer(min_support=1, use_context=use_context)
        dense._counts, dense._areal = imp._counts, imp._areal
        dense._fitted = {}
        n_train = len(train.languages)
        for target, fitted in imp._fitted.items():
            if len(fitted.space.inventory) > 1:
                rows = _target_rows(fitted.space, target, n_train)
                assert len(fitted.space) > len(rows)  # every target takes the dual path
                weights, biases = _design_fit(fitted.space, target, rows, imp.lam)
                _assert_close_fit((fitted.weights, fitted.biases), (weights, biases))
                fitted = replace(fitted, weights=weights, biases=biases)
            dense._fitted[target] = fitted
        got = answer_map(imp.predict(queries, cells))
        want = answer_map(dense.predict(queries, cells))
        assert got.keys() == want.keys()
        assert [p.value for p in got.values()] == [p.value for p in want.values()]
        compared += len(got)
    assert compared > 700


@pytest.mark.parametrize("use_context", [False, True], ids=["train", "context"])
def test_ridge_answers_do_not_depend_on_the_batch(use_context):
    """A language filled alone gets the answers, confidences included,
    that it gets among all the test languages.  A BLAS product of a
    target's whole block picks its kernel by the block's shape, which
    moves the last bits of some scores with the number of languages
    that share the target."""
    rng = random.Random(101)
    train, context = _bench_shaped_sources(rng)
    test = blank_some(context, rng, per_language=3)
    imp = RidgePriorImputer(min_support=1, use_context=use_context).fit(train, context=test)
    full = predictions_of(imp, test)
    alone = {}
    for code in test.codes():
        alone.update(predictions_of(imp, test.subset([code])))
    assert len(full) > 50
    assert alone == full


def test_fit_builds_the_design_only_for_narrow_targets(monkeypatch):
    """A target with more columns than training rows is fitted from the
    count tables, never its design; a narrower one stacks its design with
    ``dense``, once."""
    rng = random.Random(100)
    train = random_dataset(rng, n_languages=60, n_features=6, min_observed=2)
    built = []
    dense = PriorFeatureSpace.dense

    def recorded(space, *args):
        X = dense(space, *args)
        built.append(X.shape)
        return X

    monkeypatch.setattr(PriorFeatureSpace, "dense", recorded)
    imp = RidgePriorImputer(min_support=1).fit(train)
    assert built == []
    RidgePriorImputer(min_support=1, blocks=("genetic", "areal")).fit(train)
    assert len(built) == len(train.features())
    assert all(d <= n for n, d in built)


def test_indicators_fit_takes_both_the_primal_and_the_dual_route(monkeypatch):
    """With ``blocks=indicators`` a target observed by more languages
    than the other features have values is solved by ``solve_ridge``, and
    a rarely observed one by ``solve_dual``: neither route can vanish."""
    rng = random.Random(102)
    train = random_dataset(rng, n_languages=40, n_features=8, p_observed=0.7)
    cells = cells_of(train)
    rare = train.features()[0]
    for code in train.codes()[8:]:
        cells.pop((code, rare), None)
    train = build_dataset(train.languages, cells)
    routes = []
    primal, dual = ridge.solve_ridge, PriorFeatureSpace.solve_dual
    monkeypatch.setattr(ridge, "solve_ridge",
                        lambda X, y, lam: routes.append("primal") or primal(X, y, lam))
    monkeypatch.setattr(PriorFeatureSpace, "solve_dual",
                        lambda space, rows, y, lam: routes.append("dual") or dual(space, rows, y, lam))
    RidgePriorImputer(min_support=1, blocks=("indicators",)).fit(train)
    assert routes.count("dual") == 1
    assert routes.count("primal") == len(train.features()) - 1


def test_dual_fit_peak_memory_is_below_the_dense_design():
    """The ``tracemalloc`` peak of fitting one wide target from the count
    tables stays below the size of its dense float design."""
    import tracemalloc

    rng = random.Random(101)
    train = random_dataset(rng, n_languages=150, n_features=100, n_values=4, p_observed=0.5)
    stats = _stats(train.counts, 2500.0)
    inventories = _inventories(train)
    target = train.features()[0]
    space = PriorFeatureSpace(*stats, target, inventories[target], inventories, 1, ALL_BLOCKS)
    rows = _target_rows(space, target, len(train.languages))
    y = train.counts.onehot[rows, space._target_columns].argmax(axis=1)
    order = np.argsort(y, kind="stable")
    rows, y = rows[order], y[order]
    design_bytes = 8 * len(rows) * len(space)
    assert len(space) > 4 * len(rows)
    train.counts.joint, train.counts.genus, train.counts.family  # noqa: B018  (cached tables)
    tracemalloc.start()
    try:
        space.solve_dual(rows, y, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < design_bytes


def _dominant_target(seed, n_languages, n_features):
    """The space and training rows of a target that every language
    observes: one row of value v1, three in four of the others v0 and
    the rest v2."""
    rng = random.Random(seed)
    train = random_dataset(rng, n_languages=n_languages, n_features=n_features, n_values=4,
                           p_observed=0.5)
    target = train.features()[0]
    cells = cells_of(train)
    for i, code in enumerate(train.codes()):
        cells[(code, target)] = Cell.observed("v1" if i == 0 else "v0" if i % 4 else "v2")
    train = build_dataset(train.languages, cells)
    inventories = _inventories(train)
    space = PriorFeatureSpace(*_stats(train.counts, 2500.0), target, inventories[target],
                              inventories, 1, ALL_BLOCKS)
    return space, target, _target_rows(space, target, len(train.languages))


def _key_count(space):
    """The number of one-hot columns holding an implicational or
    indicator key: the width of the Gram's key products."""
    return int(((space._impl_key >= 0) | (space._obs_key >= 0)).sum())


def _counting_tiles(monkeypatch):
    """The set that collects, as (start, stop), the row tiles of the
    one-hot that each later ``_add_key_products`` call reads."""
    tiles = set()

    class Tiled(np.ndarray):
        def __getitem__(self, rows):
            tiles.add((rows.start, rows.stop))
            return np.asarray(self)[rows]

    add = ridge._add_key_products
    monkeypatch.setattr(ridge, "_add_key_products",
                        lambda gram, onehot, *args: add(gram, onehot.view(Tiled), *args))
    return tiles


@pytest.mark.parametrize("tile_rows", [1, 7, 20, 80])
def test_dual_fit_tiles_are_bit_exact(monkeypatch, tile_rows):
    """Tiles of 1 row, 7 rows, fewer rows than the dominant class and
    more rows than a whole class give the very weights and biases of the
    default budget, whose one tile holds every row, and match the dense
    design's solve at rtol 1e-9."""
    space, target, rows = _dominant_target(103, n_languages=90, n_features=8)
    sizes = np.bincount(space.counts.onehot[rows, space._target_columns].argmax(axis=1))
    assert sorted(sizes.tolist()) == [1, 22, 67] and len(space) > len(rows)
    assert ridge._TILE_BLOCK // _key_count(space) >= len(rows)
    tiles = _counting_tiles(monkeypatch)
    want = _dual_fit(space, target, rows, 1.0)
    assert len(tiles) == 3  # one per value
    tiles.clear()
    monkeypatch.setattr(ridge, "_TILE_BLOCK", tile_rows * _key_count(space))
    weights, biases = _dual_fit(space, target, rows, 1.0)
    assert len(tiles) > 3
    assert np.array_equal(weights, want[0]) and np.array_equal(biases, want[1])
    _assert_close_fit((weights, biases), _design_fit(space, target, rows, 1.0))


def test_dual_fit_peak_memory_is_the_gram_and_kernel_blocks():
    """On a wide target of 400 rows with a dominant value, the
    ``tracemalloc`` peak of ``solve_dual`` stays within the rows x rows
    Gram matrix plus four float kernel blocks: no class x class block, no
    weighted float copy of a class and no float cast of one."""
    import tracemalloc

    space, target, rows = _dominant_target(104, n_languages=400, n_features=100)
    own = space.counts.onehot[rows, space._target_columns]
    y = own.argmax(axis=1)
    order = np.argsort(y, kind="stable")
    rows, y = rows[order], y[order]
    n = len(rows)
    assert len(space) > n > ridge._KERNEL_BLOCK // _key_count(space)
    space.counts.joint, space.counts.genus, space.counts.family  # noqa: B018  (cached tables)
    tracemalloc.start()
    try:
        space.solve_dual(rows, y, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n + 4 * 8 * ridge._KERNEL_BLOCK


def test_dual_coefficients_ignore_blas_thread_count():
    """The Gram matrix that ``solve_dual`` builds for a target of 500
    rows, and the dual coefficients it solves for, have the same bytes
    at 1 and 2 BLAS threads.  A threaded ``lead @ lead.T`` moved the last
    bit of some Gram entries at this shape."""
    probe = "\n".join([
        "import hashlib",
        "import numpy as np",
        "from test_ridge import _dominant_target",
        "from typoimpute.imputers import ridge",
        "space, target, rows = _dominant_target(104, n_languages=500, n_features=40)",
        "y = space.counts.onehot[rows, space._target_columns].argmax(axis=1)",
        "order = np.argsort(y, kind='stable')",
        "assert len(space) > len(rows) == 500",
        "solve = ridge._solve_in_place",
        "def solved(A, B):",
        "    print(hashlib.sha256(A.tobytes()).hexdigest())",
        "    x = solve(A, B)",
        "    print(hashlib.sha256(x.tobytes()).hexdigest())",
        "    return x",
        "ridge._solve_in_place = solved",
        "space.solve_dual(rows[order], y[order], 1.0)",
    ])
    digests = [_run_child(probe, threads) for threads in ("1", "2")]
    assert digests[0].count("\n") == 2 and digests[0] == digests[1]


def test_dual_fit_holds_one_gram_matrix_at_wals_scale():
    """``tracemalloc`` does not see the buffers that LAPACK's callers
    take from ``malloc``, such as a copy of the whole Gram matrix; the
    process's ``VmHWM`` does.  In a child, on a wide target of 1,400
    rows, ``solve_dual`` raises it by less than 1.25 Gram matrices plus
    4 MB, once the count tables and the BLAS buffers are in place."""
    probe = "\n".join([
        "import numpy as np",
        "from test_ridge import _dominant_target",
        "def status(key):",
        "    with open('/proc/self/status') as f:",
        "        return next(int(line.split()[1]) for line in f if line.startswith(key + ':'))",
        "space, target, rows = _dominant_target(105, n_languages=1400, n_features=100)",
        "y = space.counts.onehot[rows, space._target_columns].argmax(axis=1)",
        "order = np.argsort(y, kind='stable')",
        "space.counts.joint, space.counts.genus, space.counts.family",
        "np.linalg.solve(np.eye(100) + 1.0, np.ones((100, 3)))",
        "np.ones((600, 600)) @ np.ones((600, 600))",
        "rss = status('VmRSS')",
        "space.solve_dual(rows[order], y[order], 1.0)",
        "print(len(rows), len(space), 1024 * (status('VmHWM') - rss))",
    ])
    n, width, rise = map(int, _run_child(probe, "1").split())
    assert width > n == 1400
    assert rise < 1.25 * 8 * n * n + (4 << 20)


def test_softmax_confidence_well_formed():
    rng = random.Random(88)
    train = random_dataset(rng, n_languages=10, min_observed=1)
    imp = RidgePriorImputer(min_support=1)
    imp.fit(train)
    for code in train.codes():
        lang = language_of(train, code)
        full = observed_of(train, code)
        for target in train.features():
            observed = {f: v for f, v in full.items() if f != target}
            pred = predict_one(imp, lang, observed, target)
            assert 0.0 < pred.confidence <= 1.0
            scores = _scores(imp, lang, observed, target)
            best = min(scores, key=lambda v: (-scores[v], v))
            assert pred.value == best


def test_predict_matches_sorted_softmax_oracle():
    """Value, confidence and source of ``predict`` equal those of the
    score dict, sorted for the softmax: the value wherever the top two
    scores are more than 1e-9 apart and on exact ties, the confidence up
    to rounding, also on a one-value inventory."""
    rng = random.Random(94)
    train, context = _bench_shaped_sources(rng)
    queries = _bench_shaped_queries(rng, train, context)
    stranger = queries[-1][0]
    languages = [make_language(f"o{i:02d}") for i in range(4)]
    only = build_dataset(languages, {(lang.code, "T"): Cell.observed("only") for lang in languages})
    for use_context in (False, True):
        imp = RidgePriorImputer(min_support=1, use_context=use_context)
        imp.fit(train, context=context)
        fitted = next(f for f in imp._fitted.values() if len(f.space.inventory) >= 3)
        n_values = len(fitted.space.inventory)
        # weights of zero leave the biases as scores: a tie between the
        # second and the last value, and a tie between all values
        zero = np.zeros_like(fitted.weights)
        pair = np.zeros(n_values)
        pair[[1, -1]] = 0.5
        imp._fitted["tie-pair"] = replace(fitted, weights=zero, biases=pair)
        imp._fitted["tie-all"] = replace(fitted, weights=zero, biases=np.full(n_values, 0.3))
        for target in imp._fitted:
            for lang, full in queries:
                observed = _others(full, target)
                pred = predict_one(imp, lang, observed, target)
                scores = _scores(imp, lang, observed, target)
                value, confidence, source = ridge_prediction_oracle(scores)
                top = sorted(scores.values())[-2:]
                if len(top) < 2 or top[1] - top[0] > 1e-9 or top[1] == top[0]:
                    assert pred.value == value
                assert (pred.confidence, pred.source) == (pytest.approx(confidence), source)
        assert predict_one(imp, stranger, {}, "tie-pair").value == fitted.space.inventory[1]
        assert predict_one(imp, stranger, {}, "tie-all") == Answer(
            fitted.space.inventory[0], 1.0 / n_values, "ridge")
        constant = RidgePriorImputer(use_context=use_context).fit(only, context=context)
        pred = predict_one(constant, stranger, {}, "T")
        assert (pred.value, pred.confidence, pred.source) == \
            ridge_prediction_oracle(_scores(constant, stranger, {}, "T")) == \
            ("only", 1.0, "ridge-constant")


def test_fill_dataset_with_ridge():
    train, mapping = _implication_fixture(n_per=4)
    languages = []
    cells = {}
    for i, (a, b) in enumerate(sorted(mapping.items())):
        code = f"t{i:02d}"
        languages.append(make_language(code, genus=f"TG{i}", family=f"TF{i}"))
        cells[(code, "A")] = Cell.observed(a)
        cells[(code, "T")] = Cell.blanked(b)
    test = build_dataset(languages, cells)
    imp = RidgePriorImputer(areal_km=1.0)
    imp.fit(train)
    filled = fill_dataset(imp, test)
    assert cells_of(filled) == {key: Cell.observed(cell.value) for key, cell in cells_of(test).items()}


def test_fit_matches_counted_oracle():
    rng = random.Random(92)
    compared = 0
    for trial in range(12):
        train, context = _random_sources(rng, with_context=trial % 2 == 1)
        blocks = ALL_BLOCKS if trial % 3 else ("genetic", "implicational")
        min_support = rng.choice([1, 5])
        imp = RidgePriorImputer(min_support=min_support, blocks=blocks,
                                use_context=context is not None)
        imp.fit(train, context=context)
        want = counted_ridge_fit(train, context, min_support=min_support, blocks=blocks)
        queries = [(lang, observed_of(train, lang.code)) for lang in train.languages]
        if context:
            queries += [(lang, observed_of(context, lang.code)) for lang in context.languages]
        for target, (space, weights, biases) in want.items():
            fitted = imp._fitted[target]
            assert fitted.weights.shape == weights.shape
            assert np.allclose(fitted.weights, weights, rtol=0.0, atol=1e-9)
            assert np.allclose(fitted.biases, biases, rtol=0.0, atol=1e-9)
            for lang, full in queries:
                observed = _others(full, target)
                raw = weights @ space.dense(lang, observed) + biases
                # the argmax is defined only where the top two scores are
                # further apart than the weights may differ
                top = np.sort(raw)[-2:]
                if len(top) == 2 and top[1] - top[0] > 1e-6:
                    assert predict_one(imp, lang, observed, target).value == \
                        fitted.space.inventory[int(np.argmax(raw))]
                    compared += 1
    assert compared > 200


def test_primal_fit_of_genetic_and_areal_blocks_matches_counted_oracle(monkeypatch):
    """With ``blocks=genetic,areal`` every target has fewer columns than
    training rows, so ``fit`` solves each with ``solve_ridge`` over
    ``dense``, which reads only the target's radius-count columns.  The
    weights and biases equal the counted oracle's at rtol 1e-9, and the
    answers for training and unseen languages are the oracle's."""
    primal = []
    monkeypatch.setattr(ridge, "solve_ridge",
                        lambda X, y, lam, solve=ridge.solve_ridge: primal.append(1) or solve(X, y, lam))
    monkeypatch.setattr(PriorFeatureSpace, "solve_dual", lambda *args: pytest.fail("dual route"))
    rng = random.Random(111)
    blocks = ("genetic", "areal")
    compared = solved = 0
    for trial in range(4):
        data = random_dataset(rng, n_languages=48, n_features=4, p_observed=0.8, min_observed=1)
        train = data.subset(data.codes()[:40])
        areal_km = rng.choice([800.0, 2500.0])
        imp = RidgePriorImputer(areal_km=areal_km, blocks=blocks).fit(train)
        want = counted_ridge_fit(train, areal_km=areal_km, blocks=blocks)
        solved += sum(len(fitted.space.inventory) > 1 for fitted in imp._fitted.values())
        for target, (space, weights, biases) in want.items():
            fitted = imp._fitted[target]
            _assert_close_fit((fitted.weights, fitted.biases), (weights, biases))
            for lang in data.languages:
                observed = _others(observed_of(data, lang.code), target)
                raw = weights @ space.dense(lang, observed) + biases
                top = np.sort(raw)[-2:]
                if len(top) == 2 and top[1] - top[0] > 1e-6:
                    assert predict_one(imp, lang, observed, target).value == \
                        fitted.space.inventory[int(np.argmax(raw))]
                    compared += 1
    assert len(primal) == solved > 0
    assert compared > 300
