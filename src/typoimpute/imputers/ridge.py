"""One-vs-rest ridge regression over genetic, areal, and implicational
prior distributions.

For a target feature, every candidate value gets a +/-1 ridge regressor
whose inputs are sparse blocks of empirical probabilities: the target's
value distribution within the language's genus and family, within a
geographic radius, and conditional on each of the language's observed
feature values, plus plain indicator one-hots of those observed values.
Training rows exclude the row language's own target observation from
every distribution (leave-one-out), so a language never predicts itself
from itself.

All distributions are read from one table of integer counts over the
statistics languages: the training set's shared ``Dataset.counts`` or,
with the evaluation set's cells, a ``CodedCounts`` over both.  Its
one-hot, joint, support, genus and family counts serve as they are;
the radius counts come from ``_radius_counts``, one block of
distance-kernel rows and one block of one-hot columns at a time, int32.
``fit`` counts every statistics language's neighbours once (itself
left out); ``predict`` counts, once per call, those of the test
languages that are not statistics languages, and a test language that
is one reads its fit-time row.  Leave-one-out subtracts the row's own
one-hot from its counts.  A target with more predictors than training
rows, as most have, is solved in the dual by
``PriorFeatureSpace.solve_dual``: its rows x rows Gram matrix and then
its weights are formed from the count tables, so the mostly-zero design
matrix is never built.  The Gram matrix's key products are added in
tiles of at most ``_TILE_BLOCK`` one-hot entries a side, from weights
rounded so that their sums are exact, so no entry depends on the
tiling; it is solved in place.  ``fit`` solves the targets with the
most training rows first, so that the largest Gram matrix exists before
the other targets' weights do.  A narrower target stacks its design
with ``dense``, and ``solve_ridge`` solves its primal system in place.

A fitted target keeps its weights, its biases and its
``PriorFeatureSpace``: block offsets and int32 key maps over the shared
count tables, whose pair counts it reads when it needs a key's target
counts.  The test languages needing one target are scored a block of
rows at a time, at most ``_PREDICT_BLOCK`` prior-vector entries each:
their prior vectors, from ``dense`` as the training design's are, and
one ``einsum`` with the weights, which scores each row on its own,
scores every value; ``decide`` answers the first maximum of the raw
scores, with its softmax share as the confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..coded import CodedCounts
from ..geo import coordinates, distance_matrix
from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset
from .base import Answers, Imputer, by_target, decide

__all__ = [
    "solve_ridge",
    "PriorFeatureSpace",
    "RidgePriorImputer",
    "ALL_BLOCKS",
]

ALL_BLOCKS = ("genetic", "areal", "implicational", "indicators")

# Kernel entries per block of radius-count rows.
_KERNEL_BLOCK = 1 << 16
_TILE_BLOCK = 1 << 14  # one-hot entries per tile side of the dual Gram's key products
_PREDICT_BLOCK = 1 << 14  # prior-vector entries per block of test rows in predict
_SOLVE_BLOCK = 64  # rows per block of the in-place solve, columns per tile of the dual Gram


def solve_ridge(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimize ||Xw + b - y||^2 + lam*||w||^2 with an unpenalized bias.

    Solved exactly via the centered normal equations, a d x d system
    whatever the row count, by ``_solve_in_place``.  Neither ``X`` nor
    ``y`` is modified.  ``y`` is one target of shape (n,) or k targets
    of shape (n, k) sharing one elimination.
    Returns (w, b): w of shape (d,) with a float b, or (d, k) with b of
    shape (k,).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim not in (1, 2) or X.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if X.shape[0] < 1 or X.shape[1] < 1 or (y.ndim == 2 and y.shape[1] < 1):
        raise ValueError("need at least one row and one column")
    if not 0 < lam < float("inf"):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in ridge inputs")

    x_mean = X.mean(axis=0)
    y_mean = y.mean(axis=0)
    Xc = X - x_mean
    gram = Xc.T @ Xc
    gram[np.diag_indices_from(gram)] += lam
    rhs = Xc.T @ (y - y_mean)
    w = _solve_in_place(gram, rhs.reshape(len(gram), -1)).reshape(rhs.shape)
    b = y_mean - x_mean @ w
    return w, (float(b) if y.ndim == 1 else b)


def _solve_in_place(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B into ``B`` for a symmetric positive-definite ``A``
    (n x n), which is overwritten: block Gaussian elimination, stable
    without pivoting between blocks for such an ``A``, with one
    ``np.linalg.solve`` per diagonal block of ``_SOLVE_BLOCK`` rows, the
    Schur update of the upper triangle in tiles of as many columns, and
    back-substitution.  No temporary exceeds n x ``_SOLVE_BLOCK``.  Up to
    one block the bits are those of one ``np.linalg.solve``; beyond, unlike
    its LU, which OpenBLAS threads, they ignore the BLAS thread count.
    """
    n = len(A)
    for k0 in range(0, n, _SOLVE_BLOCK):
        k1 = min(k0 + _SOLVE_BLOCK, n)
        upper = np.hstack([A[k0:k1, k1:], B[k0:k1]])
        solved = np.linalg.solve(A[k0:k1, k0:k1], upper)
        A[k0:k1, k1:], B[k0:k1] = solved[:, :n - k1], solved[:, n - k1:]
        lower = upper[:, :n - k1].T  # the lower block column, by symmetry
        B[k1:] -= lower @ B[k0:k1]
        for c0 in range(k1, n, _SOLVE_BLOCK):
            c1 = min(c0 + _SOLVE_BLOCK, n)
            A[k1:c1, c0:c1] -= lower[:c1 - k1] @ A[k0:k1, c0:c1]
    for k0 in reversed(range(0, n, _SOLVE_BLOCK)):
        k1 = min(k0 + _SOLVE_BLOCK, n)
        B[k0:k1] -= A[k0:k1, k1:] @ B[k1:]
    return B


def _radius_counts(counts: CodedCounts, points: np.ndarray, areal_km: float,
                   own: np.ndarray) -> np.ndarray:
    """points x columns counts of the one-hot of ``counts`` over the
    statistics languages within ``areal_km`` of each of ``points`` (as
    ``geo.coordinates`` returns), leaving out statistics row ``own[i]``
    for point i, or nothing where it is -1.

    One block of kernel rows at a time is multiplied by one block of
    one-hot columns at a time, at most ``_KERNEL_BLOCK`` entries each: a
    kernel row equals the same row of the full matrix and the counts
    are exact integers, so the blocks change no count.  A count never
    exceeds the number of languages, so int32 holds it.
    """
    onehot = counts.onehot
    step = max(1, _KERNEL_BLOCK // max(len(onehot), 1))
    areal = np.empty((len(points), onehot.shape[1]), dtype=np.int32)
    for start in range(0, len(points), step):
        stop = min(start + step, len(points))
        within = distance_matrix(points[start:stop], counts.coords) <= areal_km
        held = np.flatnonzero(own[start:stop] >= 0)
        within[held, own[start:stop][held]] = False
        within = within.astype(float)
        for lo in range(0, onehot.shape[1], step):
            areal[start:stop, lo:lo + step] = within @ onehot[:, lo:lo + step].astype(float)
    return areal


def _summable(weight: np.ndarray, terms: int) -> np.ndarray:
    """``weight`` rounded to the multiples of 2^(e + bits(terms) - 53),
    with 2^e above its largest entry: float64 then adds any ``terms`` of
    them exactly, in whatever order.  No entry moves by more than
    2^(bits(terms) - 53) of the largest."""
    top = np.frexp(np.abs(weight).max(initial=0.0))[1]
    grid = np.ldexp(1.0, int(top) + terms.bit_length() - 53)
    return np.round(weight / grid) * grid


def _add_key_products(gram: np.ndarray, onehot: np.ndarray, bounds: list[int],
                      weight: np.ndarray) -> None:
    """Add to ``gram`` the weighted key products of the rows of
    ``onehot`` (rows x keys), sorted by value so that value c holds rows
    ``bounds[c]`` to ``bounds[c + 1]``: two rows of values c and c2
    sharing key u add ``weight[c, c2, u]``.

    Tiles of at most ``_TILE_BLOCK // keys`` rows a side, each within
    one value, are multiplied on and above the diagonal, and a tile off
    it is added with its transpose; a tile and its float operands are
    the only temporaries.  The weights are first made ``_summable``, so
    no entry depends on the order of a sum: not on the tiles, nor on the
    kernel that BLAS picks for a shape.
    """
    n, keys = onehot.shape
    step = max(1, _TILE_BLOCK // max(keys, 1))
    tiles = [(c, slice(max(lo, start), min(lo + step, stop)))
             for lo in range(0, n, step)
             for c, (start, stop) in enumerate(zip(bounds, bounds[1:]))
             if max(lo, start) < min(lo + step, stop)]
    weight = _summable(weight, keys)
    for j, (c2, b) in enumerate(tiles):
        right = onehot[b].astype(float).T
        for c, a in tiles[:j + 1]:
            block = (onehot[a] * weight[c, c2]) @ right
            gram[a, b] += block
            if a != b:
                gram[b, a] += block.T


class PriorFeatureSpace:
    """Deterministic index space of the prior blocks for one target.

    ``counts`` are the statistics languages' coded counts and ``areal``
    their radius counts (None without the areal block).  Columns of the
    one-hot are (feature, value) pairs over every value any statistics
    language observes, so totals include values outside the training
    inventory.

    Keys are tuples: ("genus", v), ("family", v), ("areal", v),
    ("impl", A, a, v), and ("obs", A, a); their order fixes the column
    order of the design matrix.  The space stores only the offsets of
    its blocks and, for every one-hot column, its implicational and
    indicator key as int32 (-1 for none, also in a spare last slot that
    stands for values the statistics never observe).  A key's target
    counts are read from ``counts.joint`` where they are needed.
    """

    def __init__(
        self,
        counts: CodedCounts,
        areal: np.ndarray | None,
        target: str,
        inventory: Sequence[str],
        inventories: Mapping[str, Sequence[str]],
        min_support: int,
        blocks: Sequence[str],
    ):
        self.counts = counts
        self.areal = areal
        self.inventory = tuple(inventory)
        self.blocks = tuple(blocks)
        n_values = len(self.inventory)

        # Every statistics value of the target: shares divide by all of
        # them, columns exist only for the inventory.
        target_columns = counts.columns.get(target, {})
        self._target_columns = np.array(list(target_columns.values()), dtype=np.intp)
        position = {v: i for i, v in enumerate(target_columns)}
        self._value_positions = np.array([position[v] for v in self.inventory], dtype=np.intp)

        others = sorted(f for f in inventories if f != target)
        impl_features = []
        if "implicational" in self.blocks:
            index = counts.feature_index
            support = counts.support[index[target]] if target in index else np.zeros(len(index))
            impl_features = [f for f in others if support[index[f]] >= min_support]
        obs_features = others if "indicators" in self.blocks else []
        impl_columns = [counts.columns[f][a] for f in impl_features for a in inventories[f]]
        obs_columns = [counts.columns[f][a] for f in obs_features for a in inventories[f]]
        self._impl_key = np.full(counts.onehot.shape[1] + 1, -1, dtype=np.int32)
        self._impl_key[impl_columns] = np.arange(len(impl_columns))
        self._obs_key = np.full(counts.onehot.shape[1] + 1, -1, dtype=np.int32)
        self._obs_key[obs_columns] = np.arange(len(obs_columns))
        self._areal_start = 2 * n_values if "genetic" in self.blocks else 0
        self._impl_start = self._areal_start + (n_values if "areal" in self.blocks else 0)
        self._obs_start = self._impl_start + len(impl_columns) * n_values
        self._size = self._obs_start + len(obs_columns)

    def __len__(self) -> int:
        return self._size

    def _shares(self, counts: np.ndarray) -> np.ndarray:
        """Inventory shares of each row of target counts; rows with no
        count left are all zero."""
        total = counts.sum(axis=-1, keepdims=True)
        out = np.zeros(counts.shape[:-1] + (len(self.inventory),))
        np.divide(counts[..., self._value_positions], total, out=out, where=total > 0)
        return out

    def _leading(self, genus: np.ndarray, family: np.ndarray, areal: np.ndarray | None,
                 own: np.ndarray) -> np.ndarray:
        """The genus, family and areal columns of languages in the rows
        ``genus`` and ``family`` of the group tables, with target counts
        ``areal`` over their radius neighbours (None without the areal
        block); their own target one-hot ``own`` is left out of the
        genus and family counts."""
        counts = self.counts
        tc = self._target_columns
        n_values = len(self.inventory)
        X = np.zeros((len(own), self._impl_start))
        if "genetic" in self.blocks:
            X[:, :n_values] = self._shares(counts.genus.table[np.ix_(genus, tc)] - own)
            X[:, n_values:2 * n_values] = self._shares(counts.family.table[np.ix_(family, tc)] - own)
        if "areal" in self.blocks:
            X[:, self._areal_start:] = self._shares(areal)
        return X

    def solve_dual(
        self,
        rows: np.ndarray,
        y: np.ndarray,
        lam: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Weights (one row per value) and biases of every value's +/-1
        regressor over the statistics rows ``rows``, sorted by ``y``,
        the inventory position of their own target value: the solution
        of ``solve_ridge`` over the rows' ``dense`` prior vectors, from
        their Gram matrix built out of the count tables, never the vectors.

        Let O be the rows x keys one-hot of the columns holding an
        implicational or indicator key, C_u the target counts of key u
        (inventory values), s_u = 1/(N_u - 1) for its N_u target
        observations (0 when N_u <= 1) and q_u = sum_v C_uv^2.  A row of
        value c sharing key u with a row of value c' adds
        s_u^2 (q_u - C_uc - C_uc' + [c = c']) to their product through
        the key's implicational columns, and 1 through its indicator, so
        the Gram matrix is the leading columns' product plus the products
        of the rows of O under these weights, which ``_add_key_products``
        adds in tiles of at most ``_TILE_BLOCK`` entries of O a side.
        Beyond the count tables, the rows x rows Gram matrix is then the
        largest array, and ``_solve_in_place`` solves it without a copy.
        The weights come back the same way: the implicational
        weight of (u, v) is s_u (C_uv (O^T a)_u - (O_v^T a_v)_u) with O_v
        the rows of value v.
        """
        counts = self.counts
        n_values = len(self.inventory)
        own = counts.onehot[np.ix_(rows, self._target_columns)]
        areal = None if self.areal is None else self.areal[np.ix_(rows, self._target_columns)]
        lead = self._leading(counts.genus.of[rows], counts.family.of[rows], areal, own)
        keys = np.flatnonzero((self._impl_key[:-1] >= 0) | (self._obs_key[:-1] >= 0))
        impl, obs = self._impl_key[keys], self._obs_key[keys]
        has_impl, has_obs = impl >= 0, obs >= 0
        # target counts of each key; a key without an implicational
        # block counts none
        target_counts = counts.joint[np.ix_(keys, self._target_columns)]
        target_counts[~has_impl] = 0
        C = target_counts[:, self._value_positions]
        N = target_counts.sum(axis=1)
        s = np.divide(1.0, N - 1, out=np.zeros(len(keys)), where=N > 1)
        q = (C * C).sum(axis=1)
        O = counts.onehot[np.ix_(rows, keys)]
        bounds = np.searchsorted(y, np.arange(n_values + 1)).tolist()
        classes = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

        # in column tiles: one threaded lead @ lead.T varies with the thread count
        gram = np.empty((len(rows), len(rows)))
        for c0 in range(0, len(rows), _SOLVE_BLOCK):
            gram[:, c0:c0 + _SOLVE_BLOCK] = lead @ lead[c0:c0 + _SOLVE_BLOCK].T
        weight = s * s * (q - C.T[:, None] - C.T[None] + np.eye(n_values)[:, :, None]) + has_obs
        _add_key_products(gram, O, bounds, weight)
        # Dual ridge, centred in place: with Xc = X - mean, Xc Xc^T is
        # X X^T centred on both sides and Xc^T a = X^T (a - mean a); the
        # bias is mean(Y) - mean(X) w, and mean(X) X^T is the row mean of
        # the Gram matrix.
        row_mean = gram.mean(axis=1)
        gram -= row_mean[:, None]
        gram -= row_mean[None, :]
        gram += row_mean.mean()
        gram[np.diag_indices_from(gram)] += lam
        Y = np.where(y[:, None] == np.arange(n_values), 1.0, -1.0)
        y_mean = Y.mean(axis=0)
        alpha = _solve_in_place(gram, Y - y_mean)
        del gram
        alpha -= alpha.mean(axis=0)
        biases = y_mean - row_mean @ alpha

        weights = np.zeros((n_values, self._size))
        weights[:, :self._impl_start] = alpha.T @ lead
        by_class = np.stack([O[rows_c].T @ alpha[rows_c] for rows_c in classes])
        total = by_class.sum(axis=0)
        impl_weights = s[:, None, None] * (C[:, :, None] * total[:, None, :]
                                           - by_class.transpose(1, 0, 2))
        weights[:, self._impl_start + impl[has_impl][:, None] * n_values + np.arange(n_values)] = \
            impl_weights[has_impl].transpose(2, 0, 1)
        weights[:, self._obs_start + obs[has_obs]] = total[has_obs].T
        return weights, biases

    def dense(self, genus: np.ndarray, family: np.ndarray, areal: np.ndarray | None,
              onehot: np.ndarray) -> np.ndarray:
        """Prior vectors, one row per language, from their rows ``genus``
        and ``family`` of the group tables, their radius counts ``areal``
        (None without the areal block) and their observed values
        ``onehot``, both in the statistics columns.  Each row's own
        target one-hot is left out of its genus, family and implicational
        counts: a leave-one-out that only a training row observing the
        target gets, never the hidden cell of a test row in ``predict``."""
        tc = self._target_columns
        n_values = len(self.inventory)
        own = onehot[:, tc]
        X = np.zeros((len(own), self._size))
        X[:, :self._impl_start] = self._leading(genus, family,
                                                None if areal is None else areal[:, tc], own)
        rows, columns = np.nonzero(onehot)
        keys = self._impl_key[columns]
        impl = keys >= 0
        impl_rows, keys = rows[impl], keys[impl]
        X[impl_rows[:, None], self._impl_start + keys[:, None] * n_values + np.arange(n_values)] = \
            self._shares(self.counts.joint[np.ix_(columns[impl], tc)] - own[impl_rows])
        keys = self._obs_key[columns]
        X[rows[keys >= 0], self._obs_start + keys[keys >= 0]] = 1.0
        return X


@dataclass
class _FittedFeature:
    space: PriorFeatureSpace
    weights: np.ndarray  # one row per value
    biases: np.ndarray


class RidgePriorImputer(Imputer):
    """One-vs-rest ridge over the prior feature blocks.

    ``use_context=True`` folds the observed cells of the evaluation set
    passed as ``context`` into the counting tables (the regressors are
    still trained on training rows only).  ``blocks`` restricts which
    prior blocks are used; indicators-only approximates a plain
    per-feature linear classifier over observed values.
    """

    def __init__(
        self,
        lam: float = 1.0,
        areal_km: float = 2500.0,
        min_support: int = 5,
        blocks: Sequence[str] = ALL_BLOCKS,
        use_context: bool = False,
    ):
        if not blocks:
            raise ValueError("blocks must name at least one prior block")
        unknown = set(blocks) - set(ALL_BLOCKS)
        if unknown:
            raise ValueError(f"unknown prior blocks: {', '.join(sorted(unknown))}; "
                             f"expected a subset of {ALL_BLOCKS}")
        if not 0.0 < lam < float("inf"):
            raise ValueError(f"lambda must be positive and finite, got {lam}")
        if not 0.0 <= areal_km:
            raise ValueError(f"areal_km must be nonnegative, got {areal_km}")
        if min_support < 0:
            raise ValueError(f"min_support must be nonnegative, got {min_support}")
        self.lam = lam
        self.areal_km = areal_km
        self.min_support = min_support
        self.blocks = tuple(blocks)
        self.use_context = use_context
        self._fitted: dict[str, _FittedFeature] = {}

    def fit(self, train: Dataset, context: Dataset | None = None) -> "RidgePriorImputer":
        if self.use_context and context is not None:
            counts = CodedCounts([train, context])
        else:
            counts = train.counts
        self._counts = counts
        self._areal = None
        if "areal" in self.blocks:
            self._areal = _radius_counts(counts, counts.coords, self.areal_km,
                                         np.arange(len(counts.languages)))
        # Training languages come first among the statistics rows; the
        # inventories are the values they observe.
        n_train = len(train.languages)
        trained = counts.onehot[:n_train].sum(axis=0)
        inventories = {f: values for f, values in (
            (f, tuple(v for v, c in columns.items() if trained[c]))
            for f, columns in counts.columns.items()) if values}
        # The targets with the most training rows first (a row observes
        # one value of a feature at most): the largest Gram matrix exists
        # before the weights of the other targets do.
        observing = {f: sum(int(trained[counts.columns[f][v]]) for v in values)
                     for f, values in inventories.items()}
        self._fitted = {}
        for target in sorted(inventories, key=lambda f: (-observing[f], f)):
            inventory = inventories[target]
            space = PriorFeatureSpace(counts, self._areal, target, inventory, inventories,
                                      self.min_support, self.blocks)
            own = counts.onehot[:n_train, [counts.columns[target][v] for v in inventory]]
            rows = np.flatnonzero(own.any(axis=1))
            if len(inventory) == 1 or len(space) == 0:
                weights, biases = np.zeros((len(inventory), len(space))), np.zeros(len(inventory))
            elif len(space) > len(rows):
                y = own[rows].argmax(axis=1)
                order = np.argsort(y, kind="stable")
                weights, biases = space.solve_dual(rows[order], y[order], self.lam)
            else:
                w, biases = solve_ridge(
                    space.dense(counts.genus.of[rows], counts.family.of[rows],
                                None if self._areal is None else self._areal[rows],
                                counts.onehot[rows]),
                    np.where(own[rows], 1.0, -1.0), self.lam)
                weights = np.ascontiguousarray(w.T)
            self._fitted[target] = _FittedFeature(space, weights, biases)
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> Answers:
        counts = self._counts
        onehot, _ = counts.encode(test)
        genus = counts.genus.index(lang.genus for lang in test.languages)
        family = counts.family.index(lang.family for lang in test.languages)
        areal = None
        if self._areal is not None:
            # a statistics language reads its fit-time row; any other
            # counts its neighbours here, leaving none out (row -1)
            row = np.array([counts.rows.get(code, -1) for code in test.codes()], dtype=np.intp)
            new = row < 0
            areal = self._areal[np.maximum(row, 0)]
            areal[new] = _radius_counts(
                counts, coordinates(lang for lang, n in zip(test.languages, new.tolist()) if n),
                self.areal_km, row[new])
        parts = []
        for target, block, rows in by_target(test, cells):
            fitted = self._fitted.get(target)
            if fitted is None:
                continue
            values = fitted.space.inventory
            raw = np.empty((len(rows), len(values)))
            step = max(1, _PREDICT_BLOCK // max(len(fitted.space), 1))
            for lo in range(0, len(rows), step):
                at = rows[lo:lo + step]
                X = fitted.space.dense(genus[at], family[at],
                                       None if areal is None else areal[at], onehot[at])
                # einsum, not BLAS, whose kernel follows the block's shape: a
                # language scores the same whatever else shares its target
                raw[lo:lo + step] = np.einsum("ij,kj->ik", X, fitted.weights)
            raw += fitted.biases
            label = "ridge" if len(values) > 1 else "ridge-constant"
            parts.append(decide(block, values, raw, (label,),
                                mass=np.exp(raw - raw.max(axis=1, keepdims=True))))
        return Answers.join(parts)
