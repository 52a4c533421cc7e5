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

All distributions are read from integer count tables over the
statistics languages: a language x (feature, value) one-hot, its joint
counts, per-feature co-observation counts, genus and family counts, and
counts over each language's radius neighbours.  Without the evaluation
set's cells these are the training set's shared tables,
``Dataset.counts``, plus the radius counts (when the areal block is
on) and the list of the one-hot's (row, column) entries, built once per
fit.  A target's training design matrix is gathered from these tables
in blocks, its implicational and indicator entries taken from that list;
leave-one-out subtracts the row's own one-hot from its counts.  Every
value's regressor is then solved in one call.  The test languages
needing one target are scored as one block: their prior vectors copy
genus, family and implicational shares from tables built once per
target, and one product with the weights scores every value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ..coded import CodedCounts, count_matmul
from ..geo import distance_matrix
from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset, Language
from .base import Imputer, Prediction, by_target

__all__ = [
    "solve_ridge",
    "PriorFeatureSpace",
    "RidgePriorImputer",
    "ALL_BLOCKS",
]

ALL_BLOCKS = ("genetic", "areal", "implicational", "indicators")


def solve_ridge(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimize ||Xw + b - y||^2 + lam*||w||^2 with an unpenalized bias.

    Solved exactly via the centered normal equations; when the feature
    dimension exceeds the row count the equivalent dual system is used
    instead.  ``y`` is one target of shape (n,) or k targets of shape
    (n, k) sharing one factorization.  Returns (w, b): w of shape (d,)
    with a float b, or (d, k) with b of shape (k,).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim not in (1, 2) or X.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if X.shape[0] < 1 or X.shape[1] < 1 or (y.ndim == 2 and y.shape[1] < 1):
        raise ValueError("need at least one row and one column")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in ridge inputs")

    n, d = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean(axis=0)
    Xc = X - x_mean
    yc = y - y_mean

    if d <= n:
        gram = Xc.T @ Xc
        gram[np.diag_indices_from(gram)] += lam
        w = np.linalg.solve(gram, Xc.T @ yc)
    else:
        outer = Xc @ Xc.T
        outer[np.diag_indices_from(outer)] += lam
        w = Xc.T @ np.linalg.solve(outer, yc)

    b = y_mean - x_mean @ w
    return w, (float(b) if y.ndim == 1 else b)


class _PriorStats:
    """The coded counts of the statistics languages (train, optionally
    plus the observed cells of an evaluation set) and their counts over
    each language's radius neighbours; ``areal_km=None`` (no areal
    block) computes no radius counts.

    Columns of the one-hot are (feature, value) pairs over every value
    any statistics language observes, so totals include values outside
    the training inventory.  ``cell_rows`` and ``cell_columns`` list the
    one-hot's (row, column) entries, row by row.
    """

    def __init__(self, counts: CodedCounts, areal_km: float | None):
        self.counts = counts
        self.areal_km = areal_km
        if areal_km is not None:
            # languages x columns over radius neighbours, self excluded
            within = distance_matrix(counts.coords, counts.coords) <= areal_km
            np.fill_diagonal(within, False)
            self.areal = count_matmul(within, counts.onehot)
        self.cell_rows, self.cell_columns = np.nonzero(counts.onehot)
        self._query_areal: dict[Language, np.ndarray] = {}

    def areal_counts(self, language: Language) -> np.ndarray:
        """Counts over the radius neighbours of ``language``.

        A statistics language reads its fit-time row; any other language
        reads the counts' cached distance row.  Both come from the same
        kernel, so a query at a statistics language's coordinates has
        that language's neighbours (plus the language itself).
        """
        row = self.counts.rows.get(language.code)
        if row is not None:
            return self.areal[row]
        counts = self._query_areal.get(language)
        if counts is None:
            near = self.counts.distances(language)[None] <= self.areal_km
            counts = self._query_areal[language] = count_matmul(near, self.counts.onehot)[0]
        return counts


class PriorFeatureSpace:
    """Deterministic index space of the prior blocks for one target.

    Keys are tuples: ("genus", v), ("family", v), ("areal", v),
    ("impl", A, a, v), and ("obs", A, a); their order fixes the column
    order of the design matrix.  The space stores only the offsets of
    its blocks and, for every one-hot column, its implicational and
    indicator key (-1 for none, also in a spare last slot that stands
    for values the statistics never observe); ``keys`` is spelled out
    only when read.
    """

    def __init__(
        self,
        stats: _PriorStats,
        target: str,
        inventory: Sequence[str],
        inventories: Mapping[str, Sequence[str]],
        min_support: int,
        blocks: Sequence[str],
    ):
        self.stats = stats
        self.target = target
        self.inventory = tuple(inventory)
        self.min_support = min_support
        self.blocks = tuple(blocks)
        counts = stats.counts
        n_values = len(self.inventory)

        # Every statistics value of the target: shares divide by all of
        # them, columns exist only for the inventory.
        target_columns = counts.columns.get(target, {})
        self._target_columns = np.array(list(target_columns.values()), dtype=np.intp)
        order = list(target_columns)
        self._value_positions = np.array([order.index(v) for v in self.inventory], dtype=np.intp)

        others = sorted(f for f in inventories if f != target)
        self._inventories = inventories
        self._impl_features = [f for f in others if self._support(f) >= min_support] \
            if "implicational" in self.blocks else []
        self._obs_features = others if "indicators" in self.blocks else []
        impl_columns = [counts.columns[f][a] for f in self._impl_features for a in inventories[f]]
        obs_columns = [counts.columns[f][a] for f in self._obs_features for a in inventories[f]]
        self._impl_key = np.full(counts.onehot.shape[1] + 1, -1, dtype=np.intp)
        self._impl_key[impl_columns] = np.arange(len(impl_columns))
        self._obs_key = np.full(counts.onehot.shape[1] + 1, -1, dtype=np.intp)
        self._obs_key[obs_columns] = np.arange(len(obs_columns))
        self._areal_start = 2 * n_values if "genetic" in self.blocks else 0
        self._impl_start = self._areal_start + (n_values if "areal" in self.blocks else 0)
        self._obs_start = self._impl_start + len(impl_columns) * n_values
        self._size = self._obs_start + len(obs_columns)
        # Target counts of every implicational key; the query shares of
        # every implicational key, genus and family.
        self._impl_counts = counts.joint[np.ix_(impl_columns, self._target_columns)]
        self._impl_shares = self._shares(self._impl_counts)
        if "genetic" in self.blocks:
            self._genus_shares = self._shares(counts.genus.table[:, self._target_columns])
            self._family_shares = self._shares(counts.family.table[:, self._target_columns])

    @cached_property
    def keys(self) -> tuple[tuple, ...]:
        """The key of every column, in column order."""
        keys: list[tuple] = []
        if "genetic" in self.blocks:
            keys += [("genus", v) for v in self.inventory]
            keys += [("family", v) for v in self.inventory]
        if "areal" in self.blocks:
            keys += [("areal", v) for v in self.inventory]
        for feat in self._impl_features:
            for a in self._inventories[feat]:
                keys += [("impl", feat, a, v) for v in self.inventory]
        for feat in self._obs_features:
            keys += [("obs", feat, a) for a in self._inventories[feat]]
        return tuple(keys)

    def __len__(self) -> int:
        return self._size

    def _support(self, feat: str) -> int:
        index = self.stats.counts.feature_index
        if feat not in index or self.target not in index:
            return 0
        return int(self.stats.counts.support[index[feat], index[self.target]])

    def _shares(self, counts: np.ndarray) -> np.ndarray:
        """Inventory shares of each row of target counts; rows with no
        count left are all zero."""
        total = counts.sum(axis=-1, keepdims=True)
        out = np.zeros(counts.shape[:-1] + (len(self.inventory),))
        np.divide(counts[..., self._value_positions], total, out=out, where=total > 0)
        return out

    def design(self, rows: np.ndarray) -> np.ndarray:
        """Training design matrix of the statistics rows ``rows``, each
        observing the target; its own observation is left out of every
        distribution."""
        stats = self.stats
        counts = stats.counts
        tc = self._target_columns
        n_values = len(self.inventory)
        own = counts.onehot[np.ix_(rows, tc)]
        X = np.zeros((len(rows), self._size))
        if "genetic" in self.blocks:
            X[:, :n_values] = self._shares(
                counts.genus.table[np.ix_(counts.genus.of[rows], tc)] - own)
            X[:, n_values:2 * n_values] = self._shares(
                counts.family.table[np.ix_(counts.family.of[rows], tc)] - own)
        if "areal" in self.blocks:
            X[:, self._areal_start:self._impl_start] = self._shares(
                stats.areal[np.ix_(rows, tc)])
        # the rows' one-hot entries, as (design row, column)
        at = np.full(len(counts.languages), -1, dtype=np.intp)
        at[rows] = np.arange(len(rows))
        at = at[stats.cell_rows]
        held = at >= 0
        at, columns = at[held], stats.cell_columns[held]
        keys = self._impl_key[columns]
        impl_rows, keys = at[keys >= 0], keys[keys >= 0]
        X[impl_rows[:, None], self._impl_start + keys[:, None] * n_values + np.arange(n_values)] = \
            self._shares(self._impl_counts[keys] - own[impl_rows])
        keys = self._obs_key[columns]
        X[at[keys >= 0], self._obs_start + keys[keys >= 0]] = 1.0
        return X

    def dense(self, languages: Sequence[Language], onehot: np.ndarray) -> np.ndarray:
        """Prior vectors of test languages, one row each; ``onehot`` holds
        their observed values in the statistics columns (rows x columns).
        Nothing is left out."""
        stats = self.stats
        counts = stats.counts
        n_values = len(self.inventory)
        X = np.zeros((len(languages), self._size))
        if "genetic" in self.blocks:
            X[:, :n_values] = self._genus_shares[
                counts.genus.index(lang.genus for lang in languages)]
            X[:, n_values:2 * n_values] = self._family_shares[
                counts.family.index(lang.family for lang in languages)]
        if "areal" in self.blocks:
            tc = self._target_columns
            areal = np.array([stats.areal_counts(lang)[tc] for lang in languages], dtype=np.int64)
            X[:, self._areal_start:self._impl_start] = \
                self._shares(areal.reshape(len(languages), len(tc)))
        rows, columns = np.nonzero(onehot)
        keys = self._impl_key[columns]
        impl_rows, keys = rows[keys >= 0], keys[keys >= 0]
        X[impl_rows[:, None], self._impl_start + keys[:, None] * n_values + np.arange(n_values)] = \
            self._impl_shares[keys]
        keys = self._obs_key[columns]
        X[rows[keys >= 0], self._obs_start + keys[keys >= 0]] = 1.0
        return X


@dataclass
class _FittedFeature:
    space: PriorFeatureSpace
    values: tuple[str, ...]
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

    name = "ridge"

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
        counts = train.counts
        if self.use_context and context is not None:
            counts = CodedCounts([train, context])
        self._stats = stats = _PriorStats(counts, self.areal_km if "areal" in self.blocks else None)
        inventories = {f: tuple(values) for f, values in train.counts.columns.items()}
        # Training languages come first among the statistics rows.
        n_train = len(train.languages)

        self._fitted = {}
        for target, inventory in inventories.items():
            space = PriorFeatureSpace(
                stats, target, inventory, inventories, self.min_support, self.blocks
            )
            values = tuple(inventory)
            if len(values) == 1 or len(space) == 0:
                weights = np.zeros((len(values), len(space)))
                biases = np.zeros(len(values))
                self._fitted[target] = _FittedFeature(space, values, weights, biases)
                continue
            own = counts.onehot[:n_train, [counts.columns[target][v] for v in values]]
            rows = np.flatnonzero(own.any(axis=1))
            Y = np.where(own[rows] > 0, 1.0, -1.0)
            w, b = solve_ridge(space.design(rows), Y, self.lam)
            self._fitted[target] = _FittedFeature(space, values, np.ascontiguousarray(w.T), b)
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> dict[int, Prediction]:
        onehot, _ = self._stats.counts.encode(test)
        out: dict[int, Prediction] = {}
        for target, block, rows in by_target(test, cells):
            fitted = self._fitted.get(target)
            if fitted is None:
                continue
            X = fitted.space.dense([test.languages[r] for r in rows.tolist()], onehot[rows])
            raw = X @ fitted.weights.T + fitted.biases
            # values are sorted, so the first maximum breaks ties on the
            # lexicographically smaller value
            best = raw.argmax(axis=1)
            shifted = np.exp(raw - raw.max(axis=1, keepdims=True))
            confidence = shifted[np.arange(len(rows)), best] / shifted.sum(axis=1)
            source = "ridge" if len(fitted.values) > 1 else "ridge-constant"
            for cell, b, c in zip(block.tolist(), best.tolist(), confidence.tolist()):
                out[cell] = Prediction(fitted.values[b], c, source=source)
        return out
