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
``Dataset.counts``, plus the radius counts built once per fit.  A
target's training design matrix is gathered from these tables in
blocks; leave-one-out subtracts the row's own one-hot from its counts.
Every value's regressor is then solved in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..coded import CodedCounts, count_matmul
from ..geo import distance_matrix
from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset, Language
from .base import Imputer, ImputerQuery, NoPredictionError, Prediction

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
    each language's radius neighbours.

    Columns of the one-hot are (feature, value) pairs over every value
    any statistics language observes, so totals include values outside
    the training inventory.
    """

    def __init__(self, counts: CodedCounts, areal_km: float):
        self.counts = counts
        self.areal_km = areal_km
        # languages x columns over radius neighbours, self excluded
        within = distance_matrix(counts.coords, counts.coords) <= areal_km
        np.fill_diagonal(within, False)
        self.areal = count_matmul(within, counts.onehot)
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
    order of the design matrix.
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

        # Every statistics value of the target: shares divide by all of
        # them, columns exist only for the inventory.
        target_columns = counts.columns.get(target, {})
        self._target_columns = np.array(list(target_columns.values()), dtype=np.intp)
        order = list(target_columns)
        self._value_positions = np.array([order.index(v) for v in self.inventory], dtype=np.intp)

        keys: list[tuple] = []
        if "genetic" in self.blocks:
            keys += [("genus", v) for v in self.inventory]
            keys += [("family", v) for v in self.inventory]
        if "areal" in self.blocks:
            keys += [("areal", v) for v in self.inventory]
        others = sorted(f for f in inventories if f != target)
        self._impl_start = len(keys)
        self._impl: dict[tuple[str, str], int] = {}
        if "implicational" in self.blocks:
            for feat in others:
                if self._support(feat) >= min_support:
                    for a in inventories[feat]:
                        self._impl[(feat, a)] = len(self._impl)
                        keys += [("impl", feat, a, v) for v in self.inventory]
        self._obs_start = len(keys)
        self._obs: dict[tuple[str, str], int] = {}
        if "indicators" in self.blocks:
            for feat in others:
                for a in inventories[feat]:
                    self._obs[(feat, a)] = len(self._obs)
                    keys.append(("obs", feat, a))
        self.keys = tuple(keys)
        self._impl_columns = np.array(
            [counts.columns[f][a] for f, a in self._impl], dtype=np.intp
        )
        self._obs_columns = np.array(
            [counts.columns[f][a] for f, a in self._obs], dtype=np.intp
        )

    def __len__(self) -> int:
        return len(self.keys)

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

    def _fill(self, out: np.ndarray, genus, family, areal, impl_rows, impl_keys, impl_counts,
              obs_rows, obs_keys) -> None:
        """Write the blocks into ``out`` (rows x keys) from target counts."""
        n_values = len(self.inventory)
        col = 0
        if "genetic" in self.blocks:
            out[:, 0:n_values] = self._shares(genus)
            out[:, n_values:2 * n_values] = self._shares(family)
            col = 2 * n_values
        if "areal" in self.blocks:
            out[:, col:col + n_values] = self._shares(areal)
        if len(impl_keys):
            cols = self._impl_start + impl_keys[:, None] * n_values + np.arange(n_values)
            out[impl_rows[:, None], cols] = self._shares(impl_counts)
        if len(obs_keys):
            out[obs_rows, self._obs_start + obs_keys] = 1.0

    def design(self, rows: np.ndarray) -> np.ndarray:
        """Training design matrix of the statistics rows ``rows``, each
        observing the target; its own observation is left out of every
        distribution."""
        counts = self.stats.counts
        tc = self._target_columns
        own = counts.onehot[np.ix_(rows, tc)]
        impl_rows, impl_keys = np.nonzero(counts.onehot[np.ix_(rows, self._impl_columns)])
        obs_rows, obs_keys = np.nonzero(counts.onehot[np.ix_(rows, self._obs_columns)])
        X = np.zeros((len(rows), len(self.keys)))
        self._fill(
            X,
            counts.genus.table[np.ix_(counts.genus.of[rows], tc)] - own,
            counts.family.table[np.ix_(counts.family.of[rows], tc)] - own,
            self.stats.areal[np.ix_(rows, tc)],
            impl_rows, impl_keys,
            counts.joint[np.ix_(self._impl_columns[impl_keys], tc)] - own[impl_rows],
            obs_rows, obs_keys,
        )
        return X

    def dense(self, language: Language, observed: Mapping[str, str]) -> np.ndarray:
        """Prior vector of one query language; nothing is left out."""
        stats = self.stats
        counts = stats.counts
        tc = self._target_columns
        impl_keys = np.array(
            [self._impl[item] for item in observed.items() if item in self._impl], dtype=np.intp
        )
        obs_keys = np.array(
            [self._obs[item] for item in observed.items() if item in self._obs], dtype=np.intp
        )
        vec = np.zeros((1, len(self.keys)))
        self._fill(
            vec,
            counts.genus[language.genus][tc],
            counts.family[language.family][tc],
            stats.areal_counts(language)[tc] if "areal" in self.blocks else None,
            np.zeros(len(impl_keys), dtype=np.intp), impl_keys,
            counts.joint[np.ix_(self._impl_columns[impl_keys], tc)],
            np.zeros(len(obs_keys), dtype=np.intp), obs_keys,
        )
        return vec[0]


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
        stats = _PriorStats(counts, self.areal_km)
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

    def scores(self, query: ImputerQuery) -> dict[str, float] | None:
        fitted = self._fitted.get(query.target)
        if fitted is None:
            return None
        x = fitted.space.dense(query.language, query.observed)
        raw = fitted.weights @ x + fitted.biases
        return dict(zip(fitted.values, raw.tolist()))

    def predict(self, query: ImputerQuery) -> Prediction:
        scores = self.scores(query)
        if scores is None:
            raise NoPredictionError(f"unknown feature {query.target!r}")
        value = min(scores, key=lambda v: (-scores[v], v))
        raw = np.array([scores[v] for v in sorted(scores)])
        shifted = np.exp(raw - raw.max())
        confidence = float(shifted[sorted(scores).index(value)] / shifted.sum())
        source = "ridge" if len(scores) > 1 else "ridge-constant"
        return Prediction(value, confidence, source=source)
