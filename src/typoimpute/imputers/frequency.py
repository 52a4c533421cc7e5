"""Counting imputers: global value frequencies and their back-off chains.

Three related predictors, each a strict extension of the previous:

* global frequency: most frequent training value of the target feature;
* genus/family back-off: genus-level mode, then family, then global;
* geographic back-off: genus, family, then the mode over languages
  within a near radius, then the family of the nearest language that
  has the target within a far radius, then global.

Each cell scores the target's values by the counts of its deciding
level, chosen level by level as arrays, and one ``decide`` per target
answers with the winner's share of those counts as the confidence.  All
counts come from the training set's shared integer tables,
``Dataset.counts``: global counts are its column totals, genus and
family counts its grouped tables, and the geographic levels read the
one-hot rows of the target's holders in the query language's cached
ring: its training rows within the far radius, nearest first.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..coded import CodedCounts
from ..geo import coordinates, distance_matrix
from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset, Language
from .base import Answers, Imputer, by_target, decide

__all__ = ["GlobalFrequencyImputer", "GenusFamilyBackoffImputer", "GeoBackoffImputer"]


# Every back-off level, by its source code in ``Answers``.
_LEVELS = ("global", "genus", "family", "nearest-family", "neighborhood")


def _prefer(scores: np.ndarray, source: np.ndarray, counts: np.ndarray, level: str) -> None:
    """Let the rows of ``counts`` (cells x values) that count anything
    replace their rows of ``scores`` and name ``level`` as their source."""
    found = counts.any(axis=1)
    scores[found] = counts[found]
    source[found] = _LEVELS.index(level)


def _backoff(counts: CodedCounts, levels: tuple[str, ...], test: Dataset, cells: np.ndarray,
             geographic: Callable | None = None) -> Answers:
    """The mode of the first of ``levels`` (language groups, "genus" or
    "family") where the test language's group observes the target, then
    of the levels ``geographic(test, rows, reach, columns)`` counts for
    the rows ``reach`` that no group level answers, else the global
    mode; one block of rows per target."""
    # applied last level first, so the first level that counts anything wins
    groups = [(level, getattr(counts, level).table,
               getattr(counts, level).index(getattr(lang, level) for lang in test.languages))
              for level in reversed(levels)]
    parts = []
    for target, block, rows in by_target(test, cells):
        values = counts.columns.get(target)
        if not values:
            continue
        start = counts.starts[counts.feature_index[target]]
        columns = slice(start, start + len(values))
        scores = np.repeat(counts.totals[None, columns], len(rows), axis=0)
        source = np.zeros(len(rows), dtype=np.intp)  # global
        for level, table, group in groups:
            _prefer(scores, source, table[group[rows], columns], level)
        reach = source == 0
        if geographic is not None and reach.any():
            for level, level_counts in geographic(test, rows, reach, columns):
                _prefer(scores, source, level_counts, level)
        parts.append(decide(block, list(values), scores, _LEVELS, source))
    return Answers.join(parts)


class GlobalFrequencyImputer(Imputer):
    """Predict the most frequent training value of the target feature."""

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GlobalFrequencyImputer":
        self.counts = train.counts
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> Answers:
        return _backoff(self.counts, (), test, cells)


class GenusFamilyBackoffImputer(Imputer):
    """Genus-level mode, backing off to family, then global frequency."""

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GenusFamilyBackoffImputer":
        self.counts = train.counts
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> Answers:
        return _backoff(self.counts, ("genus", "family"), test, cells)


class GeoBackoffImputer(Imputer):
    """Genus/family back-off extended with two geographic levels.

    When neither genus nor family has seen the target, take the mode
    over training languages within ``near_km`` that have it.  Failing
    that, find the nearest training language with the target inside
    ``far_km`` (ties broken on the smaller code) and use its family's
    mode.  Global frequency terminates the chain.  The test language's
    own training row, if any, never counts.

    Each test language that reaches the geographic levels gets a cached
    ring: the training rows within ``far_km`` but its own, sorted by
    distance and then code, and how many of them lie within ``near_km``
    (a prefix, as the ring is sorted).  The nearest holder is the
    ring's first holder of the target; the near level counts the
    holders in the prefix.
    """

    def __init__(self, near_km: float = 1000.0, far_km: float = 2000.0):
        if not 0.0 <= near_km <= far_km:
            raise ValueError(f"need 0 <= near_km <= far_km, got {near_km} and {far_km}")
        self.near_km = near_km
        self.far_km = far_km

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GeoBackoffImputer":
        self.counts = train.counts
        self._rings: dict[Language, tuple[np.ndarray, int]] = {}
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> Answers:
        return _backoff(self.counts, ("genus", "family"), test, cells, self._geographic)

    def _ring(self, language: Language) -> tuple[np.ndarray, int]:
        """``language``'s training rows within ``far_km``, its own row
        left out, by (km, code rank), and how many lie within ``near_km``."""
        ring = self._rings.get(language)
        if ring is None:
            counts = self.counts
            km = distance_matrix(coordinates([language]), counts.coords)[0]
            rows = np.flatnonzero(km <= self.far_km)
            rows = rows[rows != counts.rows.get(language.code, -1)]
            rows = rows[np.lexsort((counts.code_rank[rows], km[rows]))]
            ring = self._rings[language] = (rows, int(np.count_nonzero(km[rows] <= self.near_km)))
        return ring

    def _geographic(self, test: Dataset, rows: np.ndarray, reach: np.ndarray,
                    columns: slice) -> list[tuple[str, np.ndarray]]:
        """The far and then the near level's counts (test rows ``rows`` x
        values), zero outside the rows ``reach`` selects: the family of
        the nearest holder of the target within ``far_km``, and the
        holders within ``near_km``."""
        counts = self.counts
        onehot = counts.onehot[:, columns]
        width = onehot.shape[1]
        languages = [test.languages[r] for r in rows[reach].tolist()]
        rings = [self._ring(lang) for lang in languages]
        sizes = np.array([len(ring) for ring, _ in rings], dtype=np.intp)
        starts = np.cumsum(sizes) - sizes
        ring = np.concatenate([ring for ring, _ in rings])
        # the holders' positions in the joined rings, in order, and their values
        hit, value = np.nonzero(onehot[ring])
        which = np.repeat(np.arange(len(rings)), sizes)[hit]
        in_near = hit < (starts + np.array([n for _, n in rings], dtype=np.intp))[which]
        near, far = np.zeros((2, len(rows), width), dtype=np.int64)
        near[reach] = np.bincount(which[in_near] * width + value[in_near],
                                  minlength=len(rings) * width).reshape(len(rings), width)
        # each ring's first holder, if it has one, is its nearest
        first = np.append(hit, len(ring))[np.searchsorted(hit, starts)]
        found = first < starts + sizes
        nearest = ring[first[found]]
        own = np.array([counts.rows.get(lang.code, -1) for lang in languages])[found]
        family = counts.family
        group = family.of[nearest]
        # the family's counts, less the test language's own row
        same = (own >= 0) & (family.of[own] == group)
        far[np.flatnonzero(reach)[found]] = family.table[group, columns] - onehot[own] * same[:, None]
        return [("nearest-family", far), ("neighborhood", near)]
