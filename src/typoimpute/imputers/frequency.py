"""Counting imputers: global value frequencies and their back-off chains.

Three related predictors, each a strict extension of the previous:

* global frequency: most frequent training value of the target feature;
* genus/family back-off: genus-level mode, then family, then global;
* geographic back-off: genus, family, then the mode over languages
  within a near radius, then the family of the nearest language that
  has the target within a far radius, then global.

Confidence is the winning value's share of the counts at the deciding
level.  All counts come from the integer tables of
``coded.CodedCounts``: global counts are column sums, genus and family
counts are grouped tables, and the geographic levels sum the one-hot
rows of the target's holders selected by one distance row per query
language.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geo import coordinates, distance_matrix
from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset, Language
from .base import Imputer, ImputerQuery, NoPredictionError, Prediction
from .coded import CodedCounts, GroupCounts

__all__ = ["GlobalFrequencyImputer", "GenusFamilyBackoffImputer", "GeoBackoffImputer"]


def _target_columns(counts: CodedCounts, target: str) -> tuple[list[str], slice]:
    """The target's values (sorted) and their one-hot columns."""
    values = counts.columns.get(target)
    if not values:
        raise NoPredictionError(f"unknown feature {target!r}")
    start = counts.starts[counts.feature_index[target]]
    return list(values), slice(start, start + len(values))


def _mode(values: list[str], counts: np.ndarray) -> Optional[tuple[str, float]]:
    """Most frequent value with its share of ``counts`` (one per value);
    values are sorted, so the first maximum breaks ties on the
    lexicographically smaller value.  None for empty counts."""
    total = int(counts.sum())
    if total <= 0:
        return None
    best = int(counts.argmax())
    return values[best], int(counts[best]) / total


class GlobalFrequencyImputer(Imputer):
    """Predict the most frequent training value of the target feature."""

    name = "frequency"

    def __init__(self):
        self._counts = CodedCounts(())
        self._totals = np.zeros(0, dtype=np.int64)

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GlobalFrequencyImputer":
        self._counts = CodedCounts([train])
        self._totals = self._counts.onehot.sum(axis=0)
        return self

    def predict(self, query: ImputerQuery) -> Prediction:
        values, columns = _target_columns(self._counts, query.target)
        value, confidence = _mode(values, self._totals[columns])
        return Prediction(value, confidence, source="global")


class GenusFamilyBackoffImputer(Imputer):
    """Genus-level mode, backing off to family, then global frequency."""

    name = "genus_family"

    def __init__(self):
        self.counts = CodedCounts(())
        self._totals = np.zeros(0, dtype=np.int64)
        self.genus = self.family = GroupCounts([], self.counts.onehot)

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GenusFamilyBackoffImputer":
        self.counts = counts = CodedCounts([train])
        self._totals = counts.onehot.sum(axis=0)
        self.genus = GroupCounts([lang.genus for lang in counts.languages], counts.onehot)
        self.family = GroupCounts([lang.family for lang in counts.languages], counts.onehot)
        return self

    def predict(self, query: ImputerQuery) -> Prediction:
        values, columns = _target_columns(self.counts, query.target)
        lang = query.language
        for source, counts in (
            ("genus", self.genus[lang.genus]),
            ("family", self.family[lang.family]),
        ):
            mode = _mode(values, counts[columns])
            if mode is not None:
                return Prediction(mode[0], mode[1], source=source)
        value, confidence = _mode(values, self._totals[columns])
        return Prediction(value, confidence, source="global")


class GeoBackoffImputer(Imputer):
    """Genus/family back-off extended with two geographic levels.

    When neither genus nor family has seen the target, take the mode
    over training languages within ``near_km`` that have it.  Failing
    that, find the nearest training language with the target inside
    ``far_km`` (ties broken on the smaller code) and use its family's
    mode.  Global frequency terminates the chain.  The query language's
    own training row, if any, never counts.
    """

    name = "geo_backoff"

    def __init__(self, near_km: float = 1000.0, far_km: float = 2000.0):
        self.near_km = near_km
        self.far_km = far_km
        self._backoff = GenusFamilyBackoffImputer()
        self._coords = coordinates(())
        self._km: dict[Language, np.ndarray] = {}

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GeoBackoffImputer":
        self._backoff.fit(train)
        self._coords = coordinates(self._backoff.counts.languages)
        self._km = {}
        return self

    def _distances(self, language: Language) -> np.ndarray:
        """Kilometres from ``language`` to every training language; one
        kernel row per query language, cached."""
        km = self._km.get(language)
        if km is None:
            km = self._km[language] = distance_matrix(coordinates([language]), self._coords)[0]
        return km

    def predict(self, query: ImputerQuery) -> Prediction:
        pred = self._backoff.predict(query)  # may raise NoPredictionError
        if pred.source in ("genus", "family"):
            return pred

        counts = self._backoff.counts
        values, columns = _target_columns(counts, query.target)
        onehot = counts.onehot[:, columns]
        holders = onehot.any(axis=1)
        own = counts.rows.get(query.language.code)
        if own is not None:
            holders[own] = False
        km = self._distances(query.language)

        mode = _mode(values, onehot[holders & (km <= self.near_km)].sum(axis=0))
        if mode is not None:
            return Prediction(mode[0], mode[1], source="neighborhood")

        in_far = np.flatnonzero(holders & (km <= self.far_km))
        if len(in_far):
            tied = in_far[km[in_far] == km[in_far].min()]
            nearest = min(tied.tolist(), key=lambda i: counts.languages[i].code)
            family = self._backoff.family.of
            mode = _mode(values, onehot[holders & (family == family[nearest])].sum(axis=0))
            if mode is not None:
                return Prediction(mode[0], mode[1], source="nearest-family")

        return pred  # global frequency from the underlying chain
