"""Counting imputers: global value frequencies and their back-off chains.

Three related predictors, each a strict extension of the previous:

* global frequency: most frequent training value of the target feature;
* genus/family back-off: genus-level mode, then family, then global;
* geographic back-off: genus, family, then the mode over languages
  within a near radius, then the family of the nearest language that
  has the target within a far radius, then global.

Confidence is the winning value's share of the counts at the deciding
level.  All counts come from the training set's shared integer tables,
``Dataset.counts``: global counts are its column totals, genus and
family counts its grouped tables, and the geographic levels sum the
one-hot rows of the target's holders selected by the table's cached
distance row of the query language.
"""

from __future__ import annotations

import numpy as np

from ..coded import CodedCounts
from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset
from .base import Imputer, ImputerQuery, NoPredictionError, Prediction, _mode

__all__ = ["GlobalFrequencyImputer", "GenusFamilyBackoffImputer", "GeoBackoffImputer"]


def _target_columns(counts: CodedCounts, target: str) -> tuple[list[str], slice]:
    """The target's values (sorted) and their one-hot columns."""
    values = counts.columns.get(target)
    if not values:
        raise NoPredictionError(f"unknown feature {target!r}")
    start = counts.starts[counts.feature_index[target]]
    return list(values), slice(start, start + len(values))


class GlobalFrequencyImputer(Imputer):
    """Predict the most frequent training value of the target feature."""

    name = "frequency"

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GlobalFrequencyImputer":
        self.counts = train.counts
        return self

    def predict(self, query: ImputerQuery) -> Prediction:
        values, columns = _target_columns(self.counts, query.target)
        value, confidence = _mode(values, self.counts.totals[columns])
        return Prediction(value, confidence, source="global")


class GenusFamilyBackoffImputer(Imputer):
    """Genus-level mode, backing off to family, then global frequency."""

    name = "genus_family"

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GenusFamilyBackoffImputer":
        self.counts = train.counts
        return self

    def predict(self, query: ImputerQuery) -> Prediction:
        counts = self.counts
        values, columns = _target_columns(counts, query.target)
        lang = query.language
        for source, grouped in (
            ("genus", counts.genus[lang.genus]),
            ("family", counts.family[lang.family]),
        ):
            mode = _mode(values, grouped[columns])
            if mode is not None:
                return Prediction(mode[0], mode[1], source=source)
        value, confidence = _mode(values, counts.totals[columns])
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
        if not 0.0 <= near_km <= far_km:
            raise ValueError(f"need 0 <= near_km <= far_km, got {near_km} and {far_km}")
        self.near_km = near_km
        self.far_km = far_km
        self._backoff = GenusFamilyBackoffImputer()

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GeoBackoffImputer":
        self._backoff.fit(train)
        return self

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
        km = counts.distances(query.language)

        mode = _mode(values, onehot[holders & (km <= self.near_km)].sum(axis=0))
        if mode is not None:
            return Prediction(mode[0], mode[1], source="neighborhood")

        in_far = np.flatnonzero(holders & (km <= self.far_km))
        if len(in_far):
            tied = in_far[km[in_far] == km[in_far].min()]
            nearest = min(tied.tolist(), key=lambda i: counts.languages[i].code)
            family = counts.family.of
            mode = _mode(values, onehot[holders & (family == family[nearest])].sum(axis=0))
            if mode is not None:
                return Prediction(mode[0], mode[1], source="nearest-family")

        return pred  # global frequency from the underlying chain
