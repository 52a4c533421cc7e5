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

from ..coded import CodedCounts, count_matmul
from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset
from .base import Imputer, Prediction, _modes, by_target

__all__ = ["GlobalFrequencyImputer", "GenusFamilyBackoffImputer", "GeoBackoffImputer"]


def _target_columns(counts: CodedCounts, target: str) -> tuple[list[str], slice] | None:
    """The target's values (sorted) and their one-hot columns; None for
    a feature training never observes."""
    values = counts.columns.get(target)
    if not values:
        return None
    start = counts.starts[counts.feature_index[target]]
    return list(values), slice(start, start + len(values))


def _backoff(counts: CodedCounts, levels: tuple[str, ...], test: Dataset,
             cells: np.ndarray) -> dict[int, Prediction]:
    """The mode of the first of ``levels`` (language groups, "genus" or
    "family") where the test language's group observes the target, else
    the global mode; one block of group rows per target."""
    # later levels are overwritten by earlier ones
    tables = [(level, getattr(counts, level).table,
               getattr(counts, level).index(getattr(lang, level) for lang in test.languages))
              for level in reversed(levels)]
    out: dict[int, Prediction] = {}
    for target, block, rows in by_target(test, cells):
        found = _target_columns(counts, target)
        if found is None:
            continue
        values, columns = found
        [pred] = _modes(values, counts.totals[None, columns], "global")
        preds = [pred] * len(rows)
        for level, table, group in tables:
            preds = [mode or pred for mode, pred in
                     zip(_modes(values, table[group[rows], columns], level), preds)]
        out.update(zip(block.tolist(), preds))
    return out


class GlobalFrequencyImputer(Imputer):
    """Predict the most frequent training value of the target feature."""

    name = "frequency"

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GlobalFrequencyImputer":
        self.counts = train.counts
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> dict[int, Prediction]:
        return _backoff(self.counts, (), test, cells)


class GenusFamilyBackoffImputer(Imputer):
    """Genus-level mode, backing off to family, then global frequency."""

    name = "genus_family"

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GenusFamilyBackoffImputer":
        self.counts = train.counts
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> dict[int, Prediction]:
        return _backoff(self.counts, ("genus", "family"), test, cells)


class GeoBackoffImputer(Imputer):
    """Genus/family back-off extended with two geographic levels.

    When neither genus nor family has seen the target, take the mode
    over training languages within ``near_km`` that have it.  Failing
    that, find the nearest training language with the target inside
    ``far_km`` (ties broken on the smaller code) and use its family's
    mode.  Global frequency terminates the chain.  The test language's
    own training row, if any, never counts.  Distance rows are read
    only for the test languages that reach the geographic levels.
    """

    name = "geo_backoff"

    def __init__(self, near_km: float = 1000.0, far_km: float = 2000.0):
        if not 0.0 <= near_km <= far_km:
            raise ValueError(f"need 0 <= near_km <= far_km, got {near_km} and {far_km}")
        self.near_km = near_km
        self.far_km = far_km

    def fit(self, train: Dataset, context: Dataset | None = None) -> "GeoBackoffImputer":
        self.counts = train.counts
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> dict[int, Prediction]:
        counts = self.counts
        out = _backoff(counts, ("genus", "family"), test, cells)
        reach = np.array([c for c, p in out.items() if p.source == "global"], dtype=np.intp)
        for target, block, rows in by_target(test, reach):
            values, columns = _target_columns(counts, target)
            onehot = counts.onehot[:, columns]
            languages = [test.languages[r] for r in rows.tolist()]
            km = np.array([counts.distances(lang) for lang in languages])
            own = np.array([counts.rows.get(lang.code, -1) for lang in languages])
            holders = onehot.any(axis=1) & (np.arange(len(onehot)) != own[:, None])

            preds = _modes(values, count_matmul(holders & (km <= self.near_km), onehot),
                           "neighborhood")
            in_far = holders & (km <= self.far_km)
            # nearest holder inside far_km: least distance, then least code
            nearest_km = np.where(in_far, km, np.inf).min(axis=1, keepdims=True)
            tied = in_far & (km == nearest_km)
            nearest = np.where(tied, counts.code_rank, len(counts.code_rank)).argmin(axis=1)
            family = counts.family.of
            same = holders & (family == family[nearest][:, None]) & tied.any(axis=1)[:, None]
            far = _modes(values, count_matmul(same, onehot), "nearest-family")
            for cell, near, family_mode in zip(block.tolist(), preds, far):
                out[cell] = near or family_mode or out[cell]
        return out
