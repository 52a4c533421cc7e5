"""Imputation from cross-feature correlations within languages.

Typological features are heavily inter-dependent (verb-object order
predicts adposition order, and so on), so an unobserved feature can be
voted on by every feature the language does have.  Each observed
feature A=a contributes its smoothed conditional distribution over the
target's values, weighted by how informative A is about the target
(normalized mutual information over co-observing languages).  Pairs
with too few co-observations are ignored.  Pair counts, marginals and
co-observation counts are read from the training set's shared integer
tables, ``Dataset.counts``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..coded import CodedCounts
from ..kb import Dataset
from .base import Imputer, ImputerQuery, NoPredictionError, Prediction

__all__ = ["CorrelationImputer"]


def _normalized_mi(counts: CodedCounts) -> np.ndarray:
    """features x features: mutual information of each feature pair over
    their co-observing languages, normalized by the geometric mean of
    the two marginal entropies; zero when either feature is constant
    there."""
    joint, marginal, support = counts.joint, counts.marginal, counts.support
    of, starts = counts.feature_of, counts.starts
    if not len(of):
        return np.zeros(support.shape)

    # Entropy of feature f over the languages that also observe g.
    total = support[of]  # columns x features
    p = np.divide(marginal, total, out=np.zeros(marginal.shape), where=marginal > 0)
    plogp = np.multiply(p, np.log(p, out=np.zeros(p.shape), where=p > 0))
    entropy = -np.add.reduceat(plogp, starts, axis=0)

    # Joint terms p(a, b) log(p(a, b) / (p(a) p(b))) for every value pair.
    total = support[np.ix_(of, of)]
    ok = joint > 0
    p = np.divide(joint, total, out=np.zeros(joint.shape), where=ok)
    ratio = np.divide(p * total * total, marginal[:, of] * marginal[:, of].T,
                      out=np.ones(joint.shape), where=ok)
    terms = p * np.log(ratio)
    mi = np.maximum(0.0, np.add.reduceat(np.add.reduceat(terms, starts, axis=0), starts, axis=1))

    both = (entropy > 0) & (entropy.T > 0)
    nmi = np.divide(mi, np.sqrt(entropy * entropy.T), out=np.zeros(mi.shape), where=both)
    return np.minimum(1.0, nmi)


class CorrelationImputer(Imputer):
    """Weighted conditional-probability vote over observed features."""

    name = "correlation"

    def __init__(self, alpha: float = 1.0, min_support: int = 5):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if min_support < 0:
            raise ValueError(f"min_support must be nonnegative, got {min_support}")
        self.alpha = alpha
        self.min_support = min_support

    def fit(self, train: Dataset, context: Dataset | None = None) -> "CorrelationImputer":
        self._counts = counts = train.counts
        self._profiles: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # A feature votes on a target it co-occurs with in enough languages.
        self._can_vote = counts.support >= max(1, self.min_support)
        self._weight = _normalized_mi(counts)
        self._sizes = np.bincount(counts.feature_of, minlength=len(counts.starts))
        return self

    def _votes_of(self, observed: Mapping[str, str]) -> tuple[np.ndarray, np.ndarray]:
        """Vote totals of an observed map for every (feature, value)
        column, and whether any of its features votes on each feature;
        cached per observed map."""
        key = tuple(sorted(observed.items()))
        votes = self._profiles.get(key)
        if votes is None:
            counts = self._counts
            of = counts.feature_of
            cells = [(counts.feature_index[f], counts.columns[f].get(a, -1))
                     for f, a in key if f in counts.columns]
            features, values = np.array(cells, dtype=np.intp).reshape(-1, 2).T
            voting = self._can_vote[features]
            # A value no training language has counts zero everywhere.
            known = (values >= 0)[:, None]
            denom = np.where(known, counts.marginal[values], 0) + self.alpha * self._sizes
            use = (voting & (denom > 0))[:, of]
            p = np.divide(np.where(known, counts.joint[values], 0) + self.alpha, denom[:, of],
                          out=np.zeros(use.shape), where=use)
            # Each voter adds its weighted share in feature order, as a
            # running total; a voter that does not vote adds exactly 0.
            terms = np.where(use, self._weight[features][:, of] * p, 0.0)
            totals = np.cumsum(terms, axis=0)[-1] if len(cells) else np.zeros(len(of))
            votes = (totals, voting.any(axis=0))
            self._profiles[key] = votes
        return votes

    def scores(self, query: ImputerQuery) -> dict[str, float] | None:
        """Per-value vote totals for the target, or None when no observed
        feature has enough co-observation support."""
        counts = self._counts
        if query.target not in counts.columns:
            return None
        inventory = counts.columns[query.target]
        target = counts.feature_index[query.target]
        totals, supported = self._votes_of(query.observed)
        if not supported[target]:
            return None
        first = counts.starts[target]
        return dict(zip(inventory, totals[first:first + len(inventory)].tolist()))

    def predict(self, query: ImputerQuery) -> Prediction:
        totals = self.scores(query)
        if totals is None:
            raise NoPredictionError(
                f"no observed feature supports predicting {query.target!r}"
            )
        value = min(totals, key=lambda b: (-totals[b], b))
        total_mass = sum(totals.values())
        if total_mass > 0:
            confidence = totals[value] / total_mass
        else:
            confidence = 1.0 / len(totals)
        return Prediction(value, confidence, source="correlation")
