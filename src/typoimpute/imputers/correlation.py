"""Imputation from cross-feature correlations within languages.

Typological features are heavily inter-dependent (verb-object order
predicts adposition order, and so on), so an unobserved feature can be
voted on by every feature the language does have.  Each observed
feature A=a contributes its smoothed conditional distribution over the
target's values, weighted by how informative A is about the target
(normalized mutual information over co-observing languages).  Pairs
with too few co-observations are ignored.  Pair counts, marginals and
co-observation counts are read from the training set's shared integer
tables, ``Dataset.counts``.  The test languages needing one target are
scored as one block; each voter's term is added in feature order, so a
language's totals do not depend on which languages share its block.
"""

from __future__ import annotations

import numpy as np

from ..coded import CodedCounts
from ..kb import Dataset
from .base import Answers, Imputer, by_target, decide

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

    def __init__(self, alpha: float = 1.0, min_support: int = 5):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if min_support < 0:
            raise ValueError(f"min_support must be nonnegative, got {min_support}")
        self.alpha = alpha
        self.min_support = min_support

    def fit(self, train: Dataset, context: Dataset | None = None) -> "CorrelationImputer":
        self._counts = counts = train.counts
        # A feature votes on a target it co-occurs with in enough languages.
        self._can_vote = counts.support >= max(1, self.min_support)
        self._weight = _normalized_mi(counts)
        self._sizes = np.bincount(counts.feature_of, minlength=len(counts.starts))
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> Answers:
        counts = self._counts
        onehot, seen = counts.encode(test)
        # Each test row's column for each feature it observes; -1 for a
        # value no training language has, which counts zero everywhere.
        column = np.full(seen.shape, -1, dtype=np.intp)
        rows, columns = np.nonzero(onehot)
        column[rows, counts.feature_of[columns]] = columns
        parts = []
        for target, block, rows in by_target(test, cells):
            if target not in counts.columns:
                continue
            values = list(counts.columns[target])
            t = counts.feature_index[target]
            first = counts.starts[t]
            voting = (seen[rows] > 0) & self._can_vote[:, t]  # rows x voters
            col = column[rows]
            known = col >= 0
            denom = np.where(known, counts.marginal[col, t], 0) + self.alpha * self._sizes[t]
            use = (voting & (denom > 0))[..., None]  # rows x voters x values
            joint = np.where(known[..., None], counts.joint[col, first:first + len(values)], 0)
            p = np.divide(joint + self.alpha, denom[..., None], out=np.zeros(joint.shape),
                          where=use)
            # Each voter adds its weighted share in feature order, as a
            # running total; a voter that does not vote adds exactly 0.
            terms = np.where(use, self._weight[:, t, None] * p, 0.0)
            totals = np.cumsum(terms, axis=1)[:, -1]
            # a row whose voters all weigh 0 still answers: the first
            # value, with confidence 1/len(values)
            totals[voting.any(axis=1) & ~totals.any(axis=1)] = 1.0
            parts.append(decide(block, values, totals, ("correlation",)))
        return Answers.join(parts)
