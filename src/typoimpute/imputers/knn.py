"""Nearest-neighbor imputation over language representations.

With a vector file (one language per line, ``code<TAB>v1<TAB>...``),
neighbors are ranked by cosine distance between vectors.  Without one,
languages are compared by agreement over their shared observed features
(1 - matching/shared); languages sharing no features rank last, and
geographic distance breaks ties.  Agreement is counted from the
training set's shared integer tables, ``Dataset.counts``, once per query
language and observed map; geographic distance is read from the table's
cached distance row of the query language, computed only when
candidates tie at the k-th place.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset, DatasetError
from .base import Imputer, ImputerQuery, NoPredictionError, Prediction, _mode

__all__ = ["NearestNeighborImputer", "load_language_vectors"]


def load_language_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a tab-separated language-vector file.

    Every line is a code followed by finite vector components; all
    vectors in one file must share a dimension.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise DatasetError(f"vector file line {lineno}: expected code and components")
        code = fields[0].strip()
        try:
            vec = np.array([float(x) for x in fields[1:]], dtype=float)
        except ValueError:
            raise DatasetError(f"vector file line {lineno}: non-numeric component") from None
        if not np.isfinite(vec).all():
            raise DatasetError(f"vector file line {lineno}: non-finite component")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DatasetError(
                f"vector file line {lineno}: dimension {vec.size} != {dim}"
            )
        if code in vectors:
            raise DatasetError(f"vector file line {lineno}: duplicate code {code!r}")
        vectors[code] = vec
    return vectors


def _cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 2.0  # maximal cosine distance; degenerate vector
    return 1.0 - float(np.dot(a, b)) / (na * nb)


class NearestNeighborImputer(Imputer):
    """k-nearest-neighbor vote among training languages with the target."""

    name = "knn"

    def __init__(self, k: int = 1, vectors: Mapping[str, np.ndarray] | None = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.vectors = dict(vectors) if vectors else None

    def fit(self, train: Dataset, context: Dataset | None = None) -> "NearestNeighborImputer":
        self._counts = train.counts
        codes = [lang.code for lang in self._counts.languages]
        self._code_rank = np.empty(len(codes), dtype=np.intp)
        self._code_rank[sorted(range(len(codes)), key=codes.__getitem__)] = np.arange(len(codes))
        self._distances: dict[tuple, np.ndarray] = {}
        return self

    def _vector_key(self, query: ImputerQuery, candidate) -> tuple:
        qvec = self.vectors[query.language.code]
        cvec = self.vectors.get(candidate.code)
        if cvec is None:
            return (1, 0.0, candidate.code)  # no vector: after all ranked ones
        return (0, _cosine_distance(qvec, cvec), candidate.code)

    def _agreement(self, query: ImputerQuery) -> np.ndarray:
        """Agreement distance 1 - matching/shared of every training
        language, or 2.0 (after every shared distance) when it shares no
        feature with the query; cached per language and observed map."""
        key = (query.language, tuple(sorted(query.observed.items())))
        distance = self._distances.get(key)
        if distance is None:
            counts = self._counts
            features = [counts.feature_index[f] for f in query.observed if f in counts.columns]
            values = [
                counts.columns[f][v]
                for f, v in query.observed.items()
                if v in counts.columns.get(f, ())
            ]
            shared = counts.seen[:, features].sum(axis=1)
            matching = counts.onehot[:, values].sum(axis=1)
            distance = np.full(len(shared), 2.0)
            np.divide(matching, shared, out=distance, where=shared > 0)
            np.subtract(1.0, distance, out=distance, where=shared > 0)
            self._distances[key] = distance
        return distance

    def _nearest(self, query: ImputerQuery, candidates: np.ndarray) -> np.ndarray:
        """The k candidates ranked first by agreement distance; where the
        k-th place is tied, geographic distance and then code decide."""
        if len(candidates) <= self.k:
            return candidates
        distance = self._agreement(query)[candidates]
        kth = np.partition(distance, self.k - 1)[self.k - 1]
        ahead = candidates[distance < kth]
        tied = candidates[distance == kth]
        need = self.k - len(ahead)
        if len(tied) > need:
            km = self._counts.distances(query.language)[tied]
            tied = tied[np.lexsort((self._code_rank[tied], km))[:need]]
        return np.concatenate([ahead, tied])

    def predict(self, query: ImputerQuery) -> Prediction:
        counts = self._counts
        values = counts.columns.get(query.target, {})
        observing = counts.onehot[:, list(values.values())]
        has_target = observing.any(axis=1)
        row = counts.rows.get(query.language.code)
        if row is not None:
            has_target[row] = False
        candidates = np.flatnonzero(has_target)
        if not len(candidates):
            raise NoPredictionError(f"no training language observes {query.target!r}")

        use_vectors = self.vectors is not None and query.language.code in self.vectors
        if use_vectors:
            ranked = sorted(candidates, key=lambda i: self._vector_key(query, counts.languages[i]))
            taken = ranked[: self.k]
            source = "knn-vector"
        else:
            taken = self._nearest(query, candidates)
            source = "knn-agreement"

        votes = np.bincount(observing[taken].argmax(axis=1), minlength=len(values))
        value, share = _mode(list(values), votes)
        return Prediction(value, share, source=source)
