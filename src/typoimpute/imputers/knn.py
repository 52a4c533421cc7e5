"""Nearest-neighbor imputation over language representations.

With a vector file, neighbors are ranked by cosine distance
``1 - (T @ q) / (|q| |t|)``: ``fit`` stacks the training vectors T and
their norms once, and each query vector q takes one ``np.einsum``
product of its own, not a BLAS one (whose threads move the last bit of
``T @ q``), so no row depends on its batch or on the thread count.  A
zero vector is at distance 2.0, and a training language without one at
``_NO_VECTOR``, after all others.  A test language without one is
compared by agreement over shared observed features
(1 - matching/shared); languages sharing no features rank last, and
geographic distance breaks ties.  Agreement is counted from the
training set's shared integer tables, ``Dataset.counts``, as one test
rows x training rows matrix per prediction call; geographic distance is
read from a test language's distance row, computed only when candidates
tie at the k-th place and cached by the imputer until its next ``fit``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from ..coded import count_matmul
from ..geo import coordinates, distance_matrix
from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset, DatasetError, Language
from .base import Answers, Imputer, by_target, decide

__all__ = ["NearestNeighborImputer", "load_language_vectors"]


def load_language_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a tab-separated language-vector file.

    Every line is a code followed by finite vector components; all
    vectors in one file must share a dimension, and a file without any
    vector is an error.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
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
        dim = vec.size if dim is None else dim
        if vec.size != dim:
            raise DatasetError(f"vector file line {lineno}: dimension {vec.size} != {dim}")
        if code in vectors:
            raise DatasetError(f"vector file line {lineno}: duplicate code {code!r}")
        vectors[code] = vec
    if not vectors:
        raise DatasetError(f"vector file {path} holds no language vectors")
    return vectors


_NO_VECTOR = 3.0  # beyond every cosine distance: a language without a vector ranks last


class NearestNeighborImputer(Imputer):
    """k-nearest-neighbor vote among training languages with the target."""

    def __init__(self, k: int = 1, vectors: Mapping[str, np.ndarray] | None = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.vectors = dict(vectors) if vectors else None

    def fit(self, train: Dataset, context: Dataset | None = None) -> "NearestNeighborImputer":
        self._counts = train.counts
        vectors, languages = self.vectors or {}, self._counts.languages
        self._has_vector = np.array([lang.code in vectors for lang in languages], dtype=bool)
        zero = np.zeros(len(next(iter(vectors.values()), ())))
        self._vectors = np.array([vectors.get(lang.code, zero) for lang in languages], dtype=float)
        self._norms = np.sqrt(np.einsum("ij,ij->i", self._vectors, self._vectors))
        self._km: dict[Language, np.ndarray] = {}  # distance rows of tied query languages
        return self

    def _distances(self, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Test rows x training rows: the cosine distance for a test
        language with a vector, else the agreement distance
        1 - matching/shared, or 2.0 (after every shared distance) where
        the two share no feature; and whether each test row has a vector."""
        counts = self._counts
        onehot, seen = counts.encode(test)
        shared = count_matmul(seen, counts.seen.T)
        distance = np.full(shared.shape, 2.0)
        np.divide(count_matmul(onehot, counts.onehot.T), shared, out=distance, where=shared > 0)
        np.subtract(1.0, distance, out=distance, where=shared > 0)
        vectors = self.vectors or {}
        by_vector = np.array([lang.code in vectors for lang in test.languages], dtype=bool)
        for row in np.flatnonzero(by_vector).tolist():
            query = vectors[test.languages[row].code]
            scale = np.sqrt(np.einsum("i,i", query, query)) * self._norms
            cosine = np.divide(np.einsum("ij,j->i", self._vectors, query), scale,
                               out=np.full(len(scale), -1.0), where=scale > 0)  # zero vector: 2.0
            distance[row] = np.where(self._has_vector, 1.0 - cosine, _NO_VECTOR)
        return distance, by_vector

    def _nearest(self, languages: list, candidates: np.ndarray, eligible: np.ndarray,
                 distance: np.ndarray, by_vector: np.ndarray) -> np.ndarray:
        """Mask of the k eligible candidates each row takes, ranked by
        ``distance``; a tie at the k-th place goes to the geographically
        nearer candidate (agreement rows only), then to the smaller code."""
        taken = eligible.copy()
        crowded = np.flatnonzero(eligible.sum(axis=1) > self.k)
        if not len(crowded):
            return taken
        d = np.where(eligible[crowded], distance[crowded], np.inf)
        kth = np.partition(d, self.k - 1, axis=1)[:, self.k - 1:self.k]
        ahead, tied = d < kth, d == kth
        need = self.k - ahead.sum(axis=1)
        km = np.zeros(d.shape)
        for i in np.flatnonzero((tied.sum(axis=1) > need) & ~by_vector[crowded]).tolist():
            language = languages[crowded[i]]
            if language not in self._km:
                self._km[language] = distance_matrix(coordinates([language]),
                                                     self._counts.coords)[0]
            km[i] = self._km[language][candidates]
        code_rank = np.broadcast_to(self._counts.code_rank[candidates], d.shape)
        place = np.lexsort((code_rank, np.where(tied, km, np.inf)), axis=1).argsort(axis=1)
        taken[crowded] = ahead | (tied & (place < need[:, None]))
        return taken

    def predict(self, test: Dataset, cells: np.ndarray) -> Answers:
        counts = self._counts
        distance, by_vector = self._distances(test)
        own = np.array([counts.rows.get(lang.code, -1) for lang in test.languages], dtype=np.intp)
        parts = []
        for target, block, rows in by_target(test, cells):
            values = counts.columns.get(target)
            if not values:
                continue
            observing = counts.onehot[:, list(values.values())]
            candidates = np.flatnonzero(observing.any(axis=1))
            taken = self._nearest([test.languages[r] for r in rows.tolist()], candidates,
                                  candidates != own[rows][:, None],
                                  distance[np.ix_(rows, candidates)], by_vector[rows])
            votes = count_matmul(taken, observing[candidates])
            parts.append(decide(block, list(values), votes, ("knn-agreement", "knn-vector"),
                                by_vector[rows]))
        return Answers.join(parts)
