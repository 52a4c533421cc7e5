"""Nearest-neighbor imputation over language representations.

With a vector file (one language per line, ``code<TAB>v1<TAB>...``),
neighbors are ranked by cosine distance between vectors.  Without one,
languages are compared by agreement over their shared observed features
(1 - matching/shared); languages sharing no features rank last, and
geographic distance breaks ties.  Agreement is counted from the
training set's shared integer tables, ``Dataset.counts``, as one test
rows x training rows matrix per prediction call; geographic distance is
read from the table's cached distance row of a test language, computed
only when candidates tie at the k-th place.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from ..coded import count_matmul
from ..geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from ..kb import Dataset, DatasetError
from .base import Imputer, Prediction, by_target, decide

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
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DatasetError(
                f"vector file line {lineno}: dimension {vec.size} != {dim}"
            )
        if code in vectors:
            raise DatasetError(f"vector file line {lineno}: duplicate code {code!r}")
        vectors[code] = vec
    if not vectors:
        raise DatasetError(f"vector file {path} holds no language vectors")
    return vectors


def _cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 2.0  # maximal cosine distance; degenerate vector
    return 1.0 - float(np.dot(a, b)) / (na * nb)


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
        train_vectors = [vectors.get(lang.code) for lang in counts.languages]
        for row in np.flatnonzero(by_vector).tolist():
            query = vectors[test.languages[row].code]
            distance[row] = [_NO_VECTOR if v is None else _cosine_distance(query, v)
                             for v in train_vectors]
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
            km[i] = self._counts.distances(languages[crowded[i]])[candidates]
        code_rank = np.broadcast_to(self._counts.code_rank[candidates], d.shape)
        place = np.lexsort((code_rank, np.where(tied, km, np.inf)), axis=1).argsort(axis=1)
        taken[crowded] = ahead | (tied & (place < need[:, None]))
        return taken

    def predict(self, test: Dataset, cells: np.ndarray) -> dict[int, Prediction]:
        counts = self._counts
        distance, by_vector = self._distances(test)
        own = np.array([counts.rows.get(lang.code, -1) for lang in test.languages], dtype=np.intp)
        out: dict[int, Prediction] = {}
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
            out.update(decide(block, list(values), votes,
                              np.where(by_vector[rows], "knn-vector", "knn-agreement")))
        return out
