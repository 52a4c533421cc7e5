"""Common imputer interface: fit on a training dataset, then answer the
hidden cells of a test dataset, each with a value and a confidence.

Every imputer scores the cells of one target at a time and answers
them through ``decide``, the one decision rule for value, confidence
and source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..kb import OBSERVED_CODE, Dataset

__all__ = [
    "NoPredictionError",
    "Prediction",
    "Imputer",
    "decide",
    "fill_dataset",
]


class NoPredictionError(Exception):
    """No answer; ``predict`` leaves such cells out and raises nothing."""


@dataclass(frozen=True)
class Prediction:
    value: str
    confidence: float  # in [0, 1]
    source: str  # label of the deciding rule or back-off level


class Imputer:
    """Base class; fitted models are immutable and predict is pure."""

    def fit(self, train: Dataset, context: Dataset | None = None) -> "Imputer":
        raise NotImplementedError

    def predict(self, test: Dataset, cells: np.ndarray) -> dict[int, Prediction]:
        """Answer the hidden cells ``cells`` (indices into the cell table
        of ``test``) from the observed cells of ``test``, keyed by cell
        index; a cell the imputer cannot answer is left out."""
        raise NotImplementedError


def by_target(test: Dataset, cells: np.ndarray) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
    """``cells`` grouped by target feature, in feature order: the
    feature name, its cells in table order, and their test rows."""
    features = test.cell_feature[cells]
    order = np.argsort(features, kind="stable")
    cells, features = cells[order], features[order]
    starts = np.flatnonzero(np.diff(features, prepend=-1))
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(cells)]):
        yield test.feature_names[features[lo]], cells[lo:hi], test.cell_row[cells[lo:hi]]


def decide(cells: np.ndarray, values: Sequence[str], scores: np.ndarray,
           source: str | np.ndarray, mass: np.ndarray | None = None) -> dict[int, Prediction]:
    """Answer each of ``cells`` from its row of ``scores`` (cells x
    ``values``, which are sorted): the value of the row's first maximum,
    so a tie goes to the lexicographically smaller value, with its
    share of the row of ``mass`` (``scores`` by default) summed in value
    order.  A row whose mass sums to zero gets no answer.  ``source`` is
    one label for every cell or one per cell.  A share outside [0, 1]
    raises ``ValueError``."""
    mass = scores if mass is None else mass
    total = np.cumsum(mass, axis=1)[:, -1]
    best = scores.argmax(axis=1)
    share = mass[np.arange(len(best)), best] / np.where(total > 0, total, 1)
    outside = (total > 0) & ~((share >= 0) & (share <= 1))
    if outside.any():
        raise ValueError(f"confidence {share[outside][0]} outside [0, 1]")
    sources = np.broadcast_to(np.asarray(source, dtype=object), best.shape)
    return {cell: Prediction(values[b], s, label) for cell, b, s, label, answered in
            zip(cells.tolist(), best.tolist(), share.tolist(), sources.tolist(),
                (total > 0).tolist()) if answered}


def fill_dataset(imputer: Imputer, test: Dataset) -> dict[tuple[str, str], Prediction]:
    """Predict every blanked and unknown cell of ``test`` in one call.

    The imputer sees only the observed cells of ``test``.  Results are
    keyed by (code, feature) in cell-table order (dataset order, then
    feature name), so they are deterministic.  A cell the imputer cannot
    answer is left out of the result; an ensemble ending in a
    global-frequency member answers every cell whose feature training
    observes.
    """
    cells = np.flatnonzero(test.cell_state != OBSERVED_CODE)
    answers = imputer.predict(test, cells)
    codes = test.codes()
    return {(codes[test.cell_row[c]], test.feature_names[test.cell_feature[c]]): answers[c]
            for c in cells.tolist() if c in answers}
