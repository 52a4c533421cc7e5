"""Common imputer interface: fit on a training dataset, then answer the
hidden cells of a test dataset, each with a value and a confidence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..kb import OBSERVED_CODE, Dataset

__all__ = [
    "NoPredictionError",
    "Prediction",
    "Imputer",
    "fill_dataset",
]


class NoPredictionError(Exception):
    """No answer; ``predict`` leaves such cells out and raises nothing."""


@dataclass(frozen=True)
class Prediction:
    value: str
    confidence: float  # in [0, 1]
    source: str  # label of the deciding rule or back-off level

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


class Imputer:
    """Base class; fitted models are immutable and predict is pure."""

    name = "imputer"

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


def _modes(values: list[str], counts: np.ndarray, source: str) -> list[Optional[Prediction]]:
    """The most frequent value of each row of ``counts`` (rows x values),
    with its share of the row; values are sorted, so the first maximum
    breaks ties on the lexicographically smaller value.  None for a row
    with no count."""
    total = counts.sum(axis=1)
    best = counts.argmax(axis=1)
    share = counts[np.arange(len(counts)), best] / np.maximum(total, 1)
    return [Prediction(values[b], s, source) if t > 0 else None
            for b, s, t in zip(best.tolist(), share.tolist(), total.tolist())]


def fill_dataset(imputer: Imputer, test: Dataset) -> dict[tuple[str, str], Prediction]:
    """Predict every blanked and unknown cell of ``test`` in one call.

    The imputer sees only the observed cells of ``test``.  Results are
    keyed by (code, feature) in cell-table order (dataset order, then
    feature name), so they are deterministic.  A cell the imputer cannot
    answer is left out of the result; a ``first_success`` ensemble
    ending in a global-frequency member answers every cell whose feature
    training observes.
    """
    cells = np.flatnonzero(test.cell_state != OBSERVED_CODE)
    answers = imputer.predict(test, cells)
    codes = test.codes()
    return {(codes[test.cell_row[c]], test.feature_names[test.cell_feature[c]]): answers[c]
            for c in cells.tolist() if c in answers}
