"""Common imputer interface: fit on a training dataset, then answer the
hidden cells of a test dataset, each with a value and a confidence.

Every imputer scores the cells of one target at a time and answers
them through ``decide``, the one decision rule for value, confidence
and source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from ..kb import OBSERVED_CODE, Dataset, DatasetError

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


def fill_dataset(imputer: Imputer, test: Dataset) -> Dataset:
    """``test`` filled from one ``predict`` call over its blanked and
    unknown cells: each answered cell becomes observed at its predicted
    value, and a cell without an answer keeps its state (a blanked one
    its gold value).

    The imputer sees only the observed cells of ``test``; an ensemble
    ending in a global-frequency member answers every cell whose feature
    training observes.  ``predict`` gives each answer's confidence and
    source.  An answer for a cell that is not hidden is a DatasetError.
    """
    cells = np.flatnonzero(test.cell_state != OBSERVED_CODE)
    answers = imputer.predict(test, cells)
    answered = np.fromiter(answers, dtype=np.intp, count=len(answers))
    if not np.isin(answered, cells).all():
        raise DatasetError(f"{type(imputer).__name__} answered a cell the test set does not hide")
    # An answer reads the value name after the test set's own.
    value, state = test.cell_value.copy(), test.cell_state.copy()
    value[answered] = len(test.value_names) + np.arange(len(answered))
    state[answered] = OBSERVED_CODE
    return replace(test, value_names=test.value_names + [p.value for p in answers.values()],
                   cell_value=value, cell_state=state)
