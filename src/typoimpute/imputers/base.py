"""Common imputer interface: fit on a training dataset, then answer the
hidden cells of a test dataset, each with a value, a confidence and
the rule that decided it.

Answers are arrays, never an object per cell: ``predict`` returns one
``Answers`` record.  Every imputer scores the cells of one target at a
time, answers them through ``decide``, the one decision rule for value,
confidence and source, and joins the targets' records with
``Answers.join``.  ``fill_dataset`` writes a record into the test set's
cell table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..kb import OBSERVED_CODE, Dataset, DatasetError

__all__ = [
    "Answers",
    "NoPredictionError",
    "Imputer",
    "decide",
    "fill_dataset",
]


class NoPredictionError(Exception):
    """No answer; ``predict`` leaves such cells out and raises nothing."""


@dataclass(frozen=True)
class Answers:
    """Answers to hidden cells, one entry per answered cell in each of
    the equal-length arrays: ``cell`` (indices into the test set's cell
    table), ``value`` (into ``names``), ``confidence`` (in [0, 1]) and
    ``source`` (into ``labels``, the names of the deciding rules or
    back-off levels)."""

    cell: np.ndarray  # intp
    value: np.ndarray  # intp
    confidence: np.ndarray  # float64
    source: np.ndarray  # intp
    names: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.cell)

    @classmethod
    def join(cls, parts: Sequence["Answers"]) -> "Answers":
        """One record of every answer of ``parts``, in order; each part's
        names and labels follow those of the parts before it."""

        def cat(field: str, dtype, offsets: Sequence[int] = ()) -> np.ndarray:
            arrays = [getattr(p, field) for p in parts]
            if offsets:
                arrays = [a + at for a, at in zip(arrays, offsets)]
            return np.concatenate([np.empty(0, dtype), *arrays])

        names = np.cumsum([0] + [len(p.names) for p in parts]).tolist()
        labels = np.cumsum([0] + [len(p.labels) for p in parts]).tolist()
        return cls(cat("cell", np.intp), cat("value", np.intp, names),
                   cat("confidence", np.float64), cat("source", np.intp, labels),
                   tuple(n for p in parts for n in p.names),
                   tuple(label for p in parts for label in p.labels))


class Imputer:
    """Base class.  ``fit`` fixes a model's parameters; ``predict`` may
    fill caches of per-language geometry (knn's ``_km``, geo back-off's
    ``_rings``), but no answer depends on them: a language gets the same
    answers alone as in any test set, whatever was predicted before."""

    def fit(self, train: Dataset, context: Dataset | None = None) -> "Imputer":
        raise NotImplementedError

    def predict(self, test: Dataset, cells: np.ndarray) -> Answers:
        """Answer the hidden cells ``cells`` (indices into the cell table
        of ``test``) from the observed cells of ``test``, each at most
        once; a cell the imputer cannot answer is left out."""
        raise NotImplementedError


def by_target(test: Dataset, cells: np.ndarray,
              known: Mapping[str, Any]) -> Iterator[tuple[str, Any, np.ndarray, np.ndarray]]:
    """``cells`` grouped by target feature, in feature order, for the
    targets ``known`` holds: the feature name, ``known[target]``, its
    cells in table order, and their test rows."""
    features = test.cell_feature[cells]
    order = np.argsort(features, kind="stable")
    cells, features = cells[order], features[order]
    starts = np.flatnonzero(np.diff(features, prepend=-1))
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(cells)]):
        target = test.feature_names[features[lo]]
        if target in known:
            yield target, known[target], cells[lo:hi], test.cell_row[cells[lo:hi]]


def decide(cells: np.ndarray, values: Sequence[str], scores: np.ndarray,
           labels: Sequence[str], source: int | np.ndarray = 0,
           mass: np.ndarray | None = None) -> Answers:
    """Answer each of ``cells`` from its row of ``scores`` (cells x
    ``values``, which are sorted): the value of the row's first maximum,
    so a tie goes to the lexicographically smaller value, with its
    share of the row of ``mass`` (``scores`` by default) summed in value
    order.  A row whose mass sums to zero gets no answer.  ``source`` is
    one code into ``labels`` for every cell or one per cell.  A share
    outside [0, 1] raises ``ValueError``."""
    mass = scores if mass is None else mass
    total = np.cumsum(mass, axis=1)[:, -1]
    best = scores.argmax(axis=1)
    share = mass[np.arange(len(best)), best] / np.where(total > 0, total, 1)
    outside = (total > 0) & ~((share >= 0) & (share <= 1))
    if outside.any():
        raise ValueError(f"confidence {share[outside][0]} outside [0, 1]")
    answered = total > 0
    source = np.broadcast_to(np.asarray(source, dtype=np.intp), best.shape)
    return Answers(cells[answered], best[answered], share[answered], source[answered],
                   tuple(values), tuple(labels))


def fill_dataset(imputer: Imputer, test: Dataset) -> Dataset:
    """``test`` filled from one ``predict`` call over its blanked and
    unknown cells: each answered cell becomes observed at its predicted
    value, and a cell without an answer keeps its state (a blanked one
    its gold value).

    The imputer sees only the observed cells of ``test``; an ensemble
    ending in a global-frequency member answers every cell whose feature
    training observes.  ``predict`` gives each answer's confidence and
    source.  An answer for a cell that is not hidden, or a second answer
    for a cell, is a DatasetError.
    """
    cells = np.flatnonzero(test.cell_state != OBSERVED_CODE)
    answers = imputer.predict(test, cells)
    if not np.isin(answers.cell, cells).all():
        raise DatasetError(f"{type(imputer).__name__} answered a cell the test set does not hide")
    # counts and marks, not np.unique: numpy 2.4's plain np.unique
    # imports numpy.ma, over 1 MB of RSS, and every sort adds to a peak
    if np.bincount(answers.cell, minlength=1).max() > 1:
        raise DatasetError(f"{type(imputer).__name__} answered a cell twice")
    # Each distinct answered name is appended once, after the test set's own.
    used = np.zeros(len(answers.names), dtype=bool)
    used[answers.value] = True
    appended: dict[str, int] = {}
    code = np.zeros(len(answers.names), dtype=np.intp)
    for i in np.flatnonzero(used).tolist():
        code[i] = appended.setdefault(answers.names[i], len(test.value_names) + len(appended))
    value, state = test.cell_value.copy(), test.cell_state.copy()
    value[answers.cell] = code[answers.value]
    state[answers.cell] = OBSERVED_CODE
    return replace(test, value_names=test.value_names + list(appended),
                   cell_value=value, cell_state=state)
