"""Combining several imputers into one."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kb import Dataset
from .base import Answers, Imputer

__all__ = ["EnsembleImputer"]


class EnsembleImputer(Imputer):
    """Delegates the cells of a test set to member imputers.

    Each member in turn is asked about the cells no earlier member
    answered, in the order given.  Member answers are returned
    unchanged, so an ensemble of one behaves exactly like its member.
    """

    def __init__(self, members: Sequence[Imputer]):
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = list(members)

    def fit(self, train: Dataset, context: Dataset | None = None) -> "EnsembleImputer":
        for member in self.members:
            member.fit(train, context)
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> Answers:
        parts = []
        answered = np.zeros(len(cells), dtype=bool)
        for member in self.members:
            if answered.all():
                break
            parts.append(member.predict(test, cells[~answered]))
            answered |= np.isin(cells, parts[-1].cell)
        return Answers.join(parts)
