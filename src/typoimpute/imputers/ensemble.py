"""Combining several imputers into one."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kb import Dataset
from .base import Imputer, Prediction

__all__ = ["EnsembleImputer"]


class EnsembleImputer(Imputer):
    """Delegates the cells of a test set to member imputers.

    Each member in turn is asked about the cells no earlier member
    answered.  Member predictions are returned unchanged, so an ensemble
    of one behaves exactly like its member.
    """

    def __init__(self, members: Sequence[Imputer]):
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = list(members)

    def fit(self, train: Dataset, context: Dataset | None = None) -> "EnsembleImputer":
        for member in self.members:
            member.fit(train, context)
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> dict[int, Prediction]:
        out: dict[int, Prediction] = {}
        for member in self.members:
            cells = np.array([c for c in cells.tolist() if c not in out], dtype=np.intp)
            if not len(cells):
                break
            out.update(member.predict(test, cells))
        return out
