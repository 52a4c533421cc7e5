"""Combining several imputers into one."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kb import Dataset
from .base import Imputer, Prediction

__all__ = ["EnsembleImputer", "POLICIES"]

POLICIES = ("max_confidence", "first_success")


class EnsembleImputer(Imputer):
    """Delegates the cells of a test set to member imputers.

    ``max_confidence`` asks every member and keeps, cell by cell, the
    most confident answer (earlier member wins ties); ``first_success``
    asks each member in turn about the cells no earlier member answered.
    Member predictions are returned unchanged, so an ensemble of one
    behaves exactly like its member.
    """

    def __init__(self, members: Sequence[Imputer], policy: str = "max_confidence"):
        if not members:
            raise ValueError("ensemble needs at least one member")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.members = list(members)
        self.policy = policy

    def fit(self, train: Dataset, context: Dataset | None = None) -> "EnsembleImputer":
        for member in self.members:
            member.fit(train, context)
        return self

    def predict(self, test: Dataset, cells: np.ndarray) -> dict[int, Prediction]:
        out: dict[int, Prediction] = {}
        for member in self.members:
            if self.policy == "first_success":
                cells = np.array([c for c in cells.tolist() if c not in out], dtype=np.intp)
                if not len(cells):
                    break
                out.update(member.predict(test, cells))
            else:
                for cell, candidate in member.predict(test, cells).items():
                    if cell not in out or candidate.confidence > out[cell].confidence:
                        out[cell] = candidate
        return out
