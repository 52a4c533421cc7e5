"""Common imputer interface: fit on a training dataset, then answer
(language, target feature) queries with a value and a confidence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..kb import OBSERVED_CODE, Dataset, Language

__all__ = [
    "NoPredictionError",
    "ImputerQuery",
    "Prediction",
    "Imputer",
    "fill_dataset",
]


class NoPredictionError(Exception):
    """The imputer cannot answer this query; callers may back off."""


@dataclass(frozen=True)
class ImputerQuery:
    """One cell to fill: the language, its visible features, the target."""

    language: Language
    observed: Mapping[str, str]
    target: str

    def __post_init__(self):
        if self.target in self.observed:
            raise ValueError(f"target {self.target!r} is already observed")


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

    def predict(self, query: ImputerQuery) -> Prediction:
        raise NotImplementedError


def _mode(values: list[str], counts: np.ndarray) -> Optional[tuple[str, float]]:
    """Most frequent value with its share of ``counts`` (one per value);
    values are sorted, so the first maximum breaks ties on the
    lexicographically smaller value.  None for empty counts."""
    total = int(counts.sum())
    if total <= 0:
        return None
    best = int(counts.argmax())
    return values[best], int(counts[best]) / total


def fill_dataset(imputer: Imputer, test: Dataset) -> dict[tuple[str, str], Prediction]:
    """Predict every blanked and unknown cell of ``test``.

    Queries see only the language's observed cells.  Iteration order is
    fixed (dataset order, then feature name), so results are
    deterministic.  A cell the imputer cannot answer is left out of the
    result; a ``first_success`` ensemble ending in a global-frequency
    member answers every cell whose feature training observes.
    """
    out: dict[tuple[str, str], Prediction] = {}
    hidden = test.cell_state != OBSERVED_CODE
    for row, lang in enumerate(test.languages):
        span = slice(test.bounds[row], test.bounds[row + 1])
        observed = test.observed_of(lang.code)
        for feature in test.cell_feature[span][hidden[span]].tolist():
            target = test.feature_names[feature]
            query = ImputerQuery(language=lang, observed=observed, target=target)
            try:
                out[(lang.code, target)] = imputer.predict(query)
            except NoPredictionError:
                continue
    return out
