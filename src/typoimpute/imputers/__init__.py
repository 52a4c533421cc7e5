"""Imputation systems for filling unknown feature values."""

from .base import (
    Imputer,
    NoPredictionError,
    Prediction,
    fill_dataset,
)
from .config import KNOWN_KEYS, METHODS, build_imputer
from .correlation import CorrelationImputer
from .ensemble import POLICIES, EnsembleImputer
from .frequency import (
    GenusFamilyBackoffImputer,
    GeoBackoffImputer,
    GlobalFrequencyImputer,
)
from .knn import NearestNeighborImputer, load_language_vectors
from .ridge import (
    ALL_BLOCKS,
    PriorFeatureSpace,
    RidgePriorImputer,
    solve_ridge,
)

__all__ = [
    "Imputer",
    "NoPredictionError",
    "Prediction",
    "fill_dataset",
    "KNOWN_KEYS",
    "METHODS",
    "build_imputer",
    "CorrelationImputer",
    "POLICIES",
    "EnsembleImputer",
    "GenusFamilyBackoffImputer",
    "GeoBackoffImputer",
    "GlobalFrequencyImputer",
    "NearestNeighborImputer",
    "load_language_vectors",
    "ALL_BLOCKS",
    "PriorFeatureSpace",
    "RidgePriorImputer",
    "solve_ridge",
]
