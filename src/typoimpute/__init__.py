"""Imputation and evaluation toolkit for sparse typological knowledge
bases.

Languages carry categorical structural features (word order, case
marking, ...) in a tab-separated knowledge base where most cells are
unknown.  This package parses and filters such data, builds controlled
train/test splits that hold out whole genera and their geographic
neighborhoods, fills hidden cells with a family of imputation systems,
and scores the results with genus-balanced accuracy and paired
permutation significance tests.
"""

from .configio import ConfigError
from .evaluate import (
    EvalReport,
    EvaluationError,
    SystemOutput,
    UndefinedCorrelationError,
    score,
)
from .geo import EARTH_RADIUS_KM, GeoPoint, haversine_km
from .imputers import (
    Imputer,
    ImputerQuery,
    NoPredictionError,
    Prediction,
    build_imputer,
    fill_dataset,
)
from .kb import (
    Cell,
    Dataset,
    DatasetError,
    Language,
    ParseError,
    filter_dataset,
    parse_dataset,
    serialize_dataset,
)
from .splits import (
    DEFAULT_HELD_OUT_GENERA,
    SplitError,
    SplitResult,
    SplitSpec,
    build_controlled_split,
    random_split,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EvalReport",
    "EvaluationError",
    "SystemOutput",
    "UndefinedCorrelationError",
    "score",
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "haversine_km",
    "Imputer",
    "ImputerQuery",
    "NoPredictionError",
    "Prediction",
    "build_imputer",
    "fill_dataset",
    "Cell",
    "Dataset",
    "DatasetError",
    "Language",
    "ParseError",
    "filter_dataset",
    "parse_dataset",
    "serialize_dataset",
    "DEFAULT_HELD_OUT_GENERA",
    "SplitError",
    "SplitResult",
    "SplitSpec",
    "build_controlled_split",
    "random_split",
    "__version__",
]
