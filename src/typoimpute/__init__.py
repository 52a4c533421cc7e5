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

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it; __getattr__ imports a
# submodule on first use, so importing the package loads none of them
_EXPORTS = {
    "ConfigError": "configio",
    "EvalReport": "evaluate",
    "EvaluationError": "errors",
    "SystemOutput": "evaluate",
    "UndefinedCorrelationError": "evaluate",
    "score": "evaluate",
    "EARTH_RADIUS_KM": "geo",
    "haversine_km": "geo",
    "Answers": "imputers",
    "Imputer": "imputers",
    "NoPredictionError": "imputers",
    "build_imputer": "imputers",
    "fill_dataset": "imputers",
    "Dataset": "kb",
    "DatasetError": "errors",
    "Language": "kb",
    "ParseError": "errors",
    "filter_dataset": "kb",
    "parse_dataset": "kb",
    "serialize_dataset": "kb",
    "DEFAULT_HELD_OUT_GENERA": "splits",
    "SplitError": "splits",
    "SplitResult": "splits",
    "SplitSpec": "splits",
    "build_controlled_split": "splits",
    "random_split": "splits",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
