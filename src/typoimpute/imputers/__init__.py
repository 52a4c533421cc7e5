"""Imputation systems for filling unknown feature values."""

from importlib import import_module

# public name -> the submodule that defines it; __getattr__ imports a
# submodule on first use, so a run imports only the imputers it builds
_EXPORTS = {
    "Answers": "base",
    "Imputer": "base",
    "NoPredictionError": "base",
    "fill_dataset": "base",
    "KNOWN_KEYS": "config",
    "METHODS": "config",
    "build_imputer": "config",
    "CorrelationImputer": "correlation",
    "EnsembleImputer": "ensemble",
    "GenusFamilyBackoffImputer": "frequency",
    "GeoBackoffImputer": "frequency",
    "GlobalFrequencyImputer": "frequency",
    "NearestNeighborImputer": "knn",
    "load_language_vectors": "knn",
    "ALL_BLOCKS": "ridge",
    "PriorFeatureSpace": "ridge",
    "RidgePriorImputer": "ridge",
    "solve_ridge": "ridge",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
