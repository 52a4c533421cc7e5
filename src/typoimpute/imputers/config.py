"""Building imputers from key=value configuration.

Two tables drive the builder: each method's module, class and the
config keys it reads, and each key's constructor argument and text
parser.  A key the config leaves out is not passed, so every default
and range check lives in the imputer's constructor alone.  A method's
module is imported only when a config builds it.
"""

from __future__ import annotations

import math
from importlib import import_module
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from ..configio import ConfigError
from .base import Imputer
from .ensemble import EnsembleImputer

__all__ = ["METHODS", "KNOWN_KEYS", "build_imputer"]


def _number(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _integer(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None


def _flag(key: str, text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {text!r}")


def _names(key: str, text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# config key -> (constructor argument, text parser)
_SETTINGS: dict[str, tuple[str, Callable[[str, str], object]]] = {
    "k": ("k", _integer),
    "near_km": ("near_km", _number),
    "far_km": ("far_km", _number),
    "alpha": ("alpha", _number),
    "min_support": ("min_support", _integer),
    "lambda": ("lam", _number),
    "areal_km": ("areal_km", _number),
    "blocks": ("blocks", _names),
    "use_context": ("use_context", _flag),
    "members": ("members", _names),
}

# method -> (module, class, the config keys it reads)
_METHODS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "frequency": ("frequency", "GlobalFrequencyImputer", ()),
    "genus_family": ("frequency", "GenusFamilyBackoffImputer", ()),
    "geo_backoff": ("frequency", "GeoBackoffImputer", ("near_km", "far_km")),
    "knn": ("knn", "NearestNeighborImputer", ("k",)),
    "correlation": ("correlation", "CorrelationImputer", ("alpha", "min_support")),
    "ridge": ("ridge", "RidgePriorImputer",
              ("lambda", "areal_km", "min_support", "blocks", "use_context")),
    "ensemble": ("ensemble", "EnsembleImputer", ("members",)),
}

METHODS = tuple(_METHODS)
KNOWN_KEYS = frozenset({"method"}.union(*(keys for _, _, keys in _METHODS.values())))


def build_imputer(
    config: Mapping[str, str],
    vectors: Mapping[str, np.ndarray] | str | Path | None = None,
) -> Imputer:
    """Construct an imputer from a key=value mapping.

    The ``method`` key selects the system; the keys it reads override
    its constructor's defaults, and any other key is a ConfigError.  An
    ensemble lists its members as a comma-separated ``members`` value,
    and every member is built from this same mapping, so a key is valid
    when any member reads it.  ``vectors`` go to the ``knn`` imputer;
    passing them to a method with no knn member is a ConfigError, as is
    a value an imputer rejects.  A vector file is read only once the
    config is known to have a knn member.
    """
    unknown = set(config) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    method = config.get("method")
    if method is None:
        raise ConfigError("config is missing the method key")
    read = {"method"}
    try:
        imputer = _build(method, config, read)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    unread = set(config) - read
    if unread:
        raise ConfigError(
            f"method {method} does not read config keys: {', '.join(sorted(unread))}"
        )
    if vectors is not None:
        from .knn import NearestNeighborImputer, load_language_vectors

        built = imputer.members if isinstance(imputer, EnsembleImputer) else [imputer]
        knn = [m for m in built if isinstance(m, NearestNeighborImputer)]
        if not knn:
            raise ConfigError(f"method {method} does not read language vectors; only knn does")
        if isinstance(vectors, (str, Path)):
            vectors = load_language_vectors(vectors)
        for member in knn:
            member.vectors = dict(vectors)
    return imputer


def _build(
    method: str,
    config: Mapping[str, str],
    read: set[str],
) -> Imputer:
    """Build ``method`` from the keys it reads, adding them to ``read``."""
    if method not in _METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    module, name, keys = _METHODS[method]
    read.update(keys)
    settings = {}
    for key in keys:
        if key in config:
            argument, parse = _SETTINGS[key]
            settings[argument] = parse(key, config[key])
    cls = getattr(import_module(f".{module}", __package__), name)
    if cls is EnsembleImputer:
        if "members" not in settings:
            raise ConfigError("ensemble config is missing the members key")
        if not settings["members"]:
            raise ConfigError("ensemble members list is empty")
        if "ensemble" in settings["members"]:
            raise ConfigError("ensembles cannot nest")
        settings["members"] = [_build(name, config, read) for name in settings["members"]]
    return cls(**settings)
