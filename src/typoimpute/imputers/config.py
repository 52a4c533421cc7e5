"""Building imputers from key=value configuration.

Two tables drive the builder: each method's class and the config keys
it reads, and each key's constructor argument and text parser.  A key
the config leaves out is not passed, so every default and range check
lives in the imputer's constructor alone.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional

import numpy as np

from ..configio import ConfigError
from .base import Imputer
from .correlation import CorrelationImputer
from .ensemble import EnsembleImputer
from .frequency import GenusFamilyBackoffImputer, GeoBackoffImputer, GlobalFrequencyImputer
from .knn import NearestNeighborImputer
from .ridge import RidgePriorImputer

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
    "policy": ("policy", lambda key, text: text),
}

# method -> (class, the config keys it reads)
_METHODS: dict[str, tuple[type[Imputer], tuple[str, ...]]] = {
    "frequency": (GlobalFrequencyImputer, ()),
    "genus_family": (GenusFamilyBackoffImputer, ()),
    "geo_backoff": (GeoBackoffImputer, ("near_km", "far_km")),
    "knn": (NearestNeighborImputer, ("k",)),
    "correlation": (CorrelationImputer, ("alpha", "min_support")),
    "ridge": (RidgePriorImputer, ("lambda", "areal_km", "min_support", "blocks", "use_context")),
    "ensemble": (EnsembleImputer, ("members", "policy")),
}

METHODS = tuple(_METHODS)
KNOWN_KEYS = frozenset({"method"}.union(*(keys for _, keys in _METHODS.values())))


def build_imputer(
    config: Mapping[str, str],
    vectors: Optional[Mapping[str, np.ndarray]] = None,
) -> Imputer:
    """Construct an imputer from a key=value mapping.

    The ``method`` key selects the system; the keys it reads override
    its constructor's defaults, and any other key is a ConfigError.  An
    ensemble lists its members as a comma-separated ``members`` value,
    and every member is built from this same mapping, so a key is valid
    when any member reads it.  ``vectors`` go to the ``knn`` imputer.
    A value an imputer rejects raises ConfigError.
    """
    unknown = set(config) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    method = config.get("method")
    if method is None:
        raise ConfigError("config is missing the method key")
    read = {"method"}
    try:
        imputer = _build(method, config, vectors, read)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    unread = set(config) - read
    if unread:
        raise ConfigError(
            f"method {method} does not read config keys: {', '.join(sorted(unread))}"
        )
    return imputer


def _build(
    method: str,
    config: Mapping[str, str],
    vectors: Optional[Mapping[str, np.ndarray]],
    read: set[str],
) -> Imputer:
    """Build ``method`` from the keys it reads, adding them to ``read``."""
    if method not in _METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    cls, keys = _METHODS[method]
    read.update(keys)
    settings = {}
    for key in keys:
        if key in config:
            argument, parse = _SETTINGS[key]
            settings[argument] = parse(key, config[key])
    if cls is NearestNeighborImputer:
        settings["vectors"] = vectors
    if cls is EnsembleImputer:
        if "members" not in settings:
            raise ConfigError("ensemble config is missing the members key")
        if not settings["members"]:
            raise ConfigError("ensemble members list is empty")
        if "ensemble" in settings["members"]:
            raise ConfigError("ensembles cannot nest")
        settings["members"] = [_build(name, config, vectors, read) for name in settings["members"]]
    return cls(**settings)
