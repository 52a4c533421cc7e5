"""Building imputers from key=value configuration."""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from ..configio import ConfigError
from .base import Imputer
from .correlation import CorrelationImputer
from .ensemble import POLICIES, EnsembleImputer
from .frequency import GenusFamilyBackoffImputer, GeoBackoffImputer, GlobalFrequencyImputer
from .knn import NearestNeighborImputer
from .ridge import ALL_BLOCKS, RidgePriorImputer

__all__ = ["METHODS", "KNOWN_KEYS", "build_imputer"]

METHODS = (
    "frequency",
    "genus_family",
    "geo_backoff",
    "knn",
    "correlation",
    "ridge",
    "ensemble",
)

KNOWN_KEYS = frozenset(
    {
        "method",
        "k",
        "near_km",
        "far_km",
        "alpha",
        "min_support",
        "lambda",
        "areal_km",
        "blocks",
        "use_context",
        "members",
        "policy",
    }
)


def _get_float(config: Mapping[str, str], key: str, default: float) -> float:
    if key not in config:
        return default
    try:
        value = float(config[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {config[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {config[key]!r}")
    return value


def _get_int(config: Mapping[str, str], key: str, default: int) -> int:
    if key not in config:
        return default
    try:
        return int(config[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {config[key]!r}") from None


def _get_bool(config: Mapping[str, str], key: str, default: bool) -> bool:
    if key not in config:
        return default
    value = config[key].strip().lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {config[key]!r}")


def build_imputer(
    config: Mapping[str, str],
    vectors: Optional[Mapping[str, np.ndarray]] = None,
) -> Imputer:
    """Construct an imputer from a key=value mapping.

    The ``method`` key selects the system; the remaining keys override
    its defaults.  An ensemble lists its members as a comma-separated
    ``members`` value, and every member is built from this same mapping,
    so shared parameter overrides apply to each.  A value an imputer
    rejects raises ConfigError.
    """
    unknown = set(config) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    method = config.get("method")
    if method is None:
        raise ConfigError("config is missing the method key")
    try:
        return _build(method, config, vectors)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build(
    method: str,
    config: Mapping[str, str],
    vectors: Optional[Mapping[str, np.ndarray]],
) -> Imputer:
    if method == "frequency":
        return GlobalFrequencyImputer()
    if method == "genus_family":
        return GenusFamilyBackoffImputer()
    if method == "geo_backoff":
        return GeoBackoffImputer(
            near_km=_get_float(config, "near_km", 1000.0),
            far_km=_get_float(config, "far_km", 2000.0),
        )
    if method == "knn":
        return NearestNeighborImputer(
            k=_get_int(config, "k", 1),
            vectors=vectors,
        )
    if method == "correlation":
        return CorrelationImputer(
            alpha=_get_float(config, "alpha", 1.0),
            min_support=_get_int(config, "min_support", 5),
        )
    if method == "ridge":
        blocks: Sequence[str] = ALL_BLOCKS
        if "blocks" in config:
            blocks = tuple(part.strip() for part in config["blocks"].split(",") if part.strip())
            if not blocks:
                raise ConfigError("blocks must name at least one prior block")
            bad = set(blocks) - set(ALL_BLOCKS)
            if bad:
                raise ConfigError(
                    f"unknown prior blocks: {', '.join(sorted(bad))}; "
                    f"expected a subset of {ALL_BLOCKS}"
                )
        return RidgePriorImputer(
            lam=_get_float(config, "lambda", 1.0),
            areal_km=_get_float(config, "areal_km", 2500.0),
            min_support=_get_int(config, "min_support", 5),
            blocks=blocks,
            use_context=_get_bool(config, "use_context", False),
        )
    if method == "ensemble":
        if "members" not in config:
            raise ConfigError("ensemble config is missing the members key")
        names = [part.strip() for part in config["members"].split(",") if part.strip()]
        if not names:
            raise ConfigError("ensemble members list is empty")
        if "ensemble" in names:
            raise ConfigError("ensembles cannot nest")
        members = [_build(name, config, vectors) for name in names]
        policy = config.get("policy", "max_confidence")
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        return EnsembleImputer(members, policy=policy)
    raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
