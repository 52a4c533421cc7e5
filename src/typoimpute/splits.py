"""Controlled and random train/test splits with evaluation blanking.

The controlled split holds out whole language genera plus a random
sample of the rest, then removes from the training side every language
that shares a genus with a held-out-genus language or lies within a
fixed great-circle radius of one.  Held-out languages get a per-language
blanking ratio, evenly spaced over a configured range and assigned by a
seeded shuffle, and that fraction of their observed feature cells is
hidden (keeping the gold value) for scoring.

All randomness flows from the single seed in the split spec; identical inputs
produce identical splits.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from .configio import ConfigError, read_kv, write_kv
from .geo import coordinates, distance_matrix
from .geo import haversine_km  # noqa: F401  (bench/trace_child.py counts calls through this name)
from .kb import BLANKED_CODE, OBSERVED_CODE, Dataset, DatasetError

__all__ = [
    "SplitError",
    "SplitSpec",
    "LanguageProvenance",
    "SplitResult",
    "DEFAULT_HELD_OUT_GENERA",
    "build_controlled_split",
    "random_split",
    "blank_features",
    "blanking_ratios",
]

# One small genus per macroarea, spread over six continents.
DEFAULT_HELD_OUT_GENERA = (
    "Mayan",
    "Tucanoan",
    "Madang",
    "Mahakiranti",
    "Northern Pama-Nyungan",
    "Nilotic",
)

# Provenance labels
REASON_HELD_GENUS = "held-out-genus"
REASON_RANDOM = "random-sample"
REASON_SAME_GENUS = "same-genus"
REASON_WITHIN_RADIUS = "within-radius"
REASON_NONE = "none"


class SplitError(DatasetError):
    """A split specification cannot be applied to the dataset."""


def _genera(text: str) -> tuple[str, ...]:
    return tuple(g.strip() for g in text.split(",") if g.strip())


# split spec file key -> (SplitSpec field, text parser, text writer)
_SPEC_KEYS = {
    "genera": ("held_out_genera", _genera, ",".join),
    "radius_km": ("exclusion_radius_km", float, str),
    "holdout_fraction": ("random_holdout_fraction", float, str),
    "blank_low": ("blanking_low", float, str),
    "blank_high": ("blanking_high", float, str),
    "seed": ("seed", int, str),
}


@dataclass(frozen=True)
class SplitSpec:
    """Reproducible description of a controlled split."""

    held_out_genera: tuple[str, ...] = DEFAULT_HELD_OUT_GENERA
    exclusion_radius_km: float = 1000.0
    random_holdout_fraction: float = 0.10
    blanking_low: float = 0.05
    blanking_high: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.blanking_low <= self.blanking_high < 1.0:
            raise ConfigError("blanking range must satisfy 0 < low <= high < 1")
        if not 0.0 <= self.random_holdout_fraction <= 1.0:
            raise ConfigError("random holdout fraction must lie in [0, 1]")
        if not 0.0 <= self.exclusion_radius_km < math.inf:
            raise ConfigError("exclusion radius must be finite and nonnegative")

    @classmethod
    def from_file(cls, path: str | Path) -> "SplitSpec":
        kv = read_kv(path)
        unknown = set(kv) - set(_SPEC_KEYS)
        if unknown:
            raise ConfigError(f"unknown split spec keys: {sorted(unknown)}")
        try:
            return cls(**{
                name: parse(kv[key]) for key, (name, parse, _) in _SPEC_KEYS.items() if key in kv
            })
        except ValueError as exc:
            raise ConfigError(f"bad split spec value: {exc}") from None

    def settings(self) -> dict[str, str]:
        """Spec file key -> value text, in file order."""
        return {key: show(getattr(self, name)) for key, (name, _, show) in _SPEC_KEYS.items()}

    def to_file(self, path: str | Path) -> None:
        write_kv(path, self.settings())


@dataclass(frozen=True)
class LanguageProvenance:
    """Why a language landed where it did in a split."""

    code: str
    role: str  # "train" | "test" | "excluded"
    reason: str
    blanking_ratio: Optional[float] = None


@dataclass
class SplitResult:
    train: Dataset
    test: Dataset  # blanked cells carry their gold values
    provenance: list[LanguageProvenance] = field(default_factory=list)


def _stage_seed(seed: int, label: str) -> int:
    """Deterministic per-stage sub-seed; independent of hash randomization."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def even_spacing(low: float, high: float, n: int) -> list[float]:
    """n evenly spaced points covering [low, high] inclusive."""
    if n <= 0:
        return []
    if n == 1:
        return [low]
    step = (high - low) / (n - 1)
    return [low + i * step for i in range(n)]


def blanking_ratios(codes: Sequence[str], spec: SplitSpec) -> dict[str, float]:
    """Assign one target blanking ratio per code.

    Ratios are evenly spaced over the configured range so the whole
    range is covered regardless of test-set size; which language gets
    which ratio is a seeded shuffle.
    """
    ordered = sorted(codes)
    ratios = even_spacing(spec.blanking_low, spec.blanking_high, len(ordered))
    rng = random.Random(_stage_seed(spec.seed, "ratios"))
    rng.shuffle(ratios)
    return dict(zip(ordered, ratios))


def blank_features(test: Dataset, spec: SplitSpec) -> Dataset:
    """Hide a per-language fraction of observed cells, keeping gold values.

    Every language keeps at least one observed and at least one blanked
    cell; the blank count is round-half-up of ratio times the observed
    count, clamped to [1, n-1].  Languages with fewer than two observed
    features cannot satisfy that and raise SplitError.
    """
    ratios = blanking_ratios(test.codes(), spec)
    rng = random.Random(_stage_seed(spec.seed, "cells"))
    state = test.cell_state.copy()
    for code in sorted(test.codes()):
        row = test.rows[code]
        # The observed cells of the language, in feature-name order.
        observed = [i for i in range(test.bounds[row], test.bounds[row + 1])
                    if state[i] == OBSERVED_CODE]
        if len(observed) < 2:
            raise SplitError(
                f"language {code!r} has {len(observed)} observed features; "
                "need at least 2 to blank"
            )
        n_blank = _round_half_up(ratios[code] * len(observed))
        n_blank = max(1, min(len(observed) - 1, n_blank))
        state[rng.sample(observed, n_blank)] = BLANKED_CODE
    return replace(test, cell_state=state)


def random_split(
    d: Dataset,
    fractions: tuple[float, float, float] = (0.90, 0.05, 0.05),
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded partition of the languages into train/dev/test.

    Sizes follow the fractions under the largest-remainder rule, so they
    always sum to the language count.
    """
    if not all(0.0 <= f < math.inf for f in fractions):
        raise ConfigError(f"fractions must be finite and nonnegative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")
    codes = sorted(d.codes())
    rng = random.Random(_stage_seed(seed, "random-split"))
    rng.shuffle(codes)

    n = len(codes)
    exact = [f * n for f in fractions]
    sizes = [math.floor(x) for x in exact]
    by_remainder = sorted(
        range(len(fractions)), key=lambda i: (-(exact[i] - sizes[i]), i)
    )
    for i in range(n - sum(sizes)):
        sizes[by_remainder[i]] += 1

    out = []
    start = 0
    for size in sizes:
        out.append(d.subset(codes[start : start + size]))
        start += size
    return out[0], out[1], out[2]


def build_controlled_split(d: Dataset, spec: SplitSpec) -> SplitResult:
    """Hold out whole genera plus a random sample, with leakage control.

    The test set is every language of the held-out genera, plus a seeded
    random sample of the remaining languages.  Training keeps the rest,
    minus any language sharing a genus with a held-out-genus language
    and minus any language within the exclusion radius of one.  Only the
    held-out genera trigger exclusion; the random sample does not.
    """
    genera_present = {lang.genus for lang in d.languages}
    for genus in spec.held_out_genera:
        if genus not in genera_present:
            raise SplitError(f"held-out genus {genus!r} not present in dataset")

    held = [lang for lang in d.languages if lang.genus in set(spec.held_out_genera)]
    held_codes = {lang.code for lang in held}
    remainder = [lang for lang in d.languages if lang.code not in held_codes]

    rng = random.Random(_stage_seed(spec.seed, "sample"))
    n_sample = _round_half_up(spec.random_holdout_fraction * len(remainder))
    sampled = set(rng.sample(sorted(lang.code for lang in remainder), n_sample))

    held_genera = {lang.genus for lang in held}
    near_held = (
        distance_matrix(coordinates(d.languages), coordinates(held)) <= spec.exclusion_radius_km
    ).any(axis=1)

    provenance: list[LanguageProvenance] = []
    train_codes: list[str] = []
    test_codes: list[str] = []
    for lang, near in zip(d.languages, near_held.tolist()):
        if lang.code in held_codes:
            test_codes.append(lang.code)
            provenance.append(LanguageProvenance(lang.code, "test", REASON_HELD_GENUS))
        elif lang.code in sampled:
            test_codes.append(lang.code)
            provenance.append(LanguageProvenance(lang.code, "test", REASON_RANDOM))
        elif lang.genus in held_genera:
            provenance.append(LanguageProvenance(lang.code, "excluded", REASON_SAME_GENUS))
        elif near:
            provenance.append(LanguageProvenance(lang.code, "excluded", REASON_WITHIN_RADIUS))
        else:
            train_codes.append(lang.code)
            provenance.append(LanguageProvenance(lang.code, "train", REASON_NONE))

    train = d.subset(train_codes)
    test = blank_features(d.subset(test_codes), spec)

    ratios = blanking_ratios(test_codes, spec)
    provenance = [
        replace(p, blanking_ratio=ratios[p.code]) if p.role == "test" else p
        for p in provenance
    ]
    return SplitResult(train=train, test=test, provenance=provenance)


def provenance_csv(provenance: Sequence[LanguageProvenance]) -> str:
    """Comma-separated provenance table: code, role, reason, ratio; a
    field holding a comma or a quote is quoted."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["code", "role", "reason", "blanking_ratio"])
    for p in provenance:
        ratio = "" if p.blanking_ratio is None else repr(p.blanking_ratio)
        rows.writerow([p.code, p.role, p.reason, ratio])
    return out.getvalue()
