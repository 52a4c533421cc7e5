"""Seeded generator of WALS-shaped typological datasets.

The output is the eight-column tab-separated format the ``typoimpute``
CLI reads.  Everything is drawn from one ``random.Random`` seeded with
the workload name and the seed, so the same pair always gives a
byte-identical file.  The shape of a dataset is fixed per workload
(language count, feature count, mean density, held-out genus sizes);
the seed moves the content: families, coordinates, latent types and
which cells are observed.

Structure that the imputers and splits depend on:

* Values are correlated through a latent type.  Each family draws a
  type, a genus usually inherits it, a language usually inherits its
  genus's type, and every feature maps each type to a preferred value.
  Genus, family, areal and cross-feature evidence therefore all carry
  signal, and the imputers differ in how much of it they use.
* Family sizes are heavy-tailed, with isolate families of one language.
* The six genera that ``typoimpute split`` holds out by default are
  present.  Three of them are the only genus of their family, so once
  held out their family is absent from training and ``geo_backoff``
  falls through to its neighbourhood levels.
* A few records carry stray tabs inside the feature column.
* Workloads with a density filter get sparse languages and rare
  features for the filter to drop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["Shape", "HELD_OUT_GENERA", "generate"]

# The genera ``typoimpute split`` holds out when no spec is given, each
# with its family and a macroarea centre (lat, lon).  Family None means
# the genus is the only genus of a family named after it.
HELD_OUT_GENERA = (
    ("Mayan", None, (16.0, -91.0)),
    ("Tucanoan", None, (0.5, -70.0)),
    ("Madang", "Trans-New Guinea", (-5.0, 145.5)),
    ("Mahakiranti", "Sino-Tibetan", (27.5, 86.5)),
    ("Northern Pama-Nyungan", "Pama-Nyungan", (-14.0, 135.0)),
    ("Nilotic", None, (4.0, 32.0)),
)

# Macroarea centres for the other families: Africa, Eurasia, South-East
# Asia, New Guinea and the Pacific, Australia, North and South America.
AREAS = (
    (5.0, 20.0),
    (48.0, 40.0),
    (20.0, 100.0),
    (-6.0, 150.0),
    (-25.0, 133.0),
    (45.0, -100.0),
    (-12.0, -60.0),
)

_WORDS = (
    "Dominant", "Mixed", "Prefix", "Suffix", "None", "Present", "Absent",
    "Initial", "Final", "Marked", "Neutral", "Fused", "Isolating", "Tonal",
)

N_TYPES = 5


@dataclass(frozen=True)
class Shape:
    """Size of one generated dataset."""

    languages: int
    features: int
    density: float  # mean share of a language's features that are observed
    held_sizes: tuple[int, ...]  # languages per default held-out genus
    near_size: int  # languages of the genus planted next to each held-out genus
    sparse_share: float = 0.0  # share of languages with only 1 to 3 observed features
    rare_features: int = 0  # features observed by fewer than 10 languages


def _point(rng: random.Random, centre: tuple[float, float], sd_deg: float) -> tuple[float, float]:
    lat = max(-85.0, min(85.0, rng.gauss(centre[0], sd_deg)))
    lon = (rng.gauss(centre[1], sd_deg) + 180.0) % 360.0 - 180.0
    return lat, lon


def _km(a: tuple[float, float], b: tuple[float, float]) -> float:
    lat1, lat2 = math.radians(a[0]), math.radians(b[0])
    h = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(math.radians(b[1] - a[1]) / 2) ** 2)
    return 2 * 6371.0 * math.asin(math.sqrt(min(1.0, h)))


def _families(rng: random.Random, n: int) -> list[tuple[str, list[tuple[str, int]]]]:
    """Heavy-tailed families, each a list of (genus, size), summing to n."""
    families = []
    left = n
    index = 0
    while left > 0:
        index += 1
        size = min(left, max(1, int(rng.paretovariate(1.1))), 60)
        left -= size
        name = f"Fam{index:03d}"
        if size == 1:
            families.append((f"Isolate{index:03d}", [(f"Isolate{index:03d}", 1)]))
            continue
        genera = []
        remaining = size
        g = 0
        while remaining > 0:
            g += 1
            gsize = min(remaining, rng.randint(2, 12))
            genera.append((f"{name}-G{g:02d}", gsize))
            remaining -= gsize
        families.append((name, genera))
    return families


def _inventory(rng: random.Random) -> tuple[str, ...]:
    k = rng.choice((2, 2, 3, 3, 3, 4, 4, 5, 6))
    words = rng.sample(_WORDS, k)
    return tuple(f"{j + 1} {word}" for j, word in enumerate(words))


def generate(shape: Shape, workload: str, seed: int) -> str:
    """Return the dataset text for ``workload`` and ``seed``."""
    rng = random.Random(f"typoimpute-bench:{workload}:{seed}")

    names = [f"{10 + i}A Feature {i + 1}" for i in range(shape.features)]
    inventories = [_inventory(rng) for _ in range(shape.features)]
    preferred = [[rng.randrange(len(inv)) for _ in range(N_TYPES)] for inv in inventories]
    # How often a language shows its type's preferred value, evenly
    # spread over features so every seed has the same mean.
    fidelity = [0.55 + 0.35 * (i + 0.5) / shape.features for i in range(shape.features)]
    rng.shuffle(fidelity)
    # Heavy-tailed coverage: a few features are observed almost
    # everywhere, most in a minority of languages.
    weights = [rng.lognormvariate(0.0, 0.8) for _ in names]
    rare = rng.sample(range(shape.features), shape.rare_features)
    common = [f for f in range(shape.features) if f not in rare]

    # (code, name, lat, lon, genus, family, type)
    records: list[tuple[str, str, float, float, str, str, int]] = []

    def add(genus, family, centre, size, ftype, spread=4.0):
        gtype = ftype if rng.random() < 0.8 else rng.randrange(N_TYPES)
        gcentre = _point(rng, centre, spread)
        for _ in range(size):
            ltype = gtype if rng.random() < 0.85 else rng.randrange(N_TYPES)
            lat, lon = _point(rng, gcentre, 1.5)
            code = f"l{len(records):04d}"
            records.append((code, f"Lang {len(records)}", lat, lon, genus, family, ltype))

    held_total = sum(shape.held_sizes)
    siblings = []
    for (genus, family, centre), size in zip(HELD_OUT_GENERA, shape.held_sizes):
        ftype = rng.randrange(N_TYPES)
        add(genus, family or genus, centre, size, ftype, spread=1.0)
        if family is not None:
            # Sibling genera 20 degrees east, beyond the default 1000 km
            # exclusion radius, keep the family in training.
            far = (centre[0], (centre[1] + 20.0 + 180.0) % 360.0 - 180.0)
            siblings.append((family, far, ftype))
    for family, far, ftype in siblings:
        for g in range(2):
            add(f"{family} G{g + 1}", family, far, 5, ftype, spread=1.5)
    # One unrelated genus next to each held-out genus, which the split's
    # exclusion radius removes from training.  Every other family keeps
    # its distance, so the excluded count hardly depends on the seed.
    for genus, _, centre in HELD_OUT_GENERA:
        add(f"Near {genus}", f"Near {genus}", centre, shape.near_size,
            rng.randrange(N_TYPES), spread=2.0)
    held_centres = [centre for _, _, centre in HELD_OUT_GENERA]
    for family, genera in _families(rng, shape.languages - len(records)):
        centre = _point(rng, rng.choice(AREAS), 12.0)
        while min(_km(centre, h) for h in held_centres) < 2200.0:
            centre = _point(rng, rng.choice(AREAS), 12.0)
        ftype = rng.randrange(N_TYPES)
        for genus, size in genera:
            add(genus, family, centre, size, ftype)

    held_codes = {r[0] for r in records[:held_total]}
    rare_holders = {f: set(rng.sample(range(len(records)), rng.randint(3, 8))) for f in rare}
    order = list(range(len(records)))
    rng.shuffle(order)

    target = shape.density * shape.features
    mu = math.log(target) - 0.03  # lognormal(mu, 0.25) has mean ~target
    lines = ["wals_code\tname\tlatitude\tlongitude\tgenus\tfamily\tcountrycodes\tfeatures"]
    for i in order:
        code, name, lat, lon, genus, family, ltype = records[i]
        if code not in held_codes and rng.random() < shape.sparse_share:
            n_obs = rng.randint(1, 3)
        else:
            low = 6 if code in held_codes else 4
            n_obs = max(low, min(len(common), round(rng.lognormvariate(mu, 0.25))))
        # Weighted sampling without replacement (Efraimidis-Spirakis keys).
        keyed = sorted((rng.random() ** (1.0 / weights[f]), f) for f in common)
        chosen = sorted([f for _, f in keyed[-n_obs:]] + [f for f in rare if i in rare_holders[f]])
        parts = []
        for f in chosen:
            inv = inventories[f]
            if rng.random() < fidelity[f]:
                value = inv[preferred[f][ltype]]
            else:
                value = inv[rng.randrange(len(inv))]
            parts.append(f"{names[f]}={value}")
        feature_field = " | ".join(parts)
        if rng.random() < 0.01:
            # Stray tabs, as real exports have them; the parser folds
            # them back to single spaces.
            feature_field = feature_field.replace(" | ", "\t| ", 1).replace(" ", "\t", 1)
        country = f"C{rng.randrange(90):02d}"
        lines.append(
            f"{code}\t{name}\t{lat:.4f}\t{lon:.4f}\t{genus}\t{family}\t{country}\t{feature_field}"
        )
    return "\n".join(lines) + "\n"
