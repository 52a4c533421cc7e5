"""Independent brute-force oracles the test suite checks the package
against.

Everything here is implemented from the documented rules, on purpose
without reusing package internals, so a bug in the implementation
cannot hide in its own oracle.  High-precision geometry and the
Student-t tail use mpmath.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from collections import Counter

import numpy as np
from mpmath import mp, mpf

from synth import Answer, cells_of, language_of

OBSERVED = "observed"
OBSERVED_CODE = 0  # its code in a Dataset's cell_state


# ---------------------------------------------------------------------------
# geometry


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float, dps: int = 40) -> float:
    """Haversine distance at high precision, IUGG mean radius."""
    old = mp.dps
    mp.dps = dps
    try:
        radius = mpf("6371.0088")
        phi1 = mp.radians(mpf(lat1))
        phi2 = mp.radians(mpf(lat2))
        dphi = mp.radians(mpf(lat2) - mpf(lat1))
        dlmb = mp.radians(mpf(lon2) - mpf(lon1))
        h = mp.sin(dphi / 2) ** 2 + mp.cos(phi1) * mp.cos(phi2) * mp.sin(dlmb / 2) ** 2
        if h > 1:
            h = mpf(1)
        return float(2 * radius * mp.asin(mp.sqrt(h)))
    finally:
        mp.dps = old


def distance_matrix_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``geo.distance_matrix`` as one expression with a fresh temporary
    per step: the kernel evaluated into buffers must match it bit for
    bit."""
    radius = 6371.0088
    dlat = np.radians(np.abs(a[:, None, 0] - b[None, :, 0]))
    dlon = np.radians(np.abs(a[:, None, 1] - b[None, :, 1]))
    cos_a = np.cos(np.radians(a[:, 0]))[:, None]
    cos_b = np.cos(np.radians(b[:, 0]))[None, :]
    h = np.sin(dlat / 2.0) ** 2 + cos_a * cos_b * np.sin(dlon / 2.0) ** 2
    return 2.0 * radius * np.arcsin(np.sqrt(np.minimum(1.0, h)))


# ---------------------------------------------------------------------------
# dataset access without package helpers


def observed_maps(dataset) -> dict[str, dict[str, str]]:
    """code -> feature -> value over observed cells, read raw."""
    out: dict[str, dict[str, str]] = {lang.code: {} for lang in dataset.languages}
    for (code, feature), cell in cells_of(dataset).items():
        if cell.state == OBSERVED:
            out[code][feature] = cell.value
    return out


def inventory(dataset, target: str) -> list[str]:
    values = {
        cell.value
        for (_, feature), cell in cells_of(dataset).items()
        if feature == target and cell.state == OBSERVED
    }
    return sorted(values)


def _mode(counts: Counter) -> tuple[str, float] | None:
    if not counts:
        return None
    value = min(counts, key=lambda v: (-counts[v], v))
    return value, counts[value] / sum(counts.values())


# ---------------------------------------------------------------------------
# parsing


_LAT_HEADERS = {"lat", "latitude"}
_LON_HEADERS = {"long", "lon", "longitude"}


def _parse_feature_field(raw: str, lineno: int) -> list[tuple[str, str]]:
    from typoimpute.kb import ParseError

    pairs = []
    for segment in raw.split("|"):
        segment = segment.strip()
        if not segment:
            continue
        if "=" not in segment:
            raise ParseError(lineno, f"feature segment without '=': {segment!r}")
        name, value = segment.split("=", 1)
        name = name.strip()
        value = value.strip()
        if not name:
            raise ParseError(lineno, f"feature segment with empty name: {segment!r}")
        pairs.append((name, value))
    return pairs


def _is_header(fields: list[str]) -> bool:
    if len(fields) < 7:
        return False
    return (
        fields[2].strip().lower() in _LAT_HEADERS
        and fields[3].strip().lower() in _LON_HEADERS
    )


def parse_oracle(text: str, gold: dict | None = None):
    """The record parser as it was before datasets became coded tables,
    one dict entry per cell: ``(languages, {(code, feature): (state,
    value)})``.  ``gold`` is such a cell dict of the gold companion."""
    from typoimpute.kb import DatasetError, Language, ParseError

    languages = []
    cells: dict[tuple[str, str], tuple[str, str | None]] = {}
    seen: set[str] = set()

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if lineno == 1 and _is_header(fields):
            continue
        if len(fields) < 8:
            raise ParseError(lineno, f"expected >= 8 tab-separated fields, got {len(fields)}")
        code = fields[0].strip()
        try:
            latitude = float(fields[2])
            longitude = float(fields[3])
        except ValueError:
            raise ParseError(lineno, f"malformed coordinate: {fields[2]!r}, {fields[3]!r}") from None
        try:
            language = Language(
                code=code,
                name=fields[1].strip(),
                latitude=latitude,
                longitude=longitude,
                genus=fields[4].strip(),
                family=fields[5].strip(),
                country_codes=tuple(fields[6].split()),
            )
        except DatasetError as exc:
            raise ParseError(lineno, str(exc)) from None
        if code in seen:
            raise DatasetError(f"duplicate language code {code!r} (line {lineno})")
        seen.add(code)
        languages.append(language)

        feature_field = " ".join(fields[7:])
        for name, value in _parse_feature_field(feature_field, lineno):
            key = (code, name)
            if key in cells:
                raise ParseError(lineno, f"duplicate feature {name!r} for language {code!r}")
            if value == "?":
                gold_cell = gold.get(key) if gold is not None else None
                if gold_cell is not None and gold_cell[0] == OBSERVED:
                    cells[key] = ("blanked", gold_cell[1])
                else:
                    cells[key] = ("unknown", None)
            else:
                cells[key] = (OBSERVED, value)

    return languages, cells


def serialize_oracle(dataset, fill=None, reveal_blanked=False) -> str:
    """The 8-column text of ``dataset``, one language and one cell at a
    time: features in name order, a fill text before a revealed gold
    value before ``?`` on every cell that is not observed."""
    cells: dict[str, dict] = {}
    for (code, feature), cell in cells_of(dataset).items():
        cells.setdefault(code, {})[feature] = cell
    fill = fill or {}
    lines = []
    for lang in dataset.languages:
        parts = []
        for feature, cell in sorted(cells.get(lang.code, {}).items()):
            if cell.state == OBSERVED:
                text = cell.value
            elif (lang.code, feature) in fill:
                text = fill[(lang.code, feature)]
            elif reveal_blanked and cell.state == "blanked":
                text = cell.value
            else:
                text = "?"
            parts.append(f"{feature}={text}")
        lines.append("\t".join([lang.code, lang.name, repr(lang.latitude), repr(lang.longitude),
                                lang.genus, lang.family, " ".join(lang.country_codes),
                                " | ".join(parts)]) + "\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# coded count tables, all int64


def add_at_group_table(names, onehot) -> np.ndarray:
    """One-hot rows summed per group name, sorted, as int64 by one
    ``np.add.at`` over every row; a last row of zeros."""
    rows = {name: i for i, name in enumerate(sorted(set(names)))}
    table = np.zeros((len(rows) + 1, onehot.shape[1]), dtype=np.int64)
    np.add.at(table, np.array([rows[name] for name in names], dtype=np.intp),
              np.asarray(onehot, dtype=np.int64))
    return table


def coded_tables_oracle(sources) -> dict:
    """Every table of ``CodedCounts(sources)`` as int64, from the cells:
    a language counts once, from the first source that has its code;
    columns are the sorted (feature, value) pairs those rows observe.
    Also returns the ``pairs`` and ``features`` that label the axes."""
    languages, observed = [], {}
    for d in sources:
        maps = observed_maps(d)
        for lang in d.languages:
            if lang.code not in observed:
                languages.append(lang)
                observed[lang.code] = maps[lang.code]
    pairs = sorted({pair for obs in observed.values() for pair in obs.items()})
    features = sorted({feature for feature, _ in pairs})
    onehot = encode_oracle(pairs, languages, observed)
    seen = np.zeros((len(languages), len(features)), dtype=np.int64)
    for r, lang in enumerate(languages):
        for feature in observed[lang.code]:
            seen[r, features.index(feature)] = 1
    return {
        "pairs": pairs,
        "features": features,
        "onehot": onehot,
        "seen": seen,
        "joint": onehot.T @ onehot,
        "support": seen.T @ seen,
        "marginal": onehot.T @ seen,
        "totals": onehot.sum(axis=0),
        "genus": add_at_group_table([lang.genus for lang in languages], onehot),
        "family": add_at_group_table([lang.family for lang in languages], onehot),
    }


def encode_oracle(pairs, languages, observed) -> np.ndarray:
    """languages x ``pairs`` int64 one-hot of the ``observed`` maps (code
    -> feature -> value); a value outside ``pairs`` sets no column."""
    column = {pair: i for i, pair in enumerate(pairs)}
    onehot = np.zeros((len(languages), len(pairs)), dtype=np.int64)
    for r, lang in enumerate(languages):
        for pair in observed[lang.code].items():
            if pair in column:
                onehot[r, column[pair]] = 1
    return onehot


# ---------------------------------------------------------------------------
# blanking


def _stage_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def blank_oracle(dataset, low: float, high: float, seed: int) -> dict:
    """``{(code, feature): (state, value)}`` after blanking by the
    documented rule: ratios evenly spaced over [low, high] and shuffled
    by seed over the sorted codes; then, code by code, a seeded sample of
    round-half-up(ratio x n) of the n observed features (taken in name
    order, clamped to [1, n - 1]) is hidden with its gold value."""
    codes = sorted(lang.code for lang in dataset.languages)
    if len(codes) == 1:
        ratios = [low]
    else:
        step = (high - low) / (len(codes) - 1)
        ratios = [low + i * step for i in range(len(codes))]
    random.Random(_stage_seed(seed, "ratios")).shuffle(ratios)
    rng = random.Random(_stage_seed(seed, "cells"))
    cells = {key: (cell.state, cell.value) for key, cell in cells_of(dataset).items()}
    for code, ratio in zip(codes, ratios):
        observed = sorted(f for (c, f), (state, _) in cells.items()
                          if c == code and state == OBSERVED)
        n_blank = max(1, min(len(observed) - 1, math.floor(ratio * len(observed) + 0.5)))
        for feature in rng.sample(observed, n_blank):
            cells[(code, feature)] = ("blanked", cells[(code, feature)][1])
    return cells


# ---------------------------------------------------------------------------
# counting imputers


def global_mode_oracle(train, target: str) -> tuple[str, float] | None:
    counts = Counter()
    for (_, feature), cell in cells_of(train).items():
        if feature == target and cell.state == OBSERVED:
            counts[cell.value] += 1
    return _mode(counts)


def genus_family_oracle(train, language, target: str) -> tuple[str, float, str] | None:
    """(value, confidence, level) per the genus -> family -> global chain."""
    by_code = {lang.code: lang for lang in train.languages}
    genus_counts = Counter()
    family_counts = Counter()
    for (code, feature), cell in cells_of(train).items():
        if feature != target or cell.state != OBSERVED:
            continue
        if by_code[code].genus == language.genus:
            genus_counts[cell.value] += 1
        if by_code[code].family == language.family:
            family_counts[cell.value] += 1
    for level, counts in (("genus", genus_counts), ("family", family_counts)):
        mode = _mode(counts)
        if mode is not None:
            return mode[0], mode[1], level
    mode = global_mode_oracle(train, target)
    if mode is None:
        return None
    return mode[0], mode[1], "global"


def geo_backoff_oracle(
    train, language, target: str, near_km: float, far_km: float
) -> tuple[str, float, str] | None:
    chain = genus_family_oracle(train, language, target)
    if chain is None:
        return None
    if chain[2] in ("genus", "family"):
        return chain

    obs = observed_maps(train)
    holders = []
    for lang in train.languages:
        if lang.code == language.code:
            continue
        value = obs[lang.code].get(target)
        if value is None:
            continue
        dist = great_circle_km(
            language.latitude, language.longitude, lang.latitude, lang.longitude
        )
        holders.append((lang, value, dist))

    near_counts = Counter(v for _, v, dist in holders if dist <= near_km)
    mode = _mode(near_counts)
    if mode is not None:
        return mode[0], mode[1], "neighborhood"

    in_far = [(dist, lang.code, lang.family) for lang, _, dist in holders if dist <= far_km]
    if in_far:
        family = min(in_far)[2]
        family_counts = Counter(v for lang, v, _ in holders if lang.family == family)
        mode = _mode(family_counts)
        if mode is not None:
            return mode[0], mode[1], "nearest-family"

    return chain  # the global level of the underlying chain


def knn_oracle(train, query_language, observed, target, k, vectors=None):
    """Exhaustive nearest-neighbor scan: the majority value among the k
    nearest and its share of the k votes, or None without candidates."""
    obs = observed_maps(train)
    candidates = [
        lang
        for lang in train.languages
        if lang.code != query_language.code and target in obs[lang.code]
    ]
    if not candidates:
        return None

    def agreement_key(c):
        shared = [f for f in observed if f in obs[c.code]]
        geo = great_circle_km(
            query_language.latitude, query_language.longitude, c.latitude, c.longitude
        )
        if not shared:
            return (1, 0.0, geo, c.code)
        matching = sum(1 for f in shared if observed[f] == obs[c.code][f])
        return (0, 1.0 - matching / len(shared), geo, c.code)

    def vector_key(c):
        cvec = vectors.get(c.code)
        if cvec is None:
            return (1, 0.0, c.code)
        qvec = vectors[query_language.code]
        na = math.sqrt(sum(x * x for x in qvec))
        nb = math.sqrt(sum(x * x for x in cvec))
        if na == 0.0 or nb == 0.0:
            return (0, 2.0, c.code)
        dot = sum(x * y for x, y in zip(qvec, cvec))
        return (0, 1.0 - dot / (na * nb), c.code)

    if vectors is not None and query_language.code in vectors:
        candidates.sort(key=vector_key)
    else:
        candidates.sort(key=agreement_key)
    votes = Counter(obs[c.code][target] for c in candidates[:k])
    return _mode(votes)


# ---------------------------------------------------------------------------
# correlation imputer


def nmi_oracle(pairs) -> float:
    """Normalized mutual information of a list of (a, b) samples."""
    n = len(pairs)
    ja = Counter(a for a, _ in pairs)
    jb = Counter(b for _, b in pairs)
    joint = Counter(pairs)

    def entropy(counts):
        return -sum((c / n) * math.log(c / n) for c in counts.values())

    ha = entropy(ja)
    hb = entropy(jb)
    if ha <= 0.0 or hb <= 0.0:
        return 0.0
    mi = sum(
        (c / n) * math.log((c / n) / ((ja[a] / n) * (jb[b] / n)))
        for (a, b), c in joint.items()
    )
    return max(0.0, min(1.0, mi / math.sqrt(ha * hb)))


def correlation_scores_oracle(train, observed, target, alpha=1.0, min_support=5):
    inv = inventory(train, target)
    if not inv:
        return None
    obs = observed_maps(train)
    totals = {b: 0.0 for b in inv}
    any_support = False
    for feature, a in sorted(observed.items()):
        co = [m for m in obs.values() if feature in m and target in m]
        if len(co) < min_support:
            continue
        any_support = True
        pairs = [(m[feature], m[target]) for m in co]
        weight = nmi_oracle(pairs)
        count_a = sum(1 for m in co if m[feature] == a)
        denom = count_a + alpha * len(inv)
        if denom <= 0:
            continue
        for b in inv:
            count_ab = sum(1 for m in co if m[feature] == a and m[target] == b)
            totals[b] += weight * (count_ab + alpha) / denom
    return totals if any_support else None


def vote_prediction_oracle(scores) -> tuple[str, float]:
    """Value and confidence of a vote-total dict: the best total, ties to
    the smaller value, and its share of all totals summed in value order
    (one over the values when they sum to zero)."""
    value = min(scores, key=lambda b: (-scores[b], b))
    mass = sum(scores[b] for b in sorted(scores))
    return value, scores[value] / mass if mass > 0 else 1.0 / len(scores)


def mapped_votes_oracle(imputer, observed, target):
    """Vote totals of a fitted ``CorrelationImputer`` for ``target`` as
    the imputer computed them before it scored blocks: from one observed
    map at a time over its fitted tables, every voter's term added in
    feature order as a running total.  The block totals must reproduce
    these bit for bit.  None when no observed feature votes."""
    counts = imputer._counts
    of = counts.feature_of
    cells = [(counts.feature_index[f], counts.columns[f].get(a, -1))
             for f, a in sorted(observed.items()) if f in counts.columns]
    if target not in counts.columns or not cells:
        return None
    features, values = np.array(cells, dtype=np.intp).T
    voting = imputer._can_vote[features]
    known = (values >= 0)[:, None]
    denom = np.where(known, counts.marginal[values], 0) + imputer.alpha * imputer._sizes
    use = (voting & (denom > 0))[:, of]
    p = np.divide(np.where(known, counts.joint[values], 0) + imputer.alpha, denom[:, of],
                  out=np.zeros(use.shape), where=use)
    totals = np.cumsum(np.where(use, imputer._weight[features][:, of] * p, 0.0), axis=0)[-1]
    t = counts.feature_index[target]
    if not voting.any(axis=0)[t]:
        return None
    first = counts.starts[t]
    values = counts.columns[target]
    return dict(zip(values, totals[first:first + len(values)].tolist()))


# ---------------------------------------------------------------------------
# ridge regression


def ridge_oracle(X, y, lam):
    """Dense solve of the full (d+1)-variable normal equations."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    A = np.zeros((d + 1, d + 1))
    A[:d, :d] = X.T @ X + lam * np.eye(d)
    A[:d, d] = X.sum(axis=0)
    A[d, :d] = X.sum(axis=0)
    A[d, d] = n
    c = np.concatenate([X.T @ y, [y.sum()]])
    z = np.linalg.solve(A, c)
    return z[:d], float(z[d])


def centred_copy_ridge_oracle(X, y, lam):
    """Ridge with an unpenalized bias from an explicit centred copy of
    ``X``: the primal system when d <= n, else the dual n x n system of
    the centred Gram Xc Xc^T.  Returns (w, b) as ``solve_ridge`` does."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean(axis=0)
    Xc = X - x_mean
    yc = y - y_mean
    if d <= n:
        w = np.linalg.solve(Xc.T @ Xc + lam * np.eye(d), Xc.T @ yc)
    else:
        w = Xc.T @ np.linalg.solve(Xc @ Xc.T + lam * np.eye(n), yc)
    b = y_mean - x_mean @ w
    return w, (float(b) if y.ndim == 1 else b)


def normal_equation_residual(X, y, lam, w, b):
    """Relative residual of (w, b) in the normal equations."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    top = (X.T @ X + lam * np.eye(d)) @ w + b * X.sum(axis=0) - X.T @ y
    bottom = np.array([X.sum(axis=0) @ w + len(y) * b - y.sum()])
    residual = np.concatenate([top, bottom])
    rhs = np.concatenate([X.T @ y, [y.sum()]])
    return float(np.linalg.norm(residual)) / max(1.0, float(np.linalg.norm(rhs)))


def prior_features_oracle(train, language, observed, target, areal_km=2500.0, min_support=5,
                          own_value=None, context=None):
    """Brute-force counted probabilities for every prior block.

    The statistics languages are ``train`` plus the languages of
    ``context`` not already in it.  ``own_value`` is the language's own
    observation of ``target`` on a training row: one such observation is
    taken out of the genus, family and implicational counts.  Shares
    divide by every counted value, but only values of the training
    inventories get a key.
    """
    obs = observed_maps(train)
    by_code = {lang.code: lang for lang in train.languages}
    if context is not None:
        context_obs = observed_maps(context)
        for lang in context.languages:
            if lang.code not in by_code:
                by_code[lang.code] = lang
                obs[lang.code] = context_obs[lang.code]
    values = set(inventory(train, target))
    out: dict[tuple, float] = {}

    def distribution(targets, leave_out=None):
        counts = Counter(targets)
        if leave_out is not None:
            counts[leave_out] -= 1
        total = sum(counts.values())
        if total <= 0:
            return {}
        return {v: n / total for v, n in counts.items() if n > 0 and v in values}

    def holders(codes):
        return [obs[c][target] for c in codes if target in obs[c]]

    genus_codes = [c for c, l in by_code.items() if l.genus == language.genus]
    family_codes = [c for c, l in by_code.items() if l.family == language.family]
    for v, p in distribution(holders(genus_codes), own_value).items():
        out[("genus", v)] = p
    for v, p in distribution(holders(family_codes), own_value).items():
        out[("family", v)] = p

    # the areal block never contains the language itself
    areal_codes = [
        c
        for c, l in by_code.items()
        if c != language.code
        and great_circle_km(language.latitude, language.longitude, l.latitude, l.longitude)
        <= areal_km
    ]
    for v, p in distribution(holders(areal_codes)).items():
        out[("areal", v)] = p

    for feature, a in observed.items():
        if feature == target or a not in inventory(train, feature):
            continue
        co = [m for m in obs.values() if feature in m and target in m]
        if len(co) < min_support:
            continue
        matching = [m[target] for m in co if m[feature] == a]
        for v, p in distribution(matching, own_value if matching else None).items():
            out[("impl", feature, a, v)] = p
    for feature, a in observed.items():
        if feature != target and a in inventory(train, feature):
            out[("obs", feature, a)] = 1.0
    return out


# ---------------------------------------------------------------------------
# ridge prior features, counted one language at a time
#
# This is how the ridge imputer built its features before its count
# tables: Counter tables per (group, feature) and one dict per design
# row.  It is kept as the reference the tables must reproduce exactly,
# so it also keeps both of that code's distance kernels: the vectorized
# one for statistics languages and the scalar one for queries.

RIDGE_BLOCKS = ("genetic", "areal", "implicational", "indicators")


class CountedPriorStats:
    """Counting tables over the statistics languages of ``sources``;
    a language in several sources counts once, from the first."""

    def __init__(self, sources, areal_km):
        self.languages = []
        self.observed = {}
        for d in sources:
            observed = observed_maps(d)
            for lang in d.languages:
                if lang.code in self.observed:
                    continue
                self.languages.append(lang)
                self.observed[lang.code] = observed[lang.code]

        self.genus = {}
        self.family = {}
        self.joint = {}
        self.support = Counter()
        for lang in self.languages:
            obs = self.observed[lang.code]
            for feature, value in obs.items():
                self.genus.setdefault((lang.genus, feature), Counter())[value] += 1
                self.family.setdefault((lang.family, feature), Counter())[value] += 1
            feats = sorted(obs)
            for fa in feats:
                for fb in feats:
                    if fa != fb:
                        self.joint.setdefault((fa, fb), Counter())[(obs[fa], obs[fb])] += 1
                        self.support[(fa, fb)] += 1
        self.neighbors = _vectorized_neighbor_sets(self.languages, areal_km)
        self.areal_km = areal_km


def one_shot_radius_counts(coords, onehot, radius_km, points=None, own=None):
    """points x columns counts of ``onehot`` over the languages at
    ``coords`` within the radius of each of ``points``, language
    ``own[i]`` left out for point i (none where it is -1), from one full
    points x languages kernel of ``geo.distance_matrix``.  By default the
    points are the languages themselves, each leaving itself out."""
    from typoimpute.geo import distance_matrix

    if points is None:
        points, own = coords, np.arange(len(coords))
    within = distance_matrix(points, coords) <= radius_km
    for i, j in enumerate(own):
        if j >= 0:
            within[i, j] = False
    return within.astype(np.int64) @ onehot.astype(np.int64)


def _vectorized_neighbor_sets(languages, radius_km):
    n = len(languages)
    out = {lang.code: set() for lang in languages}
    if n < 2:
        return out
    lat = np.radians(np.array([lang.latitude for lang in languages]))
    lon = np.radians(np.array([lang.longitude for lang in languages]))
    sin_dlat = np.sin((lat[:, None] - lat[None, :]) / 2.0)
    sin_dlon = np.sin((lon[:, None] - lon[None, :]) / 2.0)
    h = sin_dlat**2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * sin_dlon**2
    dist = 2.0 * 6371.0088 * np.arcsin(np.sqrt(np.minimum(1.0, h)))
    within = dist <= radius_km
    codes = [lang.code for lang in languages]
    for i in range(n):
        for j in range(n):
            if i != j and within[i, j]:
                out[codes[i]].add(codes[j])
    return out


def _scalar_haversine_km(lat1, lon1, lat2, lon2):
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlat = math.radians(abs(lat2 - lat1))
    dlon = math.radians(abs(lon2 - lon1))
    h = math.sin(dlat / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlon / 2.0) ** 2
    h = min(1.0, h)
    return 2.0 * 6371.0088 * math.asin(math.sqrt(h))


class CountedPriorSpace:
    """Key order and per-language prior vectors of one target."""

    def __init__(self, stats, target, inventory, inventories, min_support=5, blocks=RIDGE_BLOCKS):
        self.stats = stats
        self.target = target
        self.inventory = tuple(inventory)
        self.min_support = min_support
        self.blocks = tuple(blocks)

        keys = []
        if "genetic" in self.blocks:
            keys += [("genus", v) for v in self.inventory]
            keys += [("family", v) for v in self.inventory]
        if "areal" in self.blocks:
            keys += [("areal", v) for v in self.inventory]
        others = sorted(f for f in inventories if f != target)
        if "implicational" in self.blocks:
            for feat in others:
                if stats.support[(feat, target)] >= min_support:
                    for a in inventories[feat]:
                        keys += [("impl", feat, a, v) for v in self.inventory]
        if "indicators" in self.blocks:
            for feat in others:
                keys += [("obs", feat, a) for a in inventories[feat]]
        self.keys = tuple(keys)
        self._index = {key: i for i, key in enumerate(keys)}

    def _conditional(self, counts, exclude_value):
        if not counts:
            return None
        if exclude_value is not None:
            counts = Counter(counts)
            counts[exclude_value] -= 1
        total = sum(counts.values())
        if total <= 0:
            return None
        return {v: counts[v] / total for v in self.inventory if counts[v] > 0}

    def sparse(self, language, observed, own_value=None):
        """``own_value`` is the language's own target observation, left
        out of every distribution (training rows); None for queries."""
        stats = self.stats
        out = {}

        def put(prefix, dist):
            if dist:
                for v, p in dist.items():
                    key = prefix + (v,)
                    if key in self._index:
                        out[key] = p

        if "genetic" in self.blocks:
            put(("genus",), self._conditional(
                stats.genus.get((language.genus, self.target)), own_value))
            put(("family",), self._conditional(
                stats.family.get((language.family, self.target)), own_value))

        if "areal" in self.blocks:
            neighbor_codes = stats.neighbors.get(language.code)
            if neighbor_codes is None:
                neighbor_codes = {
                    lang.code
                    for lang in stats.languages
                    if lang.code != language.code
                    and _scalar_haversine_km(
                        language.latitude, language.longitude, lang.latitude, lang.longitude
                    ) <= stats.areal_km
                }
            counts = Counter()
            for code in neighbor_codes:
                value = stats.observed[code].get(self.target)
                if value is not None:
                    counts[value] += 1
            put(("areal",), self._conditional(counts, None))

        if "implicational" in self.blocks:
            for feat, a in sorted(observed.items()):
                if stats.support[(feat, self.target)] < self.min_support:
                    continue
                joint = stats.joint.get((feat, self.target), Counter())
                counts = Counter()
                for (ja, jb), n in joint.items():
                    if ja == a:
                        counts[jb] += n
                dist = self._conditional(counts, own_value if counts else None)
                if dist:
                    for v, p in dist.items():
                        key = ("impl", feat, a, v)
                        if key in self._index:
                            out[key] = p

        if "indicators" in self.blocks:
            for feat, a in observed.items():
                key = ("obs", feat, a)
                if key in self._index:
                    out[key] = 1.0
        return out

    def dense(self, language, observed, own_value=None):
        vec = np.zeros(len(self.keys))
        for key, value in self.sparse(language, observed, own_value).items():
            vec[self._index[key]] = value
        return vec


def build_prior_features(train, language, observed, target, areal_km=2500.0,
                         min_support=5, blocks=RIDGE_BLOCKS, own_value=None):
    """Sparse prior vector of one language against a training dataset."""
    stats = CountedPriorStats([train], areal_km)
    inventories = {f: tuple(inventory(train, f)) for f in sorted({f for _, f in cells_of(train)})}
    space = CountedPriorSpace(
        stats, target, inventories.get(target, ()), inventories, min_support, blocks
    )
    return space.sparse(language, observed, own_value)


def counted_ridge_fit(train, context=None, lam=1.0, areal_km=2500.0, min_support=5,
                      blocks=RIDGE_BLOCKS):
    """target -> (space, weights, biases) with one dense normal-equation
    solve per inventory value; weights have one row per value.
    ``context`` joins the counting tables."""
    sources = [train] + ([context] if context is not None else [])
    stats = CountedPriorStats(sources, areal_km)
    inventories = {f: tuple(inventory(train, f)) for f in sorted({f for _, f in cells_of(train)})}
    fitted = {}
    for target, values in inventories.items():
        if not values:
            continue
        space = CountedPriorSpace(stats, target, values, inventories, min_support, blocks)
        codes = [lang.code for lang in train.languages if target in stats.observed[lang.code]]
        rows = []
        for code in codes:
            obs = stats.observed[code]
            others = {f: v for f, v in obs.items() if f != target}
            rows.append(space.dense(language_of(train, code), others, own_value=obs[target]))
        X = np.array(rows).reshape(len(codes), len(space.keys))
        weights = np.zeros((len(values), len(space.keys)))
        biases = np.zeros(len(values))
        if len(values) > 1 and space.keys:
            for i, value in enumerate(values):
                y = np.array([1.0 if stats.observed[c][target] == value else -1.0 for c in codes])
                weights[i], biases[i] = ridge_oracle(X, y, lam)
        fitted[target] = (space, weights, biases)
    return fitted


# ---------------------------------------------------------------------------
# ridge queries, gathered one query at a time
#
# This is how the ridge imputer built a query's prior vector and its
# prediction before its fit-time query tables: a (feature, value) ->
# key dict per block, a gather of the joint counts for each query, and
# the scores as a dict that is sorted for the softmax.


class GatheredPriorSpace:
    """Key dicts of one target over the coded counts of the imputer's
    statistics languages, ``counts``, with neighbours within
    ``areal_km``."""

    def __init__(self, counts, areal_km, target, inventory, inventories, min_support, blocks):
        self.counts = counts
        self.areal_km = areal_km
        self.target = target
        self.inventory = tuple(inventory)
        self.blocks = tuple(blocks)
        target_columns = counts.columns.get(target, {})
        self._target_columns = np.array(list(target_columns.values()), dtype=np.intp)
        order = list(target_columns)
        self._value_positions = np.array([order.index(v) for v in self.inventory], dtype=np.intp)

        n_keys = 0
        if "genetic" in self.blocks:
            n_keys += 2 * len(self.inventory)
        if "areal" in self.blocks:
            n_keys += len(self.inventory)
        others = sorted(f for f in inventories if f != target)
        index = counts.feature_index
        self._impl_start = n_keys
        self._impl: dict[tuple[str, str], int] = {}
        if "implicational" in self.blocks:
            for feat in others:
                support = 0
                if feat in index and target in index:
                    support = int(counts.support[index[feat], index[target]])
                if support >= min_support:
                    for a in inventories[feat]:
                        self._impl[(feat, a)] = len(self._impl)
                        n_keys += len(self.inventory)
        self._obs_start = n_keys
        self._obs: dict[tuple[str, str], int] = {}
        if "indicators" in self.blocks:
            for feat in others:
                for a in inventories[feat]:
                    self._obs[(feat, a)] = len(self._obs)
                    n_keys += 1
        self.size = n_keys
        self._impl_columns = np.array(
            [counts.columns[f][a] for f, a in self._impl], dtype=np.intp
        )

    def _shares(self, counts):
        total = counts.sum(axis=-1, keepdims=True)
        out = np.zeros(counts.shape[:-1] + (len(self.inventory),))
        np.divide(counts[..., self._value_positions], total, out=out, where=total > 0)
        return out

    def _fill(self, out, genus, family, areal, impl_rows, impl_keys, impl_counts,
              obs_rows, obs_keys):
        n_values = len(self.inventory)
        col = 0
        if "genetic" in self.blocks:
            out[:, 0:n_values] = self._shares(genus)
            out[:, n_values:2 * n_values] = self._shares(family)
            col = 2 * n_values
        if "areal" in self.blocks:
            out[:, col:col + n_values] = self._shares(areal)
        if len(impl_keys):
            cols = self._impl_start + impl_keys[:, None] * n_values + np.arange(n_values)
            out[impl_rows[:, None], cols] = self._shares(impl_counts)
        if len(obs_keys):
            out[obs_rows, self._obs_start + obs_keys] = 1.0

    def _areal(self, language):
        """Target counts over the radius neighbours of ``language``, from
        its one distance row; a statistics language leaves itself out."""
        from typoimpute.geo import coordinates, distance_matrix

        counts = self.counts
        within = distance_matrix(coordinates([language]), counts.coords)[0] <= self.areal_km
        if language.code in counts.rows:
            within[counts.rows[language.code]] = False
        return within.astype(np.int64) @ counts.onehot[:, self._target_columns].astype(np.int64)

    def dense(self, language, observed):
        counts = self.counts
        tc = self._target_columns
        impl_keys = np.array(
            [self._impl[item] for item in observed.items() if item in self._impl], dtype=np.intp
        )
        obs_keys = np.array(
            [self._obs[item] for item in observed.items() if item in self._obs], dtype=np.intp
        )
        vec = np.zeros((1, self.size))
        self._fill(
            vec,
            counts.genus.table[counts.genus.rows.get(language.genus, -1)][tc],
            counts.family.table[counts.family.rows.get(language.family, -1)][tc],
            self._areal(language) if "areal" in self.blocks else None,
            np.zeros(len(impl_keys), dtype=np.intp), impl_keys,
            counts.joint[np.ix_(self._impl_columns[impl_keys], tc)],
            np.zeros(len(obs_keys), dtype=np.intp), obs_keys,
        )
        return vec[0]


def ridge_prediction_oracle(scores):
    """(value, confidence, source) of a ridge score dict: the best score,
    ties to the smaller value, and its softmax share over the sorted
    values."""
    value = min(scores, key=lambda v: (-scores[v], v))
    raw = np.array([scores[v] for v in sorted(scores)])
    shifted = np.exp(raw - raw.max())
    confidence = float(shifted[sorted(scores).index(value)] / shifted.sum())
    return value, confidence, "ridge" if len(scores) > 1 else "ridge-constant"


# ---------------------------------------------------------------------------
# the impute fill loop, composed from the per-method oracles


def method_oracle(method, config, train, test, vectors):
    """``answer(language, observed, target) -> (value, confidence) | None``
    of one configured method, from this module's oracles only.  Defaults
    are the documented ones."""
    get = config.get
    min_support = int(get("min_support", "5"))
    if method == "frequency":
        return lambda lang, observed, target: global_mode_oracle(train, target)
    if method == "genus_family":
        def answer(lang, observed, target):
            found = genus_family_oracle(train, lang, target)
            return found and found[:2]
        return answer
    if method == "geo_backoff":
        near, far = float(get("near_km", "1000")), float(get("far_km", "2000"))

        def answer(lang, observed, target):
            found = geo_backoff_oracle(train, lang, target, near, far)
            return found and found[:2]
        return answer
    if method == "knn":
        k = int(get("k", "1"))
        return lambda lang, observed, target: knn_oracle(train, lang, observed, target, k, vectors)
    if method == "correlation":
        alpha = float(get("alpha", "1.0"))

        def answer(lang, observed, target):
            scores = correlation_scores_oracle(train, observed, target, alpha, min_support)
            return scores and vote_prediction_oracle(scores)
        return answer
    if method == "ridge":
        blocks = tuple(b.strip() for b in get("blocks", ",".join(RIDGE_BLOCKS)).split(","))
        context = test if get("use_context", "false") == "true" else None
        fitted = counted_ridge_fit(train, context, lam=float(get("lambda", "1.0")),
                                   areal_km=float(get("areal_km", "2500")),
                                   min_support=min_support, blocks=blocks)

        def answer(lang, observed, target):
            if target not in fitted:
                return None
            space, weights, biases = fitted[target]
            raw = weights @ space.dense(lang, observed) + biases
            return ridge_prediction_oracle(dict(zip(space.inventory, raw.tolist())))[:2]
        return answer
    raise ValueError(f"no oracle for method {method!r}")


def decide_oracle(cells, values, scores, labels, source=0, mass=None) -> dict:
    """``decide`` as it answered before it returned arrays: one Answer
    per answered cell, keyed by cell index, in the order of ``cells``."""
    mass = scores if mass is None else mass
    total = np.cumsum(mass, axis=1)[:, -1]
    best = scores.argmax(axis=1)
    share = mass[np.arange(len(best)), best] / np.where(total > 0, total, 1)
    outside = (total > 0) & ~((share >= 0) & (share <= 1))
    if outside.any():
        raise ValueError(f"confidence {share[outside][0]} outside [0, 1]")
    sources = np.broadcast_to(np.asarray(source), best.shape)
    return {cell: Answer(values[b], s, labels[code]) for cell, b, s, code, answered in
            zip(cells.tolist(), best.tolist(), share.tolist(), sources.tolist(),
                (total > 0).tolist()) if answered}


def ensemble_oracle(predicts, test, cells) -> dict:
    """An ensemble's answers as dicts: each of ``predicts`` (``predict``
    functions returning cell -> Answer) in turn answers the cells no
    earlier one answered, asked in table order."""
    out: dict = {}
    for predict in predicts:
        cells = np.array([c for c in cells.tolist() if c not in out], dtype=np.intp)
        if not len(cells):
            break
        out.update(predict(test, cells))
    return out


def fill_oracle(answers, test):
    """``fill_dataset`` from a cell -> Answer dict: one appended value
    name per answered cell, each answered cell observed."""
    hidden = np.flatnonzero(test.cell_state != OBSERVED_CODE)
    answered = np.fromiter(answers, dtype=np.intp, count=len(answers))
    if not np.isin(answered, hidden).all():
        raise ValueError("an answer for a cell the test set does not hide")
    value, state = test.cell_value.copy(), test.cell_state.copy()
    value[answered] = len(test.value_names) + np.arange(len(answered))
    state[answered] = OBSERVED_CODE
    names = test.value_names + [a.value for a in answers.values()]
    return dataclasses.replace(test, value_names=names, cell_value=value, cell_state=state)


def impute_loop_oracle(config, train, test, fallback: bool = True, vectors=None):
    """What ``impute`` writes for the imputer ``config`` (a key -> value
    mapping), cell by cell from the per-method oracles: every hidden
    cell, in dataset order and then by feature name, is answered from the
    language's observed cells.  An ensemble keeps the first member's
    answer.  Where nothing answers, the global mode of ``train`` does if
    ``fallback`` is set.  Returns the filled values and the number of
    hidden cells left unfilled."""
    method = config["method"]
    members = [m.strip() for m in config["members"].split(",")] if method == "ensemble" \
        else [method]
    answers = [method_oracle(m, config, train, test, vectors) for m in members]
    observed = observed_maps(test)
    fill: dict[tuple[str, str], str] = {}
    n_unfilled = 0
    for (code, feature), cell in sorted(cells_of(test).items(),
                                        key=lambda item: (test.rows[item[0][0]], item[0][1])):
        if cell.state == OBSERVED:
            continue
        lang = language_of(test, code)
        best = None
        for answer in answers:
            best = answer(lang, observed[code], feature)
            if best is not None:
                break
        if best is None and fallback:
            best = global_mode_oracle(train, feature)
        if best is None:
            n_unfilled += 1
        else:
            fill[(code, feature)] = best[0]
    return fill, n_unfilled


# ---------------------------------------------------------------------------
# evaluation


def score_oracle(gold, system: str, predictions, exclude_missing: bool = False) -> dict:
    """``evaluate.score`` as a per-cell loop over the cell mapping: the
    ``EvalReport`` fields as a dict.  Walks each language's blanked cells
    in order, keeping running counts; per-genus means and the macro
    average are taken over sorted codes and genera.  Raises ValueError
    with ``score``'s message where it must fail."""
    blanked: dict[str, list[tuple[str, str]]] = {}
    for (code, feature), cell in cells_of(gold).items():
        if cell.state == "blanked":
            blanked.setdefault(code, []).append((feature, cell.value))
    if not blanked:
        raise ValueError("gold dataset has no blanked cells to score")
    observed = Counter(code for (code, _), cell in cells_of(gold).items() if cell.state == OBSERVED)

    per_language: dict[str, float] = {}
    language_genus: dict[str, str] = {}
    language_ratio: dict[str, float] = {}
    per_feature: dict[str, list[int]] = {}
    n_blanked = n_missing = n_correct = 0
    for lang in gold.languages:
        hidden = correct = missing = 0
        for feature, answer in blanked.get(lang.code, []):
            hidden += 1
            n_blanked += 1
            predicted = predictions.get((lang.code, feature))
            if predicted is None:
                missing += 1
                n_missing += 1
                if exclude_missing:
                    continue
            counts = per_feature.setdefault(feature, [0, 0])
            counts[1] += 1
            if predicted == answer:
                counts[0] += 1
                correct += 1
                n_correct += 1
        scored = hidden - missing if exclude_missing else hidden
        if scored == 0:
            continue
        per_language[lang.code] = correct / scored
        language_genus[lang.code] = lang.genus
        language_ratio[lang.code] = hidden / (hidden + observed[lang.code])
    if not per_language:
        raise ValueError("no language has a scored cell")

    by_genus: dict[str, list[float]] = {}
    for code in sorted(per_language):
        by_genus.setdefault(language_genus[code], []).append(per_language[code])
    per_genus = {genus: sum(accs) / len(accs) for genus, accs in sorted(by_genus.items())}
    return {
        "system": system,
        "per_language": per_language,
        "language_genus": language_genus,
        "language_ratio": language_ratio,
        "per_genus": per_genus,
        "macro_accuracy": sum(per_genus.values()) / len(per_genus),
        "micro_accuracy": n_correct / sum(total for _, total in per_feature.values()),
        "per_feature": {feature: tuple(counts) for feature, counts in sorted(per_feature.items())},
        "n_blanked": n_blanked,
        "n_missing": n_missing,
        "n_correct": n_correct,
        "exclude_missing": exclude_missing,
    }


def macro_oracle(per_language_accuracy, language_genus) -> float:
    by_genus: dict[str, list[float]] = {}
    for code, acc in per_language_accuracy.items():
        by_genus.setdefault(language_genus[code], []).append(acc)
    genus_means = [sum(v) / len(v) for v in by_genus.values()]
    return sum(genus_means) / len(genus_means)


def one_shot_permutation_oracle(per_language_a, per_language_b, language_genus, samples, seed):
    """(observed |macro difference|, add-one p-value) of the paired sign
    flip test, drawing every sample's signs at once as one samples x
    languages matrix from ``numpy.random.default_rng(seed)``."""
    codes = sorted(set(per_language_a) & set(per_language_b))
    sizes = Counter(language_genus[code] for code in codes)
    weights = np.array([1.0 / (len(sizes) * sizes[language_genus[code]]) for code in codes])
    weighted = weights * np.array([per_language_a[c] - per_language_b[c] for c in codes])
    observed = abs(float(weighted.sum()))
    signs = np.random.default_rng(seed).integers(0, 2, size=(samples, len(codes))) * 2 - 1
    hits = int((np.abs(signs @ weighted) >= observed - 1e-12).sum())
    return observed, (1 + hits) / (1 + samples)


def exhaustive_permutation_p(weighted_diffs, tolerance=1e-12) -> float:
    """Exact two-sided permutation p over all sign patterns."""
    observed = abs(sum(weighted_diffs))
    n = len(weighted_diffs)
    hits = 0
    for mask in range(2**n):
        total = sum(
            -wd if (mask >> i) & 1 else wd for i, wd in enumerate(weighted_diffs)
        )
        if abs(total) >= observed - tolerance:
            hits += 1
    return hits / 2**n


def pearson_oracle(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def t_tail_oracle(r: float, n: int, dps: int = 50) -> float:
    """Two-sided Student-t p-value of a Pearson ``r`` over ``n`` points,
    I_x((n - 2)/2, 1/2) at x = (1 - r)(1 + r), computed by mpmath from
    the same double ``r``."""
    with mp.workdps(dps):
        rr = mpf(r)
        p = mp.betainc(mpf(n - 2) / 2, mpf(1) / 2, 0, (1 - rr) * (1 + rr), regularized=True)
        return float(p)
