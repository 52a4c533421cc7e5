"""Great-circle distances: the scalar form and the one vectorized kernel."""

import ast
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from typoimpute.geo import (
    EARTH_RADIUS_KM,
    coordinates,
    distance_matrix,
    haversine_km,
)

from oracles import distance_matrix_oracle, great_circle_km
from synth import point

# frozen against a 50-digit mpmath evaluation of the haversine formula
# with R = 6371.0088
DIST_19_76_TO_37_140 = 6471.5469532808856269
ANTIPODAL_KM = 20015.114442035924312
ONE_DEGREE_EQUATOR_KM = 111.19508023353291285


def test_known_city_pair_distance():
    got = haversine_km(point(19.0, 76.0), point(37.0, 140.0))
    assert got == pytest.approx(DIST_19_76_TO_37_140, rel=1e-9)


def test_antipodal_distance_is_half_circumference():
    got = haversine_km(point(0.0, 0.0), point(0.0, 180.0))
    assert got == pytest.approx(ANTIPODAL_KM, rel=1e-9)
    assert got == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)


def test_one_degree_at_equator():
    got = haversine_km(point(0.0, 0.0), point(0.0, 1.0))
    assert got == pytest.approx(ONE_DEGREE_EQUATOR_KM, rel=1e-9)


def test_zero_distance_same_point():
    assert haversine_km(point(12.5, -33.25), point(12.5, -33.25)) == 0.0


def test_symmetry_is_exact_in_floating_point():
    rng = random.Random(31)
    for _ in range(200):
        a = point(rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = point(rng.uniform(-90, 90), rng.uniform(-180, 180))
        assert haversine_km(a, b) == haversine_km(b, a)


def test_random_pairs_match_high_precision_oracle():
    rng = random.Random(32)
    for _ in range(25):
        lat1, lon1 = rng.uniform(-90, 90), rng.uniform(-180, 180)
        lat2, lon2 = rng.uniform(-90, 90), rng.uniform(-180, 180)
        got = haversine_km(point(lat1, lon1), point(lat2, lon2))
        want = great_circle_km(lat1, lon1, lat2, lon2)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_near_antipodal_never_nan():
    # rounding can push the haversine term past 1; the clamp must hold
    got = haversine_km(point(10.0, 20.0), point(-10.0, -160.0))
    assert math.isfinite(got)
    assert got <= math.pi * EARTH_RADIUS_KM + 1e-9


def test_triangle_inequality_sampled():
    rng = random.Random(33)
    for _ in range(50):
        pts = [point(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)]
        ab = haversine_km(pts[0], pts[1])
        bc = haversine_km(pts[1], pts[2])
        ac = haversine_km(pts[0], pts[2])
        assert ac <= ab + bc + 1e-6


def _random_points(rng, n):
    """Uniform points plus the awkward ones: poles, the antimeridian,
    exact duplicates and antipodes."""
    pts = [(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(n - 8)]
    pts += [(90.0, 0.0), (-90.0, 45.0), (0.0, 180.0), (0.0, -180.0),
            pts[0], pts[1], (-pts[2][0], pts[2][1] + 180.0), (-87.5, -180.0)]
    return np.array(pts)


def test_kernel_is_exactly_symmetric():
    rng = random.Random(34)
    a, b = _random_points(rng, 300), _random_points(rng, 200)
    assert np.array_equal(distance_matrix(a, b), distance_matrix(b, a).T)
    square = distance_matrix(a, a)
    assert np.array_equal(square, square.T)
    assert not np.diagonal(square).any()


def test_kernel_matches_one_expression_oracle_bit_for_bit():
    """Random points with poles, the antimeridian, duplicates and
    antipodes, a block of one repeated point, and the near-antipodal
    pairs whose haversine term rounds above 1."""
    rng = random.Random(39)
    a, b = _random_points(rng, 300), _random_points(rng, 123)
    same = np.repeat([[12.5, -40.25]], 5, axis=0)
    poles = np.array([[90.0, 0.0], [90.0, 180.0], [-90.0, 0.0], [-90.0, -180.0]])
    antimeridian = np.array([[10.0, 180.0], [10.0, -180.0], [-33.0, 179.9999], [-33.0, -179.9999]])
    antipodes = np.array([[-87.5, -180.0], [87.5, 0.0], [-64.03974011776948, -115.62141842715934],
                          [64.03974011643476, 64.37858157284066], [0.0, 0.0], [0.0, 180.0]])
    for x, y in [(a, b), (b, a), (a, a), (same, same), (same, a), (poles, a), (poles, poles),
                 (antimeridian, antimeridian), (antimeridian, a), (antipodes, antipodes),
                 (antipodes, b), (a[:1], b[:1])]:
        got = distance_matrix(x, y)
        assert np.array_equal(got, distance_matrix_oracle(x, y))
        assert np.array_equal(got, distance_matrix(y, x).T)


def test_kernel_row_alone_equals_row_of_large_matrix():
    rng = random.Random(35)
    pts = _random_points(rng, 1001)
    full = distance_matrix(pts, pts)
    for i in rng.sample(range(len(pts)), 60) + [0, 1, len(pts) - 1]:
        assert np.array_equal(distance_matrix(pts[i:i + 1], pts)[0], full[i])
        assert np.array_equal(distance_matrix(pts, pts[i:i + 1])[:, 0], full[:, i])
    for n in (2, 3, 7, 8, 9, 17, 33):
        rows = np.array(rng.sample(range(len(pts)), n))
        assert np.array_equal(distance_matrix(pts[rows], pts), full[rows])
        assert np.array_equal(distance_matrix(pts[rows], pts[rows]), full[np.ix_(rows, rows)])


def test_kernel_one_by_one_equals_haversine():
    rng = random.Random(36)
    pts = _random_points(rng, 200)
    full = distance_matrix(pts, pts)
    for i, j in [(rng.randrange(200), rng.randrange(200)) for _ in range(300)]:
        a, b = point(*pts[i]), point(*pts[j])
        assert haversine_km(a, b) == full[i, j]
        assert distance_matrix(coordinates([a]), coordinates([b]))[0, 0] == full[i, j]


def test_kernel_matches_high_precision_oracle():
    rng = random.Random(37)
    pts = _random_points(rng, 40)
    full = distance_matrix(pts, pts)
    for i in range(len(pts)):
        for j in range(0, len(pts), 3):
            want = great_circle_km(pts[i][0], pts[i][1], pts[j][0], pts[j][1])
            assert full[i, j] == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("a, b", [
    # the haversine term of these pairs rounds to 1 + 2**-52 and
    # 1 + 2**-51; the square root of the second exceeds 1, so unclamped
    # its arcsine is NaN
    ((-87.5, -180.0), (87.5, 0.0)),
    ((-64.03974011776948, -115.62141842715934), (64.03974011643476, 64.37858157284066)),
])
def test_kernel_antipodal_clamp(a, b):
    got = distance_matrix(np.array([a]), np.array([b]))[0, 0]
    assert got == 2.0 * EARTH_RADIUS_KM * math.asin(1.0)
    assert got == pytest.approx(great_circle_km(*a, *b), rel=1e-9)
    assert haversine_km(point(*a), point(*b)) == got


def test_kernel_empty_sides():
    pts = _random_points(random.Random(38), 18)
    assert distance_matrix(pts, coordinates([])).shape == (18, 0)
    assert distance_matrix(coordinates([]), pts).shape == (0, 18)


CODES = ["aaa", "bbb", "ccc", "ddd"]
PLACES = coordinates([point(0.0, 0.0), point(0.0, 1.0), point(0.0, 2.0),
                      point(50.0, 100.0)])


def _within(radius_km, center=0, exclude_self=False):
    row = distance_matrix(PLACES[center:center + 1], PLACES)[0]
    return {
        code for i, code in enumerate(CODES)
        if row[i] <= radius_km and not (exclude_self and i == center)
    }


def test_within_radius_inclusive_boundary():
    boundary = haversine_km(point(0.0, 0.0), point(0.0, 1.0))
    # radius exactly equal to a point's distance includes that point
    assert _within(boundary) == {"aaa", "bbb"}
    assert _within(boundary - 1e-6) == {"aaa"}
    assert _within(0.0) == {"aaa"}


def test_within_radius_excludes_self_by_row():
    # a language is always within its own radius; callers drop it by row
    assert _within(500.0) == {"aaa", "bbb", "ccc"}
    assert _within(500.0, exclude_self=True) == {"bbb", "ccc"}
    assert _within(50.0, exclude_self=True) == set()
    assert _within(0.0, center=3, exclude_self=True) == set()


def test_nearest_ties_break_on_code():
    codes = ["zzz", "mmm", "qqq"]
    places = coordinates([point(0.0, 1.0), point(0.0, 1.0), point(0.0, -1.0)])
    row = distance_matrix(coordinates([point(0.0, 0.0)]), places)[0]
    # identical coordinates give bitwise-equal distances, so the code decides
    assert row[0] == row[1] == row[2]
    assert min(range(3), key=lambda i: (row[i], codes[i])) == 1


def test_only_geo_evaluates_haversine_trigonometry():
    """One kernel: no other module computes great-circle trigonometry."""
    trig = re.compile(
        r"\b(?:sin|cos|tan|arcsin|asin|arccos|acos|arctan2?|atan2?|radians|deg2rad)\s*\("
    )
    package = Path(__file__).resolve().parents[1] / "src" / "typoimpute"
    sources = sorted(package.rglob("*.py"))
    assert package / "geo.py" in sources and len(sources) > 10
    offenders = [
        f"{path.relative_to(package)}:{n}"
        for path in sources
        if path != package / "geo.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if trig.search(line)
    ]
    assert offenders == []


def test_only_geo_calls_the_kernel_per_pair():
    """Callers take whole distance rows or matrices from the kernel; no
    module but geo.py calls the scalar ``haversine_km``."""
    package = Path(__file__).resolve().parents[1] / "src" / "typoimpute"
    offenders = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "geo.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "haversine_km" in ast.unparse(node.func)
    ]
    assert offenders == []


def test_no_module_imports_scipy():
    """The correlation p-value is computed in pure Python; no module,
    not even inside a function, imports scipy."""
    package = Path(__file__).resolve().parents[1] / "src" / "typoimpute"
    sources = sorted(package.rglob("*.py"))
    assert package / "evaluate.py" in sources
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert offenders == []


def test_only_kb_builds_or_reads_cell_objects():
    """Every stage reads the coded cell table: no module but kb.py
    constructs a ``Cell`` or reads a ``.cells`` mapping."""
    package = Path(__file__).resolve().parents[1] / "src" / "typoimpute"
    sources = sorted(package.rglob("*.py"))
    assert package / "kb.py" in sources and len(sources) > 10
    offenders = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sources
        if path != package / "kb.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "cells")
        or (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[0] == "Cell")
    ]
    assert offenders == []
