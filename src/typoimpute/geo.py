"""Great-circle geometry over language coordinates.

Distances are spherical (haversine) with the IUGG mean Earth radius.
Every distance in the package comes from one vectorized kernel,
``distance_matrix``; ``haversine_km`` is its 1 x 1 case.  The kernel
is exactly symmetric and computes each entry from its own two points
alone, so a row computed by itself equals the same row of any larger
matrix: a language's neighbourhood does not depend on which caller
computed it, or alongside which other languages.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "EARTH_RADIUS_KM",
    "coordinates",
    "distance_matrix",
    "haversine_km",
]

EARTH_RADIUS_KM = 6371.0088


def coordinates(points: Iterable) -> np.ndarray:
    """(n, 2) array of the (latitude, longitude) degrees of ``points``,
    anything with those two attributes, such as ``kb.Language``."""
    return np.array([(p.latitude, p.longitude) for p in points], dtype=float).reshape(-1, 2)


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle kilometres from every row of ``a`` to every row of
    ``b``, both (n, 2) arrays as ``coordinates`` returns.

    ``distance_matrix(a, b)`` is bitwise ``distance_matrix(b, a).T``:
    differences enter as absolute values (their half-angle sines are
    squared, so the sign never mattered) and the cosine product
    commutes.
    """
    # h = sin(dlat/2)^2 + cos_a cos_b sin(dlon/2)^2, evaluated step by
    # step into two buffers; each step is the same ufunc on the same
    # operands as the one-expression form, so every entry is bitwise equal.
    h = np.multiply(np.cos(np.radians(a[:, 0]))[:, None], np.cos(np.radians(b[:, 0]))[None, :])
    half = np.empty_like(h)
    for axis, combine in ((1, np.multiply), (0, np.add)):
        np.subtract(a[:, None, axis], b[None, :, axis], out=half)
        np.abs(half, out=half)
        np.radians(half, out=half)
        np.divide(half, 2.0, out=half)
        np.sin(half, out=half)
        np.square(half, out=half)
        combine(h, half, out=h)
    # Guard against rounding pushing h a hair above 1 near antipodes.
    np.minimum(h, 1.0, out=h)
    np.sqrt(h, out=h)
    np.arcsin(h, out=h)
    return np.multiply(h, 2.0 * EARTH_RADIUS_KM, out=h)


def haversine_km(a, b) -> float:
    """Great-circle distance in kilometres between two objects with
    ``latitude`` and ``longitude``: the 1 x 1 case of
    ``distance_matrix``, so d(a, b) == d(b, a) exactly."""
    return float(distance_matrix(coordinates([a]), coordinates([b]))[0, 0])
