"""Shared generators for the test suite.

Everything is seeded and exact: random inputs are built from Fractions so
oracles can be evaluated independently of the library's scalar type.
Random parameters, interior points and unimodular maps come from
``atfkit.verify``, so the tests and the ``verify`` battery share one set
of generators.
"""

import random
from fractions import Fraction

import pytest

from atfkit import ConstructionParams, Point, qf
from atfkit.polygon import Polygon, build_blowup_polygon


def random_triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """A valid (a, b, c) with a >= b > 0 and 0 < c < b/2, all Fractions."""
    b = Fraction(rng.randint(2, 12), rng.randint(1, 3))
    a = b + Fraction(rng.randint(0, 9), rng.randint(1, 3))
    c = b * Fraction(rng.randint(1, 9), 20)
    return a, b, c


def edge_samples(poly: Polygon, per_edge: int) -> list[Point]:
    """Every vertex plus ``per_edge`` interior points of every edge."""
    points = list(poly.vertices)
    for i, edge in enumerate(poly.edges):
        v = poly.vertices[i]
        for k in range(1, per_edge + 1):
            lam = edge.length * Fraction(k, per_edge + 1)
            points.append(
                Point(v.x1 + lam * edge.direction.u, v.x2 + lam * edge.direction.v)
            )
    return points


@pytest.fixture
def default_params() -> ConstructionParams:
    return ConstructionParams(4, 2, qf("1/2"), qf("1/8"))


@pytest.fixture
def default_polygon(default_params) -> Polygon:
    return build_blowup_polygon(default_params)
