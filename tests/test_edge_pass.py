"""The single edge-value pass against the per-query scans it replaced.

Each oracle below is the former ``support_values`` scan of one boundary
query, kept verbatim as a reference.  The polygon methods and the slide
band must agree with them exactly, errors and their messages included,
on vertices, edge points, interior points, exterior points and points on
an edge line's extension beyond the polygon.
"""

import random
from fractions import Fraction

import pytest

from conftest import edge_samples, random_hulls

from atfkit.diagram import _distance_band
from atfkit.plane import Point, move
from atfkit.polygon import Polygon, build_blowup_polygon, catalog
from atfkit.verify import random_interior_point, random_params


# -- the oracles: one scan over the support values per query --------------------


def oracle_contains(poly: Polygon, p: Point, strict: bool = False) -> bool:
    threshold = 1 if strict else 0
    return all(v.sign() >= threshold for v in poly.support_values(p))


def oracle_on_boundary(poly: Polygon, p: Point) -> bool:
    signs = [v.sign() for v in poly.support_values(p)]
    return all(s >= 0 for s in signs) and 0 in signs


def oracle_distance(poly: Polygon, p: Point):
    values = poly.support_values(p)
    best = values[0]
    for v in values[1:]:
        if v < best:
            best = v
    if best.sign() < 0:
        raise ValueError(f"point ({p.x1}, {p.x2}) lies outside the polygon")
    return best


def oracle_point_to_arc(poly: Polygon, p: Point):
    """The zero-valued edge, walked from the base vertex, whose segment
    holds p with 0 <= lambda < length."""
    n = len(poly.vertices)
    values = poly.support_values(p)
    for k in range(n):
        i = (poly.base_index + k) % n
        if values[i].sign() != 0:
            continue
        edge = poly.edges[i]
        v = poly.vertices[i]
        if edge.direction.u != 0:
            lam = (p.x1 - v.x1) / edge.direction.u
        else:
            lam = (p.x2 - v.x2) / edge.direction.v
        if lam.sign() >= 0 and lam < edge.length:
            return poly.arc_of_vertex(i) + lam
    raise ValueError(f"point ({p.x1}, {p.x2}) is not on the polygon boundary")


def oracle_distance_band(poly: Polygon, a: Point, b: Point):
    """Endpoints and every rational crossing of two edge functionals, each
    crossing evaluated by a full distance query at its point."""
    fa, fb = oracle_distance(poly, a), oracle_distance(poly, b)
    lo = fa if fa <= fb else fb
    hi = fa if fa >= fb else fb
    dx, dy = b.x1 - a.x1, b.x2 - a.x2
    edges = poly.edges
    bases = [e.offset + a.x1 * e.normal.u + a.x2 * e.normal.v for e in edges]
    slopes = [dx * e.normal.u + dy * e.normal.v for e in edges]
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            ds = slopes[i] - slopes[j]
            if ds.sign() == 0:
                continue
            t = (bases[j] - bases[i]) / ds
            if t.sign() <= 0 or (t - 1).sign() >= 0:
                continue
            value = oracle_distance(poly, Point(a.x1 + t * dx, a.x2 + t * dy))
            if value > hi:
                hi = value
    return (lo, hi)


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return ("value", f(*args))
    except ValueError as exc:
        return ("error", type(exc), str(exc))


# -- the polygons and points -----------------------------------------------------

CATALOG = [
    "CP2(3)",
    "S2xS2(4,2)",
    "HirzebruchF1(4,1)",
    "Bl1CP2",
    "Bl2CP2",
    "Bl3CP2",
    "Blowup_S2xS2(4,2,1/2)",
    "Blowup2_S2xS2(4,2)",
]


def level_sets(rng: random.Random, count: int) -> list[Polygon]:
    """Level sets {F >= h} of random chopped rectangles, h in [0, max F)."""
    levels = []
    for _ in range(count):
        poly = build_blowup_polygon(random_params(rng))
        top = poly.max_distance()[0]
        levels += [poly.level_set(top * Fraction(k, 4)) for k in (0, 1, 3)]
    return levels


def polygons() -> list[Polygon]:
    """Every other polygon has its vertex list rotated, so that the base
    vertex, where the arc coordinate wraps, is not always vertex 0."""
    rng = random.Random(71)
    polys = random_hulls(rng, 25) + [catalog(name) for name in CATALOG] + level_sets(rng, 6)
    for j in range(1, len(polys), 2):
        verts = polys[j].vertices
        k = 1 + j % (len(verts) - 1)
        polys[j] = Polygon(verts[k:] + verts[:k])
    return polys


def probe_points(rng: random.Random, poly: Polygon) -> list[Point]:
    """Vertices and edge points (the base vertex and the edge before it
    among them), interior points, points just outside each vertex, and
    points on each edge line's extension past both ends of the edge."""
    points = edge_samples(poly, 3)
    points += [random_interior_point(rng, poly) for _ in range(4)]
    for v, edge in zip(poly.vertices, poly.edges):
        points.append(move(v, edge.normal, Fraction(-1, 3)))
        points.append(move(v, edge.direction, -edge.length / 3))
        points.append(move(v, edge.direction, edge.length + Fraction(1, 7)))
    return points


CASES = [(poly, probe_points(random.Random(72 + k), poly)) for k, poly in enumerate(polygons())]


# -- agreement --------------------------------------------------------------------


def test_probe_points_reach_every_case():
    assert {poly.base_index == 0 for poly, _ in CASES} == {True, False}
    for poly, points in CASES:
        assert poly.vertices[poly.base_index] in points
        kinds = {
            (oracle_contains(poly, p, strict=True), oracle_on_boundary(poly, p)) for p in points
        }
        assert kinds == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize(
    "query, oracle",
    [
        (lambda poly, p: poly.contains(p), oracle_contains),
        (lambda poly, p: poly.contains(p, strict=True),
         lambda poly, p: oracle_contains(poly, p, strict=True)),
        (Polygon.on_boundary, oracle_on_boundary),
        (Polygon.distance_to_boundary, oracle_distance),
        (Polygon.point_to_arc, oracle_point_to_arc),
    ],
    ids=["contains", "contains-strict", "on_boundary", "distance_to_boundary", "point_to_arc"],
)
def test_query_matches_its_support_value_scan(query, oracle):
    for poly, points in CASES:
        for p in points:
            assert outcome(query, poly, p) == outcome(oracle, poly, p), (poly, p)


def test_distance_band_matches_its_crossing_scan():
    # any two probe points, outside ones included, then interior pairs
    rng = random.Random(73)
    peaks = 0
    for poly, points in CASES:
        for _ in range(4):
            a, b = rng.sample(points, 2)
            assert outcome(_distance_band, poly, a, b) == outcome(oracle_distance_band, poly, a, b)
        for _ in range(3):
            a, b = random_interior_point(rng, poly), random_interior_point(rng, poly)
            lo, hi = _distance_band(poly, a, b)
            assert (lo, hi) == oracle_distance_band(poly, a, b)
            peaks += hi > max(poly.distance_to_boundary(a), poly.distance_to_boundary(b))
    assert peaks > 20  # the maximum often sits at a crossing, not an endpoint
