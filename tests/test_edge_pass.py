"""The single edge-value pass against the per-query scans it replaced.

The edge values come from integer edge rows over one common denominator;
``oracle_support_values`` and ``oracle_locate`` are the ``QField`` loops
they replaced, kept verbatim as references.  Each other oracle is the
former scan of one boundary query over those ``QField`` values.  The
polygon methods and the slide band must agree with them exactly, errors
and their messages included, on vertices, edge points, interior points,
exterior points and points on an edge line's extension beyond the
polygon, for rational polygons and for level sets at irrational levels,
at rational and at irrational points.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import convex_hull, edge_samples, outcome, random_hulls

from atfkit.diagram import _distance_band
from atfkit.plane import LatticeVector, Point, dot, move
from atfkit.polygon import Polygon, build_blowup_polygon, catalog
from atfkit.scalars import QField
from atfkit.verify import random_interior_point, random_params


# -- the oracles: the QField edge values and one scan over them per query -------


def oracle_support_values(poly: Polygon, p: Point) -> list:
    return [dot(e.normal, p) + e.offset for e in poly.edges]


def oracle_locate(poly: Polygon, p: Point):
    best, at = None, 0
    for i, e in enumerate(poly.edges):
        v = dot(e.normal, p) + e.offset
        if best is None or v < best:
            best, at = v, i
    return best, at


def oracle_contains(poly: Polygon, p: Point, strict: bool = False) -> bool:
    threshold = 1 if strict else 0
    return all(v.sign() >= threshold for v in oracle_support_values(poly, p))


def oracle_on_boundary(poly: Polygon, p: Point) -> bool:
    signs = [v.sign() for v in oracle_support_values(poly, p)]
    return all(s >= 0 for s in signs) and 0 in signs


def oracle_distance(poly: Polygon, p: Point):
    values = oracle_support_values(poly, p)
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
    values = oracle_support_values(poly, p)
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
    """Level sets {F >= h} of random chopped rectangles, h in [0, max F),
    at rational levels and at levels p/q + r/s*sqrt(2) and p/q + r/s*sqrt(3),
    whose edge offsets are irrational."""
    levels = []
    for _ in range(count):
        poly = build_blowup_polygon(random_params(rng))
        top = poly.max_distance()[0]
        levels += [poly.level_set(top * Fraction(k, 4)) for k in (0, 1, 3)]
        for d in (2, 3):
            root = QField(0, Fraction(rng.randint(1, 9), rng.randint(20, 90)), d)
            levels.append(poly.level_set(top * Fraction(rng.randint(1, 5), 8) + root))
    return levels


def coprime_hull(rng: random.Random) -> Polygon:
    """A hull of points whose coordinates have the coprime denominators
    10007 and 10009."""
    points = {
        (Fraction(rng.randint(-10**5, 10**5), 10007), Fraction(rng.randint(-10**5, 10**5), 10009))
        for _ in range(12)
    }
    return Polygon(convex_hull(points))


def radicand(poly: Polygon) -> int | None:
    """The radicand of the polygon's coordinates, None when all are rational."""
    return next((x.d for v in poly.vertices for x in v if x.d), None)


def polygons() -> list[Polygon]:
    """Every other polygon has its vertex list rotated, so that the base
    vertex, where the arc coordinate wraps, is not always vertex 0."""
    rng = random.Random(71)
    polys = random_hulls(rng, 25) + [catalog(name) for name in CATALOG] + level_sets(rng, 6)
    polys += [coprime_hull(rng) for _ in range(4)]
    for j in range(1, len(polys), 2):
        verts = polys[j].vertices
        k = 1 + j % (len(verts) - 1)
        polys[j] = Polygon(verts[k:] + verts[:k])
    return polys


def probe_points(rng: random.Random, poly: Polygon) -> list[Point]:
    """Vertices and edge points (the base vertex and the edge before it
    among them), interior points, points just outside each vertex, points
    on each edge line's extension past both ends of the edge, and interior
    points moved by an irrational step in the polygon's own radicand (or
    sqrt(5) for a rational polygon)."""
    points = edge_samples(poly, 3)
    inside = [random_interior_point(rng, poly) for _ in range(4)]
    root = QField(0, Fraction(1, rng.randint(200, 900)), radicand(poly) or 5)
    points += inside + [move(p, LatticeVector(1, -2), root) for p in inside]
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


def test_cases_reach_irrational_polygons_points_and_large_denominators():
    kinds = {radicand(poly) for poly, _ in CASES}
    assert {None, 2, 3} <= kinds
    assert any({10007, 10009} <= {x.q for v in poly.vertices for x in v} for poly, _ in CASES)
    for poly, points in CASES:
        assert any(not (p.x1.is_rational() and p.x2.is_rational()) for p in points)


def test_edge_values_match_the_qfield_loop():
    for poly, points in CASES:
        for p in points:
            assert poly.support_values(p) == oracle_support_values(poly, p), (poly, p)
            assert poly._locate(p)[:2] == oracle_locate(poly, p), (poly, p)


def test_a_point_of_another_radicand_is_refused_where_the_qfield_loop_refused():
    rng = random.Random(74)
    cases = 0
    for poly, points in CASES:
        d = radicand(poly)
        inside = [p for p in points if oracle_contains(poly, p, strict=True)][:3]
        # the rational parts of inside points, moved by irrational steps: in
        # sqrt(2) and sqrt(3) at once on a rational polygon with an edge normal
        # (1, 1) or (1, -1), in sqrt(5) on an irrational polygon
        k = rng.randint(50, 99)
        if d is None:
            if not any(abs(e.normal.u) == abs(e.normal.v) == 1 for e in poly.edges):
                continue
            roots = QField(0, Fraction(1, k), 2), QField(0, Fraction(1, k + 1), 3)
        else:
            roots = QField(0, Fraction(1, k), 5), QField(0, Fraction(-1, k + 1), 5)
        strays = [Point(p.x1.a + roots[0], p.x2.a + roots[1]) for p in inside]
        for p in strays:
            assert outcome(oracle_locate, poly, p)[0] == "error"
            with pytest.raises(ValueError, match="mixed radicands"):
                poly._locate(p)
            with pytest.raises(ValueError, match="mixed radicands"):
                poly.support_values(p)
            cases += 1
    assert cases > 40


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


def test_distance_band_of_a_many_vertex_hull_is_fast():
    # the band over every edge pair's crossing is cubic in the edge count
    rng = random.Random(75)
    ts = set()
    while len(ts) < 240:
        ts.add(Fraction(rng.randint(-300, 300), rng.randint(1, 60)))
    points = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    poly = Polygon(sorted(points, key=lambda p: math.atan2(p[1], p[0])))
    assert len(poly.edges) == 240
    top, center = poly.max_distance()
    # segments across the polygon: one runs a little past the maximizer and
    # peaks at max F, the other two stay below max F
    a = Point(Fraction(-1, 2), Fraction(-1, 3))
    past = Point(center.x1 + (center.x1 - a.x1) / 50, center.x2 + (center.x2 - a.x2) / 50)
    ends = [
        (a, past),
        (a, Point(Fraction(2, 5), Fraction(4, 5))),
        (a, Point(Fraction(1, 2), Fraction(1, 3))),
    ]
    start = time.perf_counter()
    bands = [_distance_band(poly, a, b) for a, b in ends]
    assert time.perf_counter() - start < 0.5
    for (a, b), (lo, hi) in zip(ends, bands):
        fa, fb = poly.distance_to_boundary(a), poly.distance_to_boundary(b)
        dx, dy = b.x1 - a.x1, b.x2 - a.x2
        samples = [Point(a.x1 + dx * Fraction(k, 16), a.x2 + dy * Fraction(k, 16)) for k in range(17)]
        assert lo == min(fa, fb) and max(fa, fb) <= hi <= top
        assert all(poly.distance_to_boundary(p) <= hi for p in samples)
    assert bands[0][1] == top and bands[1][1] < top and bands[2][1] < top
