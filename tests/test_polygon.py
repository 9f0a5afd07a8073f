"""Convex polygons: boundary distance, level sets, chops, and the catalog."""

import copy
import itertools
import json
import math
import pickle
import random
import re
import time
from fractions import Fraction

import pytest

from conftest import (
    HOSTILE_POLYGONS,
    outcome,
    qfield_arcs,
    qfield_edge_deaths,
    qfield_solve_equidistant_triple,
    random_hulls,
    random_triple,
)

from atfkit.classify import monotone_test
from atfkit import scalars
from atfkit.diagram import build_pi0
from atfkit.plane import LatticeVector, Point, move, orient, pt
from atfkit.polygon import (
    ConstructionParams,
    Edge,
    Polygon,
    build_blowup_polygon,
    catalog,
    catalog_names,
    centered_rectangle,
    clip_halfplane,
    solve_equidistant_triple,
)
from atfkit.recurrence import build_recurrence_map, rotate_on_level
from atfkit.scalars import QField, qf
from atfkit.verify import random_interior_point, random_params, random_unimodular

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
PENTAGRAM = [(0, 0), (5, 3), (-1, 3), (4, 0), (2, 5)]
ROOT_2 = QField.sqrt(2)
# offsets and max F in sqrt(2)
SQRT2_POLYGON = centered_rectangle(5 + ROOT_2, 3 + ROOT_2).corner_chop(1, ROOT_2 / 2)
# one offset in sqrt(2), and that edge dies at an irrational level below max F
SQRT2_CHOP = centered_rectangle(4, 2).corner_chop(1, ROOT_2 / 2)


def exact(value):
    """The integers of a scalar or a point, so agreement means the same
    reduced representation and not only the same value."""
    if isinstance(value, Point):
        return value.x1._v, value.x2._v
    return value._v


# -- construction -------------------------------------------------------------


def test_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        Polygon([(0, 0), (0, 1), (1, 0)])  # clockwise
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 0), (2, 0), (0, 1)])  # collinear triple
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 0), (1, 0), (0, 1)])  # repeated vertex


@pytest.mark.parametrize(
    "loop", [PENTAGRAM, [(0, 0), (1, 0), (1, 1), (0, 1)] * 2], ids=["pentagram", "square-twice"]
)
def test_rejects_loops_winding_more_than_once(loop):
    # every corner turns left, but the boundary goes round twice
    with pytest.raises(ValueError, match="wind 2 times"):
        Polygon(loop)
    text = json.dumps({"vertices": [[str(x), str(y)] for x, y in loop]})
    with pytest.raises(ValueError):
        Polygon.from_json(text)


def test_edges_point_inward():
    for edge in UNIT_SQUARE.edges:
        assert edge.normal.is_primitive()
        assert edge.length == 1
    center = pt("1/2", "1/2")
    assert UNIT_SQUARE.support_values(center) == [qf("1/2")] * 4


def test_polygon_equality_and_hash():
    again = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert UNIT_SQUARE == again
    assert hash(UNIT_SQUARE) == hash(again)
    rotated = Polygon([(1, 0), (1, 1), (0, 1), (0, 0)])
    assert UNIT_SQUARE != rotated  # same set, different starting vertex
    assert UNIT_SQUARE != object() and not UNIT_SQUARE == UNIT_SQUARE.vertices


def test_polygons_are_immutable():
    for name, value in (("vertices", ()), ("_schedule", None), ("extra", 1)):
        with pytest.raises(AttributeError, match="Polygon is immutable"):
            setattr(UNIT_SQUARE, name, value)
    assert UNIT_SQUARE == Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_blowup_polygon_frozen_vertices():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    assert [tuple(v) for v in poly.vertices] == [
        (qf(-2), qf(-1)),
        (qf("3/2"), qf(-1)),
        (qf(2), qf("-1/2")),
        (qf(2), qf(1)),
        (qf(-2), qf(1)),
    ]
    slant = poly.edges[1]
    assert slant.normal == LatticeVector(-1, 1)
    assert slant.offset == qf("5/2")  # (a + b)/2 - c
    assert slant.length == qf("1/2")


def test_blowup_polygon_is_the_chopped_rectangle():
    rng = random.Random(17)
    cases = [random_params(rng) for _ in range(200)]
    cases.append(ConstructionParams(5 * ROOT_2, 3 * ROOT_2, ROOT_2 / 2, ROOT_2 / 8))
    for params in cases:
        chopped = centered_rectangle(params.a, params.b).corner_chop(1, params.c)
        poly = build_blowup_polygon(params)
        assert poly == chopped
        assert [exact(v) for v in poly.vertices] == [exact(v) for v in chopped.vertices]
        assert poly.edges == chopped.edges


def test_pi0_polygon_is_constructed_once(monkeypatch):
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    source = build_pi0(params)
    constructions = []
    init = Polygon.__init__

    def counted(self, vertices):
        constructions.append(self)
        init(self, vertices)

    monkeypatch.setattr(Polygon, "__init__", counted)
    build_blowup_polygon(params)
    assert len(constructions) == 1
    build_recurrence_map(source, verify=False)
    assert len(constructions) == 1


def test_blowup_polygon_documented_example():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/4"))
    poly = build_blowup_polygon(params)
    assert [tuple(v) for v in poly.vertices] == [
        (qf(-2), qf(-1)),
        (qf("3/2"), qf(-1)),
        (qf(2), qf("-1/2")),
        (qf(2), qf(1)),
        (qf(-2), qf(1)),
    ]


# -- membership and distance --------------------------------------------------


def test_contains_and_boundary():
    assert UNIT_SQUARE.contains(pt("1/2", "1/2"), strict=True)
    assert UNIT_SQUARE.contains(pt(0, 0))
    assert not UNIT_SQUARE.contains(pt(0, 0), strict=True)
    assert UNIT_SQUARE.on_boundary(pt("1/2", 0))
    assert not UNIT_SQUARE.on_boundary(pt("1/2", "1/2"))
    assert not UNIT_SQUARE.contains(pt(2, 0))


def test_distance_errors_outside():
    with pytest.raises(ValueError):
        UNIT_SQUARE.distance_to_boundary(pt(2, 2))


def test_distance_matches_closed_form():
    rng = random.Random(21)
    for _ in range(12):
        a, b, c = random_triple(rng)
        params = ConstructionParams(a, b, c, min(c, b / 2 - c) / 2)
        poly = build_blowup_polygon(params)
        for _ in range(25):
            p = random_interior_point(rng, poly)
            x1, x2 = p.x1, p.x2
            expected = min(
                qf(a) / 2 - abs(x1),
                qf(b) / 2 - abs(x2),
                x2 - x1 + qf(a + b) / 2 - qf(c),
            )
            assert poly.distance_to_boundary(p) == expected


def test_distance_zero_exactly_on_boundary():
    assert UNIT_SQUARE.distance_to_boundary(pt(0, "1/2")) == 0
    assert UNIT_SQUARE.distance_to_boundary(pt("1/4", "1/2")) == qf("1/4")


# -- Delzant structure ----------------------------------------------------------


def test_is_delzant():
    assert UNIT_SQUARE.is_delzant()
    assert catalog("CP2(3)").is_delzant()
    assert not Polygon([(0, 0), (2, 0), (0, 1)]).is_delzant()


def test_self_intersections_frozen():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    assert [poly.self_intersection(i) for i in range(5)] == [-1, -1, -1, 0, 0]
    assert [UNIT_SQUARE.self_intersection(i) for i in range(4)] == [0, 0, 0, 0]
    triangle = catalog("CP2(2)")
    assert [triangle.self_intersection(i) for i in range(3)] == [1, 1, 1]


def test_self_intersection_unsolvable():
    skew = Polygon([(0, 0), (2, 0), (0, 1)])
    with pytest.raises(ValueError):
        skew.self_intersection(1)


def componentwise_self_intersection(poly: Polygon, i: int) -> int:
    """The fan relation solved one coordinate at a time, then checked whole."""
    n = len(poly.edges)
    cur = poly.edges[i % n].normal
    rhs = poly.edges[(i - 1) % n].normal + poly.edges[(i + 1) % n].normal
    if cur.u != 0:
        if rhs.u % cur.u != 0:
            raise ValueError(f"fan relation unsolvable at edge {i}")
        s = -(rhs.u // cur.u)
    else:
        if rhs.v % cur.v != 0:
            raise ValueError(f"fan relation unsolvable at edge {i}")
        s = -(rhs.v // cur.v)
    if rhs.u != -s * cur.u or rhs.v != -s * cur.v:
        raise ValueError(f"fan relation unsolvable at edge {i}")
    return s


def test_self_intersection_matches_the_componentwise_solve():
    polys = (
        [catalog(name) for name in CATALOG_SAMPLES]
        + NON_DELZANT
        + random_hulls(random.Random(5), 300)
        + random_delzant(random.Random(6), 200)
    )
    cases = solved = 0
    for poly in polys:
        for i in range(-1, len(poly.edges) + 1):
            want = outcome(componentwise_self_intersection, poly, i)
            assert outcome(poly.self_intersection, i) == want, (poly, i)
            cases += 1
            solved += want[0] == "value"
    # both branches ran many times: Delzant corners solve, hull corners do not
    assert solved > 1000 and cases - solved > 1000, (cases, solved)


def test_index_wraps_modulo():
    assert UNIT_SQUARE.self_intersection(-1) == UNIT_SQUARE.self_intersection(3)


def test_corner_chop():
    chopped = UNIT_SQUARE.corner_chop(2, qf("1/4"))
    assert [tuple(v) for v in chopped.vertices] == [
        (qf(0), qf(0)),
        (qf(1), qf(0)),
        (qf(1), qf("3/4")),
        (qf("3/4"), qf(1)),
        (qf(0), qf(1)),
    ]
    assert chopped.is_delzant()
    assert chopped.self_intersection(2) == -1


def test_corner_chop_depth_limits():
    with pytest.raises(ValueError):
        UNIT_SQUARE.corner_chop(0, 1)  # not strictly below edge length
    with pytest.raises(ValueError):
        UNIT_SQUARE.corner_chop(0, 0)
    with pytest.raises(ValueError):
        UNIT_SQUARE.corner_chop(0, -1)


# -- measurements ---------------------------------------------------------------


def test_area_and_perimeter():
    assert UNIT_SQUARE.area() == 1
    assert UNIT_SQUARE.perimeter() == 4
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    assert poly.perimeter() == qf("23/2")  # 2(a+b) - c
    assert poly.area() == 8 - qf("1/8")  # ab - c^2/2


def test_max_distance_frozen():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    value, point = poly.max_distance()
    assert value == 1  # b/2
    assert poly.distance_to_boundary(point) == value
    square_value, square_point = centered_rectangle(4, 4).max_distance()
    assert square_value == 2
    assert square_point == pt(0, 0)


def test_max_distance_dominates_grid():
    rng = random.Random(22)
    for _ in range(6):
        params = random_params(rng)
        poly = build_blowup_polygon(params)
        value, point = poly.max_distance()
        assert poly.distance_to_boundary(point) == value
        for _ in range(40):
            q = random_interior_point(rng, poly)
            assert poly.distance_to_boundary(q) <= value


# -- level sets -----------------------------------------------------------------


def test_level_zero_is_the_polygon():
    assert UNIT_SQUARE.level_set(0) is UNIT_SQUARE


def test_level_set_bounds():
    with pytest.raises(ValueError):
        UNIT_SQUARE.level_set(qf("1/2"))  # equals max distance
    with pytest.raises(ValueError):
        UNIT_SQUARE.level_set(-1)


def test_level_set_of_square_is_inner_square():
    inner = centered_rectangle(4, 4).level_set(qf("1/2"))
    assert inner == centered_rectangle(3, 3)


def test_level_set_frozen_pentagon():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    level = poly.level_set(qf("1/4"))
    assert [tuple(v) for v in level.vertices] == [
        (qf("-7/4"), qf("-3/4")),
        (qf("3/2"), qf("-3/4")),
        (qf("7/4"), qf("-1/2")),
        (qf("7/4"), qf("3/4")),
        (qf("-7/4"), qf("3/4")),
    ]
    assert level.perimeter() == qf("39/4")


def test_level_loses_the_slant_edge_above_c():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    assert len(poly.level_set(qf("3/4")).edges) == 4
    assert len(poly.level_set(qf("1/2")).edges) == 4


def test_level_perimeter_formula():
    rng = random.Random(23)
    for _ in range(10):
        a, b, c = random_triple(rng)
        params = ConstructionParams(a, b, c, min(c, b / 2 - c) / 2)
        poly = build_blowup_polygon(params)
        for _ in range(5):
            h = c * Fraction(rng.randint(0, 9), 10)
            expected = qf(2 * (a + b) - c - 7 * h)
            assert poly.level_perimeter(qf(h)) == expected


def test_level_distance_consistency():
    # every point of the level boundary has distance exactly h
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    h = qf("3/16")
    level = poly.level_set(h)
    for v in level.vertices:
        assert poly.distance_to_boundary(v) == h


def clip_and_clean_level(poly: Polygon, h) -> tuple[Point, ...]:
    """Reference level set: clip by every shifted edge, then drop repeated
    and collinear points, one at a time and repeated points first."""
    pts = list(poly.vertices)
    for edge in poly.edges:
        pts = clip_halfplane(pts, edge.normal, edge.offset - h)
    while len(pts) >= 3:
        n = len(pts)
        doomed = next((i for i in range(n) if pts[i] == pts[(i + 1) % n]), None)
        if doomed is None:
            doomed = next(
                (i for i in range(n) if orient(pts[i - 1], pts[i], pts[(i + 1) % n]) == 0),
                None,
            )
        if doomed is None:
            break
        pts.pop(doomed)
    return tuple(pts)


CATALOG_SAMPLES = [
    "CP2(3)",
    "S2xS2(4,2)",
    "HirzebruchF1(4,1)",
    "Bl1CP2",
    "Bl2CP2",
    "Bl3CP2",
    "Blowup_S2xS2(4,2,1/2)",
    "Blowup2_S2xS2(4,2)",
]
NON_DELZANT = [
    Polygon([(0, 0), (2, 0), (0, 1)]),
    Polygon([(0, 0), (3, 0), (4, 1), (2, 3), (0, 2)]),
]


def rotations(poly: Polygon) -> list[Polygon]:
    verts = poly.vertices
    return [Polygon(verts[k:] + verts[:k]) for k in range(len(verts))]


def oracle_cases() -> list[tuple[Polygon, list]]:
    """(polygon, extra levels): every vertex rotation of the catalog and of
    the non-Delzant polygons, det +-1 images, and chopped rectangles with
    their slant-edge death level h = c."""
    rng = random.Random(26)
    cases = []
    for poly in [catalog(name) for name in CATALOG_SAMPLES] + NON_DELZANT:
        cases += [(rotated, []) for rotated in rotations(poly)]
        cases += [(poly.transform(random_unimodular(rng, det)), []) for det in (1, -1)]
    for _ in range(8):
        a, b, c = random_triple(rng)
        poly = build_blowup_polygon(ConstructionParams(a, b, c, min(c, b / 2 - c) / 2))
        cases.append((poly, [qf(c)]))
    return cases


def oracle_levels(poly: Polygon, extra: list) -> list:
    top = poly.max_distance()[0]
    return [top * k / 17 for k in range(1, 17)] + [top * QField.sqrt(2) / 3] + extra


def test_level_set_matches_clip_and_clean_oracle():
    count = 0
    for poly, extra in oracle_cases():
        for h in oracle_levels(poly, extra):
            assert poly.level_set(h).vertices == clip_and_clean_level(poly, h), (poly, h)
            count += 1
    assert count > 1000


def test_delzant_level_edges_shrink_by_self_intersection():
    # while no edge has vanished, edge i of {F >= h} has length l_i - (2 + s_i) h
    for poly, extra in oracle_cases():
        if not poly.is_delzant():
            continue
        shrink = {
            e.normal: (e.length, 2 + poly.self_intersection(i)) for i, e in enumerate(poly.edges)
        }
        first_death = min(length / rate for length, rate in shrink.values() if rate > 0)
        for h in oracle_levels(poly, extra) + [first_death]:
            if h > first_death or h >= poly.max_distance()[0]:
                continue
            predicted = {n: length - rate * h for n, (length, rate) in shrink.items()}
            got = {e.normal: e.length for e in poly.level_set(h).edges}
            assert got == {n: length for n, length in predicted.items() if length.sign() > 0}


def test_two_level_sets_at_one_level_are_equal():
    poly = build_blowup_polygon(ConstructionParams(4, 2, qf("1/2"), qf("1/8")))
    first = poly.level_set(Fraction(1, 200))
    again = poly.level_set(qf("1/200"))
    assert again == first and again.edges == first.edges


# -- the edge-death schedule against its oracles ---------------------------------


def lp_max_distance(poly: Polygon):
    """Reference max F as an exact linear program: the optimum of
    ``max t  s.t.  <n_i, x> + k_i >= t`` is attained where three constraints
    are active, so every edge triple is solved and the best feasible kept."""
    best = None
    for triple in itertools.combinations(poly.edges, 3):
        solved = qfield_solve_equidistant_triple(*triple)
        if solved is None:
            continue
        point, t = solved
        if all(v >= t for v in poly.support_values(point)) and (best is None or t > best):
            best = t
    return best


def first_triple_monotone(poly: Polygon) -> bool:
    """Reference monotone test: the first independent edge triple pins the
    candidate center, and every other edge must agree on its distance."""
    for triple in itertools.combinations(poly.edges, 3):
        solved = qfield_solve_equidistant_triple(*triple)
        if solved is not None:
            point, t = solved
            return t.sign() > 0 and all(v == t for v in poly.support_values(point))
    return False


def primitive_fan(bound: int) -> Polygon:
    """The polygon whose edges are every primitive direction (u, v) with
    |u|, |v| <= bound in angular order, each of lattice length 1."""
    dirs = [
        (u, v)
        for u in range(-bound, bound + 1)
        for v in range(-bound, bound + 1)
        if math.gcd(u, v) == 1
    ]
    dirs.sort(key=lambda d: math.atan2(d[1], d[0]))
    verts = list(itertools.accumulate(dirs, lambda p, d: (p[0] + d[0], p[1] + d[1]),
                                      initial=(0, 0)))
    return Polygon(verts[:-1])


def random_delzant(rng: random.Random, count: int) -> list[Polygon]:
    """Catalog shapes and squares, chopped at random corners and moved by
    random unimodular maps; chops keep a polygon Delzant."""
    shapes = [catalog(name) for name in CATALOG_SAMPLES] + [
        catalog(f"S2xS2({k},{k})") for k in (1, 3)
    ]
    out = []
    for _ in range(count):
        poly = rng.choice(shapes)
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(poly.edges))
            room = min(poly.edges[i - 1].length, poly.edges[i].length)
            poly = poly.corner_chop(i, room * Fraction(rng.randint(1, 7), 8))
        out.append(poly.transform(random_unimodular(rng, rng.choice((1, -1)))))
    return out


def test_max_distance_matches_triple_enumeration_oracle():
    rng = random.Random(27)
    polys = random_hulls(rng, 300) + random_delzant(rng, 60) + [primitive_fan(3)]
    assert sum(not p.is_delzant() for p in polys) > 250
    for poly in polys:
        value, point = poly.max_distance()
        assert value == lp_max_distance(poly), poly
        assert poly.distance_to_boundary(point) == value
    fan = primitive_fan(3)
    assert len(fan.edges) == 32 and fan.max_distance()[0] == qf("27/2")


def test_schedule_level_sets_match_clip_and_clean_oracle():
    rng = random.Random(28)
    count = 0
    for poly in random_hulls(rng, 300) + [primitive_fan(3)]:
        top = poly.max_distance()[0]
        deaths = sorted({t for t in poly._edge_deaths()[0] if t < top})
        for h in [top * k / 4 for k in range(1, 4)] + deaths:
            assert poly.level_set(h).vertices == clip_and_clean_level(poly, h), (poly, h)
            count += 1
    assert count > 2000


def test_schedule_of_a_many_vertex_hull_is_fast():
    # edges die one at a time on this hull, so a schedule that rescans every
    # live edge at each death is quadratic
    rng = random.Random(1)
    ts = set()
    while len(ts) < 3000:
        ts.add(Fraction(rng.randint(-300, 300), rng.randint(1, 60)))
    points = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    poly = Polygon(sorted(points, key=lambda p: math.atan2(p[1], p[0])))
    assert len(poly.edges) == 3000
    start = time.perf_counter()
    top, point = poly.max_distance()
    level = poly.level_set(top / 2)
    # a low level keeps 253 edges; the two levels, the low level's and the
    # hull's perimeters and one rotation make five level reads, the hull's
    # perimeter read between the two reads of the low level
    low = poly.level_set(top / 100)
    low_perimeter, perimeter = low.perimeter(), poly.perimeter()
    moved = rotate_on_level(poly, top / 100, low_perimeter / 3, low.vertices[0])
    assert time.perf_counter() - start < 3.0
    assert poly.distance_to_boundary(point) == top
    assert 3 <= len(level.edges) < 3000
    last = poly.base_index - 1  # the edge that closes the arc
    assert perimeter == poly.arc_of_vertex(last) + poly.edges[last].length
    assert len(low.edges) == 253
    assert low.point_to_arc(moved) == low.arc_of_vertex(0) + low_perimeter / 3


def test_monotone_test_matches_first_triple_oracle():
    rng = random.Random(29)
    polys = random_delzant(rng, 80) + [primitive_fan(3)]
    polys += [catalog(f"CP2({k})") for k in (1, 2, 5)] + [catalog("S2xS2(3,3)")]
    verdicts = [monotone_test(poly) for poly in polys]
    assert verdicts == [first_triple_monotone(poly) for poly in polys]
    assert 5 <= sum(verdicts) < len(polys)


def test_integer_solve_matches_the_qfield_oracle_on_every_edge_triple():
    rng = random.Random(18)
    polys = random_hulls(rng, 40) + [catalog(name) for name in CATALOG_SAMPLES]
    polys += [SQRT2_POLYGON, SQRT2_CHOP, primitive_fan(3)]
    singular = irrational = 0
    for poly in polys:
        for triple in itertools.combinations(poly.edges, 3):
            ours = solve_equidistant_triple(*triple)
            oracle = qfield_solve_equidistant_triple(*triple)
            if oracle is None:
                assert ours is None, triple
                singular += 1
                continue
            assert (exact(ours[0]), exact(ours[1])) == (exact(oracle[0]), exact(oracle[1]))
            irrational += oracle[1]._v[3] is not None
    assert singular > 100 and irrational > 10


def test_schedule_matches_the_qfield_oracle():
    rng = random.Random(19)
    polys = random_hulls(rng, 80) + [catalog(name) for name in CATALOG_SAMPLES]
    polys += [SQRT2_POLYGON, SQRT2_CHOP, primitive_fan(3)]
    polys += [build_blowup_polygon(random_params(rng)) for _ in range(20)]
    for poly in polys:
        deaths, top, point = poly._edge_deaths()
        o_deaths, o_top, o_point = qfield_edge_deaths(poly)
        assert [exact(t) for t in deaths] == [exact(t) for t in o_deaths], poly
        assert (exact(top), exact(point)) == (exact(o_top), exact(o_point)), poly


def test_triple_solve_refuses_offsets_in_two_radicands():
    edges = (
        Edge(LatticeVector(0, 1), ROOT_2, LatticeVector(1, 0), qf(1)),
        Edge(LatticeVector(-1, 0), QField.sqrt(3), LatticeVector(0, 1), qf(1)),
        Edge(LatticeVector(1, -1), qf(2), LatticeVector(1, 1), qf(1)),
    )
    with pytest.raises(ValueError, match="mixed radicands"):
        solve_equidistant_triple(*edges)
    with pytest.raises(ValueError, match="mixed radicands"):
        qfield_solve_equidistant_triple(*edges)


# -- arc coordinates -------------------------------------------------------------


def test_base_vertex_is_lex_min():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    assert poly.vertices[poly.base_index] == pt(-2, -1)
    assert poly.point_to_arc(pt(-2, -1)) == 0


def test_arc_round_trip():
    rng = random.Random(24)
    params = random_params(rng)
    poly = build_blowup_polygon(params)
    per = poly.perimeter()
    for _ in range(60):
        s = per * Fraction(rng.randint(0, 127), 128)
        p = poly.arc_to_point(s)
        assert poly.on_boundary(p)
        assert poly.point_to_arc(p) == s


def test_arc_wraps_modulo_perimeter():
    per = UNIT_SQUARE.perimeter()
    p = UNIT_SQUARE.arc_to_point(qf("1/2"))
    assert UNIT_SQUARE.arc_to_point(qf("1/2") + per) == p
    assert UNIT_SQUARE.arc_to_point(qf("1/2") - 2 * per) == p


def test_arc_of_interior_point_rejected():
    with pytest.raises(ValueError):
        UNIT_SQUARE.point_to_arc(pt("1/2", "1/2"))


def test_arc_orientation_is_counterclockwise():
    # walking the square from (0,0): bottom edge first, then the right side
    assert UNIT_SQUARE.point_to_arc(pt("1/2", 0)) == qf("1/2")
    assert UNIT_SQUARE.point_to_arc(pt(1, "1/2")) == qf("3/2")
    assert UNIT_SQUARE.point_to_arc(pt("1/2", 1)) == qf("5/2")
    assert UNIT_SQUARE.point_to_arc(pt(0, "1/2")) == qf("7/2")


def _scanning_arc_to_point(self, s):
    """Oracle: ``Polygon.arc_to_point`` before it bisected the arc table,
    verbatim but for being a function and reading the ``QField`` prefix
    from ``qfield_arcs``."""
    s = qf(s)
    prefix = qfield_arcs(self)
    per = prefix[-1]
    s = s - scalars.floor(s / per) * per
    n = len(self.vertices)
    for k in range(n):
        if s < prefix[k + 1]:
            i = (self._base + k) % n
            return move(self.vertices[i], self.edges[i].direction, s - prefix[k])
    # s == perimeter cannot survive the reduction; guard anyway
    return self.vertices[self._base]


def arc_oracle_polygons() -> list[Polygon]:
    """The catalog samples and two level sets of each."""
    polys = []
    for poly in [catalog(name) for name in CATALOG_SAMPLES]:
        top, _ = poly.max_distance()
        polys += [poly, poly.level_set(top / 3), poly.level_set(top * 2 / 3)]
    return polys


def test_arc_to_point_matches_the_scanning_oracle():
    root2 = QField(0, Fraction(1, 3), 2)
    for poly in arc_oracle_polygons():
        per = poly.perimeter()
        vertex_arcs = [poly.arc_of_vertex(i) for i in range(len(poly.vertices))]
        arcs = [per * Fraction(k, 12) for k in range(-13, 27)]
        arcs += [s + k * per for s in vertex_arcs for k in (-1, 0, 1, 2)]
        arcs += [root2 * k + Fraction(j, 5) for k in (-7, -1, 1, 4, 11) for j in (-3, 0, 2)]
        for s in arcs:
            assert poly.arc_to_point(s) == _scanning_arc_to_point(poly, s), (poly, s)


# -- transforms and serialization -------------------------------------------------


def test_transform_preserves_lattice_geometry():
    rng = random.Random(25)
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    for _ in range(15):
        det = rng.choice([1, -1])
        m = random_unimodular(rng, det)
        image = poly.transform(m)
        assert image.is_delzant()
        assert image.perimeter() == poly.perimeter()
        assert image.area() == poly.area()
        p = random_interior_point(rng, poly)
        assert image.distance_to_boundary(m.apply(p)) == poly.distance_to_boundary(p)


def test_json_round_trip():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    again = Polygon.from_json(poly.to_json())
    assert again == poly
    with pytest.raises(ValueError):
        Polygon.from_json("{}")
    for inexact in ([[0, 0], [1.5, 0], [0, 1]], [[0, 0], [1, 0], [0, True]]):
        with pytest.raises(ValueError):
            Polygon.from_json(json.dumps({"vertices": inexact}))


@pytest.mark.parametrize("name", sorted(HOSTILE_POLYGONS))
def test_json_rejects_hostile_input(name):
    with pytest.raises(ValueError):
        Polygon.from_json(HOSTILE_POLYGONS[name])


def test_offsets_in_two_radicands_are_refused_at_construction():
    r2, r3 = QField.sqrt(2), QField.sqrt(3)
    vertices = [(0, 0), (r2, qf(0)), (r2, r3), (qf(0), r3)]
    with pytest.raises(ValueError, match="mixed radicands sqrt\\(2\\) and sqrt\\(3\\)"):
        Polygon(vertices)
    with pytest.raises(ValueError, match="mixed radicands"):
        Polygon.from_json(HOSTILE_POLYGONS["mixed radicands"])
    # one radicand throughout still builds
    assert Polygon([(0, 0), (r2, qf(0)), (r2, r2), (qf(0), r2)]).area() == 2


def test_copy_and_pickle_round_trip():
    poly = build_blowup_polygon(ConstructionParams(4, 2, qf("1/2"), qf("1/8")))
    size = len(pickle.dumps(poly))
    level = poly.level_set(qf("1/4"))
    assert len(pickle.dumps(poly)) == size  # the memo is never serialized
    for again in (copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert again == poly and again.edges == poly.edges
        assert again.perimeter() == poly.perimeter()
        assert again.level_set(qf("1/4")) == level


# -- solvers and helpers -----------------------------------------------------------


def test_solve_equidistant_triple():
    square = centered_rectangle(2, 2)
    solved = solve_equidistant_triple(square.edges[0], square.edges[1], square.edges[2])
    assert solved is not None
    point, t = solved
    for edge in (square.edges[0], square.edges[1], square.edges[2]):
        value = point.x1 * edge.normal.u + point.x2 * edge.normal.v + edge.offset
        assert value == t
    # two parallel edges and nothing to pin the third coordinate down
    assert solve_equidistant_triple(
        square.edges[0], square.edges[2], square.edges[0]
    ) is None


def test_clip_halfplane():
    pts = list(UNIT_SQUARE.vertices)
    clipped = clip_halfplane(pts, LatticeVector(-1, 0), qf("1/2"))
    assert [tuple(p) for p in clipped] == [
        (qf(0), qf(0)),
        (qf("1/2"), qf(0)),
        (qf("1/2"), qf(1)),
        (qf(0), qf(1)),
    ]
    assert clip_halfplane(pts, LatticeVector(-1, 0), qf(-2)) == []
    assert clip_halfplane([], LatticeVector(1, 0), qf(0)) == []


# -- parameters and catalog ----------------------------------------------------------


def test_construction_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(2, 4, 1, qf("1/8"))  # a < b
    with pytest.raises(ValueError):
        ConstructionParams(4, 2, 1, qf("1/8"))  # c = b/2
    with pytest.raises(ValueError):
        ConstructionParams(4, 2, qf("1/2"), qf("1/2"))  # eps too large
    with pytest.raises(ValueError):
        ConstructionParams(4, 2, qf("1/2"), 0)
    params = ConstructionParams("4", "2", "1/2", "1/8")
    assert params.a == 4 and params.eps == qf("1/8")


def test_centered_rectangle_validation():
    with pytest.raises(ValueError):
        centered_rectangle(0, 2)
    with pytest.raises(ValueError):
        centered_rectangle(2, -1)


def test_catalog_names_all_build():
    names = catalog_names()
    assert len(names) == 8
    samples = {
        "CP2(lam)": "CP2(3)",
        "S2xS2(a,b)": "S2xS2(4,2)",
        "HirzebruchF1(lam,c)": "HirzebruchF1(4,1)",
        "Bl1CP2": "Bl1CP2",
        "Bl2CP2": "Bl2CP2",
        "Bl3CP2": "Bl3CP2",
        "Blowup_S2xS2(a,b,c)": "Blowup_S2xS2(4,2,1/2)",
        "Blowup2_S2xS2(a,b)": "Blowup2_S2xS2(4,2)",
    }
    assert set(samples) == set(names)
    for concrete in samples.values():
        poly = catalog(concrete)
        assert poly.is_delzant()


def test_catalog_frozen_shapes():
    assert [tuple(v) for v in catalog("CP2(3)").vertices] == [
        (qf(0), qf(0)),
        (qf(3), qf(0)),
        (qf(0), qf(3)),
    ]
    assert catalog("S2xS2(4,2)") == Polygon([(0, 0), (4, 0), (4, 2), (0, 2)])
    assert len(catalog("Bl2CP2").vertices) == 5
    assert len(catalog("Bl3CP2").vertices) == 6
    assert len(catalog("Blowup2_S2xS2(4,2)").vertices) == 6


def test_catalog_rejects_bad_requests():
    with pytest.raises(ValueError):
        catalog("Klein bottle")
    with pytest.raises(ValueError):
        catalog("CP2(3")
    with pytest.raises(ValueError):
        catalog("CP2(3,4)")
    with pytest.raises(ValueError):
        catalog("CP2(-1)")
    with pytest.raises(ValueError):
        catalog("HirzebruchF1(2,2)")
    with pytest.raises(ValueError):
        catalog("Blowup_S2xS2(4,2,3/2)")  # c > b/2
    with pytest.raises(ValueError):
        catalog("Blowup2_S2xS2(2,4)")
    for name in ("S2xS2(0,2)", "S2xS2(2,-1)"):
        with pytest.raises(ValueError, match="S2xS2 needs positive sides"):
            catalog(name)
    with pytest.raises(ValueError, match=re.escape("Blowup_S2xS2 needs a >= b > 0")):
        catalog("Blowup_S2xS2(2,4,1/2)")
    with pytest.raises(ValueError, match=re.escape("Blowup_S2xS2 needs 0 < c <= b/2")):
        catalog("Blowup_S2xS2(4,2,0)")


def test_catalog_chopped_rectangle_is_the_construction_polygon():
    # the catalog entry and the recurrence construction are one polygon,
    # and c = b/2 (outside the construction's c < b/2) still chops inside
    # both edges
    for a, b, c in (("4", "2", "1/2"), ("5", "3", "1"), ("3/1+1/1*sqrt(2)", "3", "1/2+1/8*sqrt(2)")):
        params = ConstructionParams(a, b, c, qf(c) / 4)
        poly = catalog(f"Blowup_S2xS2({a},{b},{c})")
        assert poly == build_blowup_polygon(params)
        assert poly == centered_rectangle(a, b).corner_chop(1, c)
    assert catalog("Blowup_S2xS2(4,2,1)") == centered_rectangle(4, 2).corner_chop(1, 1)
