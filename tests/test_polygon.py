"""Convex polygons: boundary distance, level sets, chops, and the catalog."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from conftest import random_triple

from atfkit.plane import LatticeVector, Point, orient, pt
from atfkit.polygon import (
    LEVEL_MEMO_SIZE,
    ConstructionParams,
    Polygon,
    build_blowup_polygon,
    catalog,
    catalog_names,
    centered_rectangle,
    clip_halfplane,
    solve_equidistant_triple,
)
from atfkit.scalars import QField, qf
from atfkit.verify import random_interior_point, random_params, random_unimodular

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
PENTAGRAM = [(0, 0), (5, 3), (-1, 3), (4, 0), (2, 5)]


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


def test_level_memo_is_bounded_and_reused():
    poly = build_blowup_polygon(ConstructionParams(4, 2, qf("1/2"), qf("1/8")))
    first = poly.level_set(Fraction(1, 200))
    assert poly.level_set(qf("1/200")) is first
    for k in range(2, 2 * LEVEL_MEMO_SIZE):
        level = poly.level_set(Fraction(k, 200))
        assert poly.level_set(Fraction(k, 200)) is level
        assert len(poly._levels) <= LEVEL_MEMO_SIZE
    assert len(poly._levels) == LEVEL_MEMO_SIZE
    again = poly.level_set(Fraction(1, 200))  # the oldest entry was evicted
    assert again == first and again is not first


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
