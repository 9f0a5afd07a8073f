"""The integer arc rows and the one advance pass against the QField arc path.

``Polygon`` reads the arc coordinate of a level h from its edge-death
schedule as integer rows over one common denominator, and keeps the last
level read; ``Polygon._advance`` moves a point along the level in one
integer pass over those rows; the level rotations, the level
coordinates and ``arc_to_point`` (the pass from arc 0) all call it, no
level polygon is built for them, and every arc is reduced modulo the
perimeter by ``_mod``.  The ``QField`` path they replaced (the prefix
tuple, ``point_to_arc``, ``arc_to_point`` and ``_advance`` on a level
polygon) is kept verbatim in ``conftest`` as the oracle; the oracles below
compose it the way the public functions did.  Values, error types and
messages must all agree: on random chopped rectangles with rational,
sqrt(2) and sqrt(3) parameters, at levels below the taper, inside it and
above it, at every death level and just below it, at every vertex (from
either of its edges), at edge points, for advances that wrap once or many
times and for negative ones, and on det +1 and det -1 images of the
catalog polygons.  The one difference: where the ``QField`` path built a
point with one coordinate in each of two radicands, or a point in a third
radicand on a level whose vertices are rational although the polygon's
offsets and h are in sqrt(2), points every other function refuses, the
pass refuses to build it.
"""

import random
from fractions import Fraction

from conftest import (
    outcome,
    qfield_advance,
    qfield_arc_of_vertex,
    qfield_arc_to_point,
    qfield_arcs,
    qfield_point_to_arc,
    random_hulls,
)

from atfkit.diagram import build_pi0
from atfkit.orbits import LevelCoordinate, from_level_coordinate, to_level_coordinate
from atfkit.plane import Point, move
from atfkit.polygon import ConstructionParams, Polygon, _mod, catalog, centered_rectangle
from atfkit.recurrence import (
    apply_phi,
    apply_phi_iter,
    build_recurrence_map,
    rotate_on_level,
    rotation_amount,
)
from atfkit.scalars import QField, floor, qf
from atfkit.verify import random_interior_point, random_params, random_unimodular

ITERATES = (-3, 0, 1, 2, 7, 10**6)

CATALOG_SAMPLES = ["CP2(3)", "S2xS2(4,2)", "HirzebruchF1(4,1)", "Bl1CP2", "Bl2CP2", "Bl3CP2",
                   "Blowup_S2xS2(4,2,1/2)", "Blowup2_S2xS2(4,2)"]

ROOT_2 = QField(-1, 1, 2)  # sqrt(2) - 1

# offsets and max F in sqrt(2)
SQRT2_POLYGON = centered_rectangle(5 + QField.sqrt(2), 3 + QField.sqrt(2)).corner_chop(
    1, QField.sqrt(2) / 2
)
# one offset in sqrt(2), and that edge dies at an irrational level below max F = 1
SQRT2_CHOP = centered_rectangle(4, 2).corner_chop(1, QField.sqrt(2) / 2)

IRRATIONAL_PARAMS = [
    ConstructionParams(QField(4, 1, 2), QField(2, Fraction(1, 2), 2),
                       QField(Fraction(1, 2), Fraction(1, 8), 2), Fraction(1, 8)),
    # every perimeter here has a negative conjugate, so a negative norm
    ConstructionParams(QField(0, 3, 2), QField(0, 2, 2), QField(0, Fraction(1, 2), 2),
                       QField(0, Fraction(1, 8), 2)),
    ConstructionParams(4, QField(Fraction(5, 2), Fraction(1, 3), 3), Fraction(3, 4),
                       QField(0, Fraction(1, 9), 3)),
]


# -- the public functions as they were, over the QField arc path ----------------


def oracle_rotate_on_level(poly: Polygon, h, t, p: Point) -> Point:
    h = qf(h)
    if poly.distance_to_boundary(p) != h:
        raise ValueError(f"point ({p.x1}, {p.x2}) is not on level {h}")
    return qfield_advance(poly, h, qf(t), p)


def oracle_apply_phi_iter(rm, p: Point, n: int) -> Point:
    if type(n) is not int:
        raise ValueError("iteration count must be an integer")
    h = rm.polygon.distance_to_boundary(p)
    return qfield_advance(rm.polygon, h, rotation_amount(rm.params, h) * n, p)


def oracle_to_level_coordinate(poly: Polygon, p: Point) -> LevelCoordinate:
    h = poly.distance_to_boundary(p)
    return LevelCoordinate(h, qfield_point_to_arc(poly.level_set(h), p))


def oracle_from_level_coordinate(poly: Polygon, coord: LevelCoordinate) -> Point:
    return qfield_arc_to_point(poly.level_set(coord.h), coord.s)


# -- inputs ---------------------------------------------------------------------


def root(*values: QField) -> QField:
    """sqrt(d) - 1 in the values' own radicand, sqrt(2) - 1 for rational ones."""
    return QField(-1, 1, next((x._v[3] for x in values if x._v[3]), 2))


def map_levels(rm) -> list:
    """Rational and irrational levels below c - eps, inside the taper band
    and above c + eps."""
    c, eps = rm.params.c, rm.params.eps
    r = root(rm.params.a, rm.params.b, c, eps)
    top = rm.polygon.max_distance()[0]
    low = [(c - eps) * k / 4 for k in range(4)] + [c - eps, (c - eps) * r]
    band = [c - eps / 2, c + eps / 3, c + eps * (r - qf("1/4"))]
    high = [c + eps + (top - c - eps) / 3, c + eps + (top - c - eps) * r / 2]
    return low + band + high


def level_points(level: Polygon) -> list:
    """Each vertex, then the points a fifth and a half of the way along each
    edge."""
    points = list(level.vertices)
    for v, e in zip(level.vertices, level.edges):
        points += [move(v, e.direction, e.length * f) for f in (qf("1/5"), qf("1/2"))]
    return points


def maps() -> list:
    rng = random.Random(1509)
    params = [random_params(rng) for _ in range(20)] + IRRATIONAL_PARAMS
    return [build_recurrence_map(build_pi0(p)) for p in params]


MAPS = maps()


# -- agreement ------------------------------------------------------------------


def test_arc_rows_match_the_qfield_prefix():
    rng = random.Random(1510)
    polys = [rm.polygon.level_set(h) for rm in MAPS for h in map_levels(rm)]
    for name in CATALOG_SAMPLES:
        polys += [catalog(name).transform(random_unimodular(rng, det)) for det in (1, -1)]
    kinds = set()
    for poly in polys:
        arcs = qfield_arcs(poly)
        assert poly.perimeter() == arcs[-1]
        n = len(poly.vertices)
        assert [poly.arc_of_vertex(i) for i in range(n)] == [
            qfield_arc_of_vertex(poly, i) for i in range(n)
        ]
        for p in level_points(poly):
            assert outcome(poly.point_to_arc, p) == outcome(qfield_point_to_arc, poly, p)
        per, r = arcs[-1], root(*(x for v in poly.vertices for x in v))
        # exactly 0, multiples of the perimeter, [per, 2 per), below 0 and
        # beyond 2 per, rational and irrational
        samples = [per * Fraction(k, 7) for k in range(-8, 22)] + [per * k for k in (-3, 5)]
        samples += [per * r * k for k in (-5, 1, 3)] + [per * (1 + r / 2), -per * r / 3]
        for s in samples:
            assert poly.arc_to_point(s) == qfield_arc_to_point(poly, s), (poly, s)
        kinds.add((poly._arc_view(qf(0))[-1], per.conjugate().sign()))
    # rational rows, sqrt(2) and sqrt(3) rows, and perimeters of negative
    # norm (IRRATIONAL_PARAMS[1])
    assert kinds == {(None, 1), (2, 1), (2, -1), (3, 1)}


def test_apply_phi_iter_matches_the_qfield_path():
    wraps = 0
    for rm in MAPS:
        for h in map_levels(rm):
            level = rm.polygon.level_set(h)
            r = rotation_amount(rm.params, h)
            # points a little before the base vertex, where one step wraps past it
            base = level.vertices[level.base_index]
            last = level.edges[level.base_index - 1]
            ends = [move(base, last.direction, -r * f) for f in (qf("1/2"), qf("1/7"))
                    if qf(0) < r * f < last.length]
            for p in level_points(level) + ends:
                s = level.point_to_arc(p)
                for n in ITERATES:
                    got = apply_phi_iter(rm, p, n)
                    assert got == oracle_apply_phi_iter(rm, p, n), (rm.params, h, p, n)
                wraps += s + r >= level.perimeter()
    assert wraps > 300


def test_the_pass_from_either_edge_of_a_vertex():
    # a vertex ends one edge and starts the next; the base vertex ends the
    # last edge of the arc, where the arc coordinate equals the perimeter
    for rm in MAPS[:6] + MAPS[-3:]:
        poly = rm.polygon
        for h in map_levels(rm)[:6]:
            # level vertex j starts level edge j, which is edge alive[j] of poly
            level, view = poly.level_set(h), poly._arc_view(h)
            alive, t = view[0], rotation_amount(rm.params, h)
            for j, v in enumerate(level.vertices):
                for shift in (t, -t, t * 10**6, level.perimeter()):
                    want = qfield_advance(poly, h, shift, v)
                    assert poly._advance(view, alive[j], shift, v) == want
                    assert poly._advance(view, alive[j - 1], shift, v) == want


def test_rotate_on_level_matches_on_transformed_catalog_polygons():
    # the equivariance check of the verify battery rotates det -1 images
    # with negative advances
    rng = random.Random(1511)
    # edge 0 of this square, the chop, dies at level 1 where its neighbours
    # meet at (1, 1): at that death level the first edge through the level
    # vertex (1, 1) is not a level edge
    polys = [Polygon([(0, 1), (1, 0), (4, 0), (4, 4), (0, 4)])]
    for name in CATALOG_SAMPLES:
        polys += [catalog(name).transform(random_unimodular(rng, det)) for det in (1, -1)]
    cases = 0
    for poly in polys:
        top = poly.max_distance()[0]
        deaths = {t for t in poly._edge_deaths()[0] if t < top}
        for h in [qf(0), top / 3, top * ROOT_2, top * 5 / 6, *deaths]:
            level = poly.level_set(h)
            per = level.perimeter()
            for p in level_points(level):
                for t in (per / 7, -per / 3, per * 3, -per * ROOT_2 * 11, qf(0)):
                    got = outcome(rotate_on_level, poly, h, t, p)
                    assert got == outcome(oracle_rotate_on_level, poly, h, t, p)
                    cases += 1
    assert cases > 2000


def test_rotations_at_and_just_below_every_death_level():
    # the edges dying at a death level are gone from its read; the first
    # edge through a level vertex may be one of them
    rng = random.Random(1514)
    polys = random_hulls(rng, 40) + [catalog(name) for name in CATALOG_SAMPLES]
    polys += [SQRT2_POLYGON, SQRT2_CHOP]
    cases = dead_first = 0
    for poly in polys:
        deaths, top, _ = poly._edge_deaths()
        for death in sorted({t for t in deaths if t < top}):
            for h in (death, death - qf("1/1000000")):
                level = poly.level_set(h)
                # the edges alive at h, without those that die at h
                assert list(poly._arc_view(h)[0]) == [i for i, t in enumerate(deaths) if t > h]
                per = level.perimeter()
                edge = level.edges[0]
                mid = move(level.vertices[0], edge.direction, edge.length / 2)
                for j, p in enumerate(level.vertices + (mid,)):
                    dead_first += deaths[poly._locate(p)[1]] <= h
                    t = per / 3 if j % 2 else -per * ROOT_2
                    got = outcome(rotate_on_level, poly, h, t, p)
                    assert got == outcome(oracle_rotate_on_level, poly, h, t, p), (poly, h, p)
                    cases += 1
    assert cases > 1500 and dead_first > 25


def test_no_rotation_or_level_coordinate_builds_a_level(monkeypatch):
    # the oracles build level polygons, so every expected value is taken
    # first, on equal maps; the maps under test are fresh, so none of
    # their polygons has read a level before level_set refuses to run
    rng = random.Random(1515)
    params = [random_params(rng) for _ in range(4)] + IRRATIONAL_PARAMS
    cases = []
    for k, par in enumerate(params):
        rm = build_recurrence_map(build_pi0(par))
        poly = rm.polygon
        for h in map_levels(rm)[::2]:
            level = poly.level_set(h)
            t = level.perimeter() / 3
            for p in level_points(level)[::2]:
                coord = oracle_to_level_coordinate(poly, p)
                far = LevelCoordinate(coord.h, coord.s + t * 5)
                want = (
                    oracle_apply_phi_iter(rm, p, 1),
                    oracle_apply_phi_iter(rm, p, 7),
                    oracle_rotate_on_level(poly, h, t, p),
                    coord,
                    oracle_from_level_coordinate(poly, far),
                )
                cases.append((k, h, t, p, far, want))
    fresh = [build_recurrence_map(build_pi0(par), verify=False) for par in params]

    def refuse(self, h):
        raise AssertionError(f"level {h} was built")

    monkeypatch.setattr(Polygon, "level_set", refuse)
    for k, h, t, p, far, want in cases:
        rm = fresh[k]
        got = (
            apply_phi(rm, p),
            apply_phi_iter(rm, p, 7),
            rotate_on_level(rm.polygon, h, t, p),
            to_level_coordinate(rm.polygon, p),
            from_level_coordinate(rm.polygon, far),
        )
        assert got == want, (rm.params, h, p)
    assert len(cases) > 300


def test_one_level_is_read_once_until_another_is_read(monkeypatch):
    # the polygon keeps its last level read: the rotations on one level and
    # its level polygon solve it once, a new level is read afresh, and the
    # first level read again gives an equal view; the points come from an
    # equal polygon, whose reads are not counted
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    rm = build_recurrence_map(build_pi0(params), verify=False)
    poly, first, second = rm.polygon, qf("1/4"), qf("1/8") + QField.sqrt(2) / 16
    twin = Polygon(poly.vertices)
    points = {h: level_points(twin.level_set(h)) for h in (first, second)}
    reads, read = [], Polygon._level

    def counted(self, h):
        if self is poly:
            reads.append(h)
        return read(self, h)

    monkeypatch.setattr(Polygon, "_level", counted)
    images = [apply_phi(rm, p) for p in points[first]]
    assert [apply_phi(rm, p) for p in points[first]] == images
    assert reads == [first]
    view = poly._arc_view(first)
    t = poly.level_set(second).perimeter() / 3
    for p in points[second]:
        rotate_on_level(poly, second, t, p)
    assert reads == [first, second]
    assert poly._arc_view(first) == view and reads == [first, second, first]
    assert [apply_phi(rm, p) for p in points[first]] == images
    assert reads == [first, second, first]


def test_level_coordinates_match_and_round_trip():
    rng = random.Random(1512)
    for rm in MAPS:
        poly = rm.polygon
        points = [p for h in map_levels(rm) for p in level_points(poly.level_set(h))]
        points += [random_interior_point(rng, poly) for _ in range(6)]
        for p in points:
            coord = to_level_coordinate(poly, p)
            assert coord == oracle_to_level_coordinate(poly, p)
            assert from_level_coordinate(poly, coord) == p
            shifted = LevelCoordinate(coord.h, coord.s + poly.level_perimeter(coord.h) * 3)
            assert from_level_coordinate(poly, shifted) == oracle_from_level_coordinate(poly, shifted)


def test_errors_match_the_qfield_path():
    rm = MAPS[-3]  # sqrt(2) parameters
    poly, c = rm.polygon, rm.params.c
    level = poly.level_set(c / 3)
    base = level.vertices[level.base_index]
    inner = level.vertices[(level.base_index + 2) % len(level.vertices)]
    root_3 = QField(0, Fraction(1, 5), 3)
    off = Point(inner.x1 + qf("1/100"), inner.x2)
    outside = Point(poly.vertices[0].x1 - 1, poly.vertices[0].x2)
    stray = Point(root_3, qf(0))
    cases = [
        (rotate_on_level, oracle_rotate_on_level, (poly, c / 3, 1, off)),  # off the level
        (rotate_on_level, oracle_rotate_on_level, (poly, c / 3, 1, outside)),
        (rotate_on_level, oracle_rotate_on_level, (poly, c / 3, 1, stray)),  # p in sqrt(3)
        # t in sqrt(3): at the base vertex the arc is rational, elsewhere not
        (rotate_on_level, oracle_rotate_on_level, (poly, c / 3, root_3, base)),
        (rotate_on_level, oracle_rotate_on_level, (poly, c / 3, root_3, inner)),
        (rotate_on_level, oracle_rotate_on_level, (poly, c / 3, 1.5, base)),
        (apply_phi_iter, oracle_apply_phi_iter, (rm, outside, 1)),
        (apply_phi_iter, oracle_apply_phi_iter, (rm, stray, 1)),
        (apply_phi_iter, oracle_apply_phi_iter, (rm, base, 1.0)),
        (Polygon.point_to_arc, qfield_point_to_arc, (level, off)),
        (Polygon.point_to_arc, qfield_point_to_arc, (level, stray)),
        (Polygon.arc_to_point, qfield_arc_to_point, (level, root_3)),
        (Polygon.arc_to_point, qfield_arc_to_point, (level, 0.5)),
        (to_level_coordinate, oracle_to_level_coordinate, (poly, outside)),
        (from_level_coordinate, oracle_from_level_coordinate,
         (poly, LevelCoordinate(c / 3, root_3))),
    ]
    # translated by a sqrt(2) vector, a catalog polygon keeps rational edge
    # lengths and perimeter: a sqrt(3) advance from a vertex passes the
    # perimeter's quotient and meets the sqrt(2) start vertex first
    for name in ("CP2(3)", "S2xS2(4,2)"):
        moved = Polygon([Point(v.x1 + ROOT_2, v.x2 + ROOT_2 * 3) for v in catalog(name).vertices])
        for h in (qf(0), moved.max_distance()[0] / 3):
            level = moved.level_set(h)
            for v in level.vertices:
                cases.append((rotate_on_level, oracle_rotate_on_level, (moved, h, root_3, v)))
            cases.append((Polygon.arc_to_point, qfield_arc_to_point, (level, root_3 + 1)))
    for f, oracle, args in cases:
        got, want = outcome(f, *args), outcome(oracle, *args)
        assert got == want and got[0] == "error", (f.__name__, got, want)


def test_the_pass_refuses_a_point_of_two_radicands():
    # a square moved right by sqrt(2) keeps rational y coordinates, so the
    # QField path moved (4 + sqrt(2), 0) up its right edge by sqrt(3)/5 into
    # a point with one coordinate in each radicand, which every other
    # function refuses; the integer pass refuses it at once
    square = Polygon([Point(x + ROOT_2 + 1, y) for x, y in ((0, 0), (4, 0), (4, 4), (0, 4))])
    corner, t = square.vertices[1], QField(0, Fraction(1, 5), 3)
    made = oracle_rotate_on_level(square, 0, t, corner)
    assert (made.x1._v[3], made.x2._v[3]) == (2, 3)
    refused = ("error", ValueError, "mixed radicands sqrt(2) and sqrt(3)")
    assert outcome(square.distance_to_boundary, made) == refused
    assert outcome(rotate_on_level, square, 0, t, corner) == refused
    assert outcome(square.arc_to_point, t + 4) == refused
    # at its death level sqrt(2)/2 the level of SQRT2_POLYGON is the rational
    # rectangle with corners (+-5/2, +-3/2): the QField path moved a corner
    # into a sqrt(3) point, which the polygon, its offsets in sqrt(2), refuses
    h = QField.sqrt(2) / 2
    corner = SQRT2_POLYGON.level_set(h).vertices[0]
    made = oracle_rotate_on_level(SQRT2_POLYGON, h, t, corner)
    assert {made.x1._v[3], made.x2._v[3]} == {None, 3}
    assert outcome(SQRT2_POLYGON.distance_to_boundary, made) == refused
    assert outcome(rotate_on_level, SQRT2_POLYGON, h, t, corner) == refused


def test_reduction_modulo_a_perimeter_of_either_norm_sign():
    # the quotient's denominator is the perimeter's norm, negative when its
    # conjugate is; compared with the QField floor the arc path used
    rng = random.Random(1513)
    negative = 0
    for _ in range(3000):
        d, pa, pb = rng.choice((2, 3, 5)), rng.randint(-9, 12), rng.randint(-6, 6)
        if QField(pa, pb, d).sign() <= 0:
            continue
        a, b = rng.randint(-80, 80), rng.randint(-80, 80)
        s, per = QField(a, b, d), QField(pa, pb, d)
        assert QField(*_mod(a, b, pa, pb, d), d) == s - floor(s / per) * per, (a, b, pa, pb, d)
        negative += pa * pa < pb * pb * d
    assert negative > 500
