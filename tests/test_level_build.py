"""The level build of ``Polygon.level_set``, the corners of the integer level
read passed to the constructor, against the level path it replaced: the
QField vertices of {F >= h} (``conftest.constructed_level_set``).  The
constructor's one integer pass is checked against the per-edge loop it
replaced (``conftest.edge_loop_polygon``) on every sample polygon, every
level of one and seeded hostile vertex lists.  The arc origin, which the
constructor takes from the winding scan of the edge directions, is checked
against the lexicographic scan it replaced (``conftest.lex_base``)."""

import pickle
import random
from fractions import Fraction

import pytest

from conftest import constructed_level_set, edge_loop_polygon, lex_base, outcome, random_hulls

from atfkit.plane import UnimodularAffineMap, _row_point
from atfkit.polygon import Polygon, build_blowup_polygon, catalog, centered_rectangle
from atfkit.scalars import ZERO, QField, qf
from atfkit.verify import random_params, random_unimodular

ROOT_2, ROOT_3 = QField.sqrt(2), QField.sqrt(3)
CATALOG = [
    "CP2(3)", "S2xS2(5/2,3)", "HirzebruchF1(3,1)", "Bl1CP2", "Bl2CP2", "Bl3CP2",
    "Blowup_S2xS2(4,2,1/2)", "Blowup2_S2xS2(5,2)",
]
# offsets and max F in sqrt(2)
SQRT2_POLYGON = centered_rectangle(5 + ROOT_2, 3 + ROOT_2).corner_chop(1, ROOT_2 / 2)
# offsets in sqrt(2), every death level rational
SHIFTED = centered_rectangle(4, 2).corner_chop(1, qf("1/2")).transform(
    UnimodularAffineMap.translation(ROOT_2, ROOT_2)
)
# one offset in sqrt(2), and that edge dies at an irrational level below max F = 1
SQRT2_CHOP = centered_rectangle(4, 2).corner_chop(1, ROOT_2 / 2)


def levels(poly: Polygon) -> list[QField]:
    """Every death level below max F, the midpoints between consecutive
    death levels (0 and max F included), max F k/7, and on a rational
    polygon a sqrt(2) and a sqrt(3) level."""
    deaths, top, _ = poly._edge_deaths()
    dead = sorted({t for t in deaths if t < top})
    ends = [qf(0)] + dead + [top]
    hs = dead + [(lo + hi) / 2 for lo, hi in zip(ends, ends[1:])]
    hs += [top * k / 7 for k in range(1, 7)]
    if poly._rows[2] is None:
        hs += [top * (ROOT_2 - 1), top * (ROOT_3 - 1) / 2]
    return hs


@pytest.fixture(scope="module")
def polygons() -> list[Polygon]:
    """Hulls, catalog polygons, chopped rectangles, three polygons with
    sqrt(2) offsets, and unimodular images of them.

    Each polygon built here starts at its lexicographically smallest
    vertex, so its levels have arc origin 0; the unimodular images, of
    either orientation, move the origin."""
    rng = random.Random(16)
    hulls, named = random_hulls(rng, 30), [catalog(name) for name in CATALOG]
    blowups = [build_blowup_polygon(random_params(rng)) for _ in range(30)]
    irrational = [SQRT2_POLYGON, SHIFTED, SQRT2_CHOP]
    polys = hulls + named + blowups + irrational
    return polys + [
        poly.transform(random_unimodular(rng, det))
        for poly in hulls[:10] + named + blowups[:5] + irrational
        for det in (1, -1)
    ]


@pytest.fixture(scope="module")
def cases(polygons) -> list[tuple[Polygon, QField, Polygon]]:
    """(polygon, h, oracle level) for every level of every sample polygon."""
    return [(poly, h, constructed_level_set(poly, h)) for poly in polygons for h in levels(poly)]


def built_alike(vertices) -> str:
    """Build a vertex list with ``Polygon(...)`` and with the per-edge loop
    it replaced (``conftest.edge_loop_polygon``), and check they agree:
    "accepted" when both build the same vertices, edges (in normal form),
    edge rows and arc origin, "refused" when both raise ``ValueError``."""
    want = outcome(edge_loop_polygon, vertices)
    got = outcome(Polygon, vertices)
    if want[0] == "error":
        assert got[0] == "error", (vertices, want)
        return "refused"
    assert got[0] == "value", (vertices, got)
    (verts, edges, rows, base), poly = want[1], got[1]
    assert [(x.x1._v, x.x2._v) for x in poly.vertices] == [(x.x1._v, x.x2._v) for x in verts]
    assert [(e.normal, e.direction, e.offset._v, e.length._v) for e in poly.edges] == [
        (e.normal, e.direction, e.offset._v, e.length._v) for e in edges
    ]
    assert poly._rows == rows
    assert poly.base_index == base
    return "accepted"


def hostile_vertex_lists(rng: random.Random, polys: list[Polygon], count: int) -> list[list]:
    """``count`` seeded vertex lists, each a sample polygon's vertices
    changed one way: shifted or scaled by sqrt(2) and sqrt(3) amounts (one
    radicand or two), one vertex moved by such an amount, a vertex repeated,
    an edge midpoint inserted, the order reversed (clockwise), two vertices
    swapped or every second vertex taken (self-crossing loops), or all but
    two vertices dropped."""
    roots = {2: QField.sqrt(2), 3: QField.sqrt(3)}

    def amount():
        r = rng.choice((2, 3))
        return qf(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) + roots[r] * Fraction(
            rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)
        )

    def changed(verts):
        n, kind = len(verts), rng.randrange(9)
        if kind == 0:  # shifted
            t1, t2 = amount(), rng.choice((amount(), qf(rng.randint(-3, 3))))
            verts = [(v.x1 + t1, v.x2 + t2) for v in verts]
        elif kind == 1:  # scaled
            s = amount()
            verts = [(v.x1 * s, v.x2 * s) for v in verts]
        elif kind == 2:  # one vertex moved
            i = rng.randrange(n)
            verts[i] = (verts[i].x1 + amount(), verts[i].x2 + rng.choice((amount(), ZERO)))
        elif kind == 3:  # a vertex repeated
            i = rng.randrange(n)
            verts.insert(i, verts[i])
        elif kind == 4:  # an edge midpoint inserted
            i = rng.randrange(n)
            a, b = verts[i], verts[(i + 1) % n]
            verts.insert(i + 1, ((a.x1 + b.x1) / 2, (a.x2 + b.x2) / 2))
        elif kind == 5:  # clockwise
            verts.reverse()
        elif kind == 6:  # two vertices swapped
            i, j = rng.sample(range(n), 2)
            verts[i], verts[j] = verts[j], verts[i]
        elif kind == 7:  # every second vertex, which winds twice when n is odd
            verts = verts[::2] + verts[1::2]
        else:  # two vertices left
            verts = rng.sample(verts, 2)
        return verts

    lists = []
    while len(lists) < count:
        try:
            lists.append(changed(list(rng.choice(polys).vertices)))
        except ValueError:  # a sqrt(3) amount met a sqrt(2) coordinate
            pass
    return lists


def test_the_constructor_matches_the_edge_loop(polygons, cases):
    # every sample polygon and every level of one
    for vertices in [poly.vertices for poly in polygons] + [level.vertices for _, _, level in cases]:
        assert built_alike(vertices) == "accepted"
    seen = {"accepted": 0, "refused": 0}
    for vertices in hostile_vertex_lists(random.Random(24), polygons, 2400):
        seen[built_alike(vertices)] += 1
    assert seen["accepted"] > 400 and seen["refused"] > 1500, seen


def test_level_build_matches_the_constructor_path(cases):
    dead = moved = 0
    for poly, h, oracle in cases:
        # the corner rows, reduced, are the oracle's vertices in order
        (*_, d), corners = poly._corners(h)
        assert [_row_point(row, d) for row in corners] == list(oracle.vertices), (poly, h)
        level = poly.level_set(h)
        assert level.vertices == oracle.vertices, (poly, h)
        assert level.edges == oracle.edges, (poly, h)
        for got, want in zip(level.edges, oracle.edges):
            assert (got.normal, got.direction) == (want.normal, want.direction)
            assert (got.offset._v, got.length._v) == (want.offset._v, want.length._v)
        # equal normal forms, so hashes and memo keys agree too
        for got, want in zip(level.vertices, oracle.vertices):
            assert (got.x1._v, got.x2._v) == (want.x1._v, want.x2._v)
        assert hash(level) == hash(oracle)
        assert level._rows == oracle._rows
        assert level.base_index == oracle.base_index
        dead += len(level.edges) < len(poly.edges)
        moved += oracle.base_index != 0
    assert len(cases) > 1500 and dead > 300 and moved > 300, (len(cases), dead, moved)


def test_a_trusted_level_passes_every_constructor_check(cases):
    # unpickling goes through Polygon(...), which re-derives every direction
    # and checks convexity and winding
    for poly, h, _ in cases:
        level = poly.level_set(h)
        back = pickle.loads(pickle.dumps(level))
        assert back == level and back is not level
        assert back.edges == level.edges
        assert back._rows == level._rows
        assert back.base_index == level.base_index


def test_a_level_of_a_level_is_a_level():
    rng = random.Random(17)
    polys = [build_blowup_polygon(random_params(rng)) for _ in range(10)]
    polys += [catalog(name) for name in CATALOG] + [SQRT2_POLYGON, SHIFTED, SQRT2_CHOP]
    count = 0
    for poly in polys:
        top = poly.max_distance()[0]
        pairs = [(top * j / 7, top * k / 7) for j in range(1, 6) for k in range(1, 7 - j)]
        if poly._rows[2] is None:
            pairs += [(top * (ROOT_2 - 1), top / 5), (top / 5, top * (ROOT_2 - 1) / 2)]
        for h1, h2 in pairs:
            assert poly.level_set(h1).level_set(h2) == poly.level_set(h1 + h2), (poly, h1, h2)
            count += 1
    assert count > 300


@pytest.mark.parametrize(
    "poly, h",
    [
        (SQRT2_POLYGON, qf(-1)),
        (SQRT2_POLYGON, qf("-1/3")),
        (SQRT2_POLYGON, SQRT2_POLYGON.max_distance()[0]),
        (SQRT2_POLYGON, qf(9)),
        (SQRT2_POLYGON, ROOT_3 / 2),
        (SHIFTED, qf(1)),
        (SHIFTED, ROOT_3 / 4),
        (SQRT2_CHOP, ROOT_3 / 2),
        (catalog("CP2(3)"), qf(1)),
        (catalog("CP2(3)"), -ROOT_2 / 9),
        # at or above max F = 1 a level is refused as too high before any
        # scan meets its radicand
        (SQRT2_CHOP, ROOT_3),
        (SQRT2_CHOP, 1 + ROOT_3 / 100),
    ],
)
def test_refused_levels_match_the_constructor_path(poly, h):
    got = outcome(Polygon.level_set, poly, h)
    assert got[0] == "error"
    assert got == outcome(constructed_level_set, poly, h)


def test_mixed_radicands_are_named_in_the_constructor_path_order():
    # h is named first when h >= max F or the build meets them, a death
    # level first when the scan of the schedule meets them
    mixed = "mixed radicands sqrt({}) and sqrt({})"
    assert outcome(SQRT2_POLYGON.level_set, ROOT_3 / 2)[2] == mixed.format(3, 2)
    assert outcome(SHIFTED.level_set, ROOT_3 / 4)[2] == mixed.format(3, 2)
    assert outcome(SQRT2_CHOP.level_set, ROOT_3 / 2)[2] == mixed.format(2, 3)


def test_the_arc_origin_is_the_lexicographically_smallest_vertex():
    rng = random.Random(18)
    hulls = random_hulls(rng, 30)
    named = [catalog(name) for name in CATALOG] + [SQRT2_POLYGON]
    images = [
        poly.transform(random_unimodular(rng, det)) for poly in hulls[:10] + named for det in (1, -1)
    ]
    count, moved = 0, 0
    for poly in hulls + named + images:
        for level in [poly] + [poly.level_set(h) for h in levels(poly)]:
            assert level.base_index == lex_base(level), (poly, level)
            moved += level.base_index != 0
            count += 1
    assert count > 1100 and moved > 300
