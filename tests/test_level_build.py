"""The trusted level build of ``Polygon.level_set`` against the level path it
replaced: the vertices of {F >= h} passed back through the public
constructor (``conftest.constructed_level_set``).  The arc origin, which the
constructor and the level build both take from the winding scan of the edge
directions, is checked against the lexicographic scan it replaced
(``conftest.lex_base``)."""

import pickle
import random

import pytest

from conftest import constructed_level_set, lex_base, outcome, random_hulls

from atfkit.plane import UnimodularAffineMap, _row_point
from atfkit.polygon import Polygon, build_blowup_polygon, catalog, centered_rectangle
from atfkit.scalars import QField, qf
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
def cases() -> list[tuple[Polygon, QField, Polygon]]:
    """(polygon, h, oracle level) for every level of every sample polygon.

    Each polygon built here starts at its lexicographically smallest
    vertex, so its levels have arc origin 0; the unimodular images, of
    either orientation, move the origin."""
    rng = random.Random(16)
    hulls, named = random_hulls(rng, 30), [catalog(name) for name in CATALOG]
    blowups = [build_blowup_polygon(random_params(rng)) for _ in range(30)]
    irrational = [SQRT2_POLYGON, SHIFTED, SQRT2_CHOP]
    polys = hulls + named + blowups + irrational
    polys += [
        poly.transform(random_unimodular(rng, det))
        for poly in hulls[:10] + named + blowups[:5] + irrational
        for det in (1, -1)
    ]
    return [(poly, h, constructed_level_set(poly, h)) for poly in polys for h in levels(poly)]


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
