"""Twelve acceptance checks, one printed pass or fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines together
with timings for the three budgeted checks.  Every comparison is exact;
no tolerances appear anywhere in this file.
"""

import random
import re
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from conftest import edge_samples

from atfkit.classify import check_applicable
from atfkit.diagram import BaseDiagram, BranchCut, build_pi0, cut_transfer, nodal_trade
from atfkit.homology import H2Class, find_twist_classes, omega_eval
from atfkit.orbits import (
    classify_level,
    gap_values,
    orbit_positions,
    rho_monotone_check,
    rotation_number,
)
from atfkit.plane import Point, UnimodularAffineMap, primitive, unipotent_fixing
from atfkit.polygon import ConstructionParams, Polygon, build_blowup_polygon, catalog
from atfkit.recurrence import apply_phi, apply_rounds, build_recurrence_map
from atfkit.render import RenderStyle, render_svg
from atfkit.scalars import QField, qf
from atfkit.verify import random_interior_point, random_params

BASE_PARAMS = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
WIDE_TAPER = ConstructionParams(4, 2, qf("1/2"), qf("1/4"))
GOLDEN = Path(__file__).parent / "golden" / "pi0_quarter.svg"


@contextmanager
def criterion(num, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {num:2d} {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"FAIL {num:2d} {label} ({elapsed:.2f}s over the {budget}s budget)")
        raise AssertionError(f"{label}: {elapsed:.2f}s exceeds {budget}s")
    note = f" ({elapsed:.2f}s, budget {budget}s)" if budget is not None else ""
    print(f"PASS {num:2d} {label}{note}")


def test_criterion_01_closed_form_distance():
    rng = random.Random(2026_01)
    with criterion(1, "closed-form boundary distance", budget=1.0):
        for _ in range(20):
            params = random_params(rng)
            poly = build_blowup_polygon(params)
            a, b, c = params.a, params.b, params.c
            for _ in range(50):
                p = random_interior_point(rng, poly)
                expected = min(
                    a / 2 - abs(p.x1),
                    b / 2 - abs(p.x2),
                    p.x2 - p.x1 + (a + b) / 2 - c,
                )
                assert poly.distance_to_boundary(p) == expected


def test_criterion_02_max_distance():
    rng = random.Random(2026_02)
    with criterion(2, "maximum distance equals half the short side"):
        for _ in range(20):
            params = random_params(rng)
            value, at = build_blowup_polygon(params).max_distance()
            assert value == params.b / 2


def test_criterion_03_level_perimeter():
    rng = random.Random(2026_03)
    with criterion(3, "level perimeter formula"):
        for _ in range(200):
            params = random_params(rng)
            poly = build_blowup_polygon(params)
            a, b, c = params.a, params.b, params.c
            h = c * rng.randrange(200) / 200
            assert poly.level_perimeter(h) == 2 * (a + b) - c - 7 * h


def test_criterion_04_four_round_advance():
    rng = random.Random(2026_04)
    parameter_sets = [WIDE_TAPER] + [random_params(rng) for _ in range(10)]
    with criterion(4, "four rounds advance arcs by exactly c - h", budget=5.0):
        for params in parameter_sets:
            rm = build_recurrence_map(build_pi0(params))
            poly = rm.polygon
            c, eps = params.c, params.eps
            first = rm.rounds[0]
            for k in range(10):
                h = (c - eps) * k / 10
                level = poly.level_set(h)
                assert len(level.vertices) == 5
                per = level.perimeter()
                points = edge_samples(level, 3)
                assert len(points) >= 20
                for p in points:
                    q = apply_rounds(rm, p)
                    assert poly.distance_to_boundary(q) == h
                    advance = level.point_to_arc(q) - level.point_to_arc(p)
                    assert advance == c - h or advance == c - h - per

                    # round 1 must match the bottom-strip shear formula
                    if p.x2 <= c - params.b / 2:
                        shifted = Point(p.x1 - p.x2 + c - params.b / 2, p.x2)
                    else:
                        shifted = p
                    assert first.apply(p) == shifted


def test_criterion_05_high_levels_fixed():
    rng = random.Random(2026_05)
    rm = build_recurrence_map(build_pi0(BASE_PARAMS))
    poly, params = rm.polygon, BASE_PARAMS
    low, top = params.c + params.eps, params.b / 2
    with criterion(5, "levels above c + eps are fixed pointwise"):
        for _ in range(500):
            h = low + (top - low) * rng.randrange(1, 64) / 64
            level = poly.level_set(h)
            s = level.perimeter() * rng.randrange(128) / 128
            p = level.arc_to_point(s)
            assert poly.distance_to_boundary(p) == h
            assert apply_phi(rm, p) == p


def test_criterion_06_periodic_orbit():
    with criterion(6, "level 1/4 closes up after exactly 39 iterates"):
        assert rotation_number(BASE_PARAMS, qf("1/4")) == qf("1/39")
        positions = orbit_positions(BASE_PARAMS, qf("1/4"), 40)
        assert len(set(positions[:39])) == 39
        assert positions[39] == positions[0]
        report = classify_level(BASE_PARAMS, qf("1/4"))
        assert report.kind == "periodic" and report.period == 39


def test_criterion_07_irrational_orbit():
    h = QField(0, Fraction(1, 8), 2)
    with criterion(7, "level sqrt(2)/8 is certified irrational", budget=30.0):
        rho = rotation_number(BASE_PARAMS, h)
        assert not rho.is_rational()
        report = classify_level(BASE_PARAMS, h, n_checked=10_000)
        assert report.kind == "irrational-certified"
        positions = orbit_positions(BASE_PARAMS, h, 10_000)
        assert len(set(positions)) == 10_000
        for n in (100, 1_000, 10_000):
            gaps = gap_values(BASE_PARAMS, h, n)
            assert len(gaps) <= 3
            if len(gaps) == 3:
                assert gaps[2] == gaps[0] + gaps[1]


def test_criterion_08_rotation_number_decreasing():
    rng = random.Random(2026_08)
    with criterion(8, "rotation number strictly decreasing in the level"):
        for params in [BASE_PARAMS] + [random_params(rng) for _ in range(10)]:
            assert (params.a + params.b - 4 * params.c).sign() > 0
            assert rho_monotone_check(params, 100)


def test_criterion_09_twist_class_enumeration():
    rng = random.Random(2026_09)
    with criterion(9, "twist classes are exactly the anti-diagonal pair"):
        found = find_twist_classes(50)
        assert found == [H2Class(-1, 1, 0), H2Class(1, -1, 0)]
        brute = sorted(
            (al, be, ga)
            for al in range(-50, 51)
            for be in range(-50, 51)
            for ga in range(-50, 51)
            if 2 * al * be - ga * ga == -2 and 2 * al + 2 * be + ga == 0
        )
        assert brute == [x.as_tuple() for x in found]
        for _ in range(20):
            params = random_params(rng)
            a, b = params.a, params.b
            areas = {omega_eval(x, a, b, params.c) for x in found}
            assert areas == {a - b, b - a}
            assert (a - b == 0) == (a == b)
        equal = omega_eval(found[0], 3, 3, qf("1/2"))
        assert equal == 0


def test_criterion_10_catalog_screen():
    expected = [
        ("CP2(3)", False, "monotone"),
        ("S2xS2(2,2)", False, "monotone"),
        ("Bl1CP2", False, "monotone"),
        ("Bl2CP2", False, "monotone"),
        ("Bl3CP2", False, "monotone"),
        ("S2xS2(4,2)", False, "product_unequal"),
        ("HirzebruchF1(4,1)", True, None),
        ("Blowup_S2xS2(4,2,1/2)", True, None),
        ("Blowup_S2xS2(4,2,1)", False, "half-size-blowup-1"),
        ("Blowup2_S2xS2(4,2)", False, "half-size-blowup-2"),
    ]
    with criterion(10, "applicability screen labels the whole catalog"):
        for name, applicable, tag in expected:
            report = check_applicable(catalog(name))
            assert report.applicable is applicable, name
            assert report.exception_tag == tag, name


def test_criterion_11_diagram_moves():
    rng = random.Random(2026_11)
    with criterion(11, "transfer round trip, slide band, monodromy shape"):
        # branch cut transfer there and back is the identity
        square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        diagram = nodal_trade(BaseDiagram(polygon=square), 0, qf(2))
        original_cut = diagram.cuts[0]
        new_cut = BranchCut(0, (diagram.nodes[0].position, Point(4, 4)))
        moved, push = cut_transfer(diagram, 0, new_cut)
        back, pull = cut_transfer(moved, 0, original_cut)
        assert back.same_geometry(diagram)
        round_trip = pull.compose(push)
        assert round_trip.is_identity()
        for _ in range(20):
            p = random_interior_point(rng, square)
            assert round_trip.apply(p) == p

        # the slide records exactly the swept distance band
        pi0 = build_pi0(BASE_PARAMS)
        move = pi0.provenance[-1]
        assert move[0] == "slide"
        old, new, band = move[2], move[3], move[4]
        poly = pi0.polygon
        assert band == (poly.distance_to_boundary(old), poly.distance_to_boundary(new))
        assert band == (BASE_PARAMS.eps / 2, BASE_PARAMS.c)

        # every node monodromy is a unipotent shear along its eigenline
        for _ in range(50):
            u, v = rng.randint(-9, 9), rng.randint(-9, 9)
            if (u, v) == (0, 0):
                u = 1
            w = primitive((u, v))
            k = rng.choice([1, -1])
            m = unipotent_fixing(w, k)
            assert m.det == 1 and m.trace == 2
            # complete w to a lattice basis and reduce to the normal form
            if w.v == 0:
                s, t = 0, w.u  # w is (1, 0) or (-1, 0)
            else:
                t = pow(w.u, -1, abs(w.v))
                s = (w.u * t - 1) // w.v
            basis = UnimodularAffineMap.linear(w.u, s, w.v, t)
            assert basis.det == 1
            normal = basis.inverse().compose(m).compose(basis)
            assert (normal.m11, normal.m12, normal.m21, normal.m22) == (1, k, 0, 1)
            if k == -1:
                flip = UnimodularAffineMap.linear(-1, 0, 0, 1)
                normal = flip.compose(normal).compose(flip)
            assert (normal.m11, normal.m12, normal.m21, normal.m22) == (1, 1, 0, 1)


def test_criterion_12_golden_render():
    with criterion(12, "golden SVG is byte-stable with the expected markers"):
        style = RenderStyle(show_levels=(qf("1/4"),))
        svg = render_svg(build_pi0(WIDE_TAPER), style)
        again = render_svg(build_pi0(WIDE_TAPER), style)
        assert svg == again
        assert svg == GOLDEN.read_text()
        assert svg.count('class="node"') == 5
        assert svg.count('class="cut"') == 5
        level = re.search(r'class="level" points="([^"]*)"', svg)
        assert level is not None
        assert len(level.group(1).split()) == 5
