"""Built-in property battery behind the ``verify`` CLI subcommand.

Each check re-derives a property from scratch (closed forms, brute-force
enumerations, independently coded oracles) and compares it against the
library's primary implementation, in exact arithmetic.  ``run_all`` prints
one PASS/FAIL line per property and returns a process exit code.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from typing import Callable

from . import scalars
from .classify import check_applicable, monotone_test
from .diagram import BaseDiagram, BranchCut, build_pi0, cut_transfer, nodal_trade
from .homology import H2Class, c1_eval, find_twist_classes, intersection
from .orbits import (
    classify_level,
    equidistribution_stats,
    gap_values,
    perimeter_value,
    rho_monotone_check,
    rotation_number,
)
from .plane import (
    LatticeVector,
    Point,
    UnimodularAffineMap,
    affine_length,
    move,
    unipotent_fixing,
)
from .polygon import ConstructionParams, Polygon, build_blowup_polygon, catalog
from .recurrence import (
    apply_phi,
    apply_phi_iter,
    apply_rounds,
    build_recurrence_map,
    rotate_on_level,
)
from .render import RenderStyle, render_svg
from .scalars import QField, parse_scalar, qf

DEFAULT_PARAMS = ConstructionParams(qf(4), qf(2), qf("1/2"), qf("1/8"))


def random_params(rng: random.Random) -> ConstructionParams:
    b = qf(Fraction(rng.randint(3, 12), rng.randint(1, 3)))
    a = b + Fraction(rng.randint(0, 9), rng.randint(1, 3))
    c = b * rng.randint(1, 9) / 20
    eps = min(c, b / 2 - c) * rng.randint(1, 9) / 10
    return ConstructionParams(a, b, c, eps)


def random_interior_point(rng: random.Random, poly: Polygon) -> Point:
    weights = [rng.randint(1, 9) for _ in poly.vertices]
    total = sum(weights)
    x1 = sum((v.x1 * w for v, w in zip(poly.vertices, weights)), qf(0)) / total
    x2 = sum((v.x2 * w for v, w in zip(poly.vertices, weights)), qf(0)) / total
    return Point(x1, x2)


def random_level_point(rng: random.Random, poly: Polygon, h) -> Point:
    level = poly.level_set(h)
    i = rng.randrange(len(level.edges))
    edge = level.edges[i]
    lam = edge.length * rng.randint(0, 9) / 10
    return move(level.vertices[i], edge.direction, lam)


def random_unimodular(rng: random.Random, det: int = 1) -> UnimodularAffineMap:
    # random products of elementary shears stay well-conditioned
    m = UnimodularAffineMap.identity()
    for _ in range(3):
        k = rng.randint(-2, 2)
        # the two words random() reads, and its decision, with no float:
        # random() < 0.5 exactly when the first word is below 2**31
        if rng.getrandbits(64) % 2**32 < 2**31:
            m = m.compose(UnimodularAffineMap.linear(1, k, 0, 1))
        else:
            m = m.compose(UnimodularAffineMap.linear(1, 0, k, 1))
    if det == -1:
        m = m.compose(UnimodularAffineMap.linear(0, 1, 1, 0))
    shift = UnimodularAffineMap.translation(
        Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4)
    )
    return shift.compose(m)


def _blowup_distance_oracle(params: ConstructionParams, p: Point) -> QField:
    # independent closed form for the chopped rectangle
    a, b, c = params.a, params.b, params.c
    return min(
        a / 2 - abs(p.x1),
        b / 2 - abs(p.x2),
        p.x2 - p.x1 + (a + b) / 2 - c,
    )


# -- individual checks -------------------------------------------------------


def check_scalar_field_axioms(rng: random.Random) -> tuple[bool, str]:
    for _ in range(40):
        vals = [
            QField(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                2,
            )
            for _ in range(3)
        ]
        x, y, z = vals
        if (lhs := (x + y) * z) != x * z + y * z:
            return False, f"(x + y)z = {lhs}, xz + yz = {x * z + y * z} at {x}, {y}, {z}"
        if x * y != y * x or x + y != y + x:
            return False, f"xy = {x * y}, yx = {y * x}, x + y = {x + y}, y + x = {y + x} at {x}, {y}"
        if y.sign() != 0 and (q := (x / y) * y) != x:
            return False, f"(x/y)y = {q}, expected x = {x} at y = {y}"
        # an int or a Fraction operand must act as the equal QField does
        k, f = rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        K, F = QField(k), QField(f)
        got, want = (x + k, k - x, x * f, x < k, x == k, K == k), (x + K, K - x, x * F, x < K, x == K, True)
        if got != want:
            return False, f"int {k} and Fraction {f} at {x} gave {got}, expected {want}"
        if x.sign() != 0 and f / x != F / x:
            return False, f"{f}/x = {f / x}, expected {F / x} at x = {x}"
        if (back := parse_scalar(str(x))) != x:
            return False, f"text {str(x)!r} parsed to {back}, expected {x}"
        n = scalars.floor(x)
        if not (qf(n) <= x < qf(n + 1)):
            return False, f"floor({x}) = {n}"
    return True, "field axioms, parse round trip, floor bracketing"


def check_affine_invariance(rng: random.Random) -> tuple[bool, str]:
    for _ in range(25):
        a = Point(Fraction(rng.randint(-20, 20), 4), Fraction(rng.randint(-20, 20), 4))
        step = LatticeVector(rng.randint(-5, 5), rng.randint(-5, 5))
        if step.is_zero():
            continue
        lam = qf(Fraction(rng.randint(1, 12), rng.randint(1, 6)))
        b = Point(a.x1 + lam * step.u, a.x2 + lam * step.v)
        m = random_unimodular(rng, det=rng.choice((1, -1)))
        if (before := affine_length(a, b)) != (after := affine_length(m.apply(a), m.apply(b))):
            return False, f"affine length {before} from {a} to {b} became {after} under {m}"
        if (back := m.inverse().compose(m).apply(a)) != a:
            return False, f"inverse after {m} sent {a} to {back}"
    w = LatticeVector(3, 2)
    shear = unipotent_fixing(w, 4, base=Point(qf(1), qf(1)))
    fixed = Point(qf(1) + qf(3) * w.u, qf(1) + qf(3) * w.v)
    if (moved := shear.apply(fixed)) != fixed:
        return False, f"unipotent shear moved {fixed} on its fixed line to {moved}"
    return True, "length invariance, inverses, fixed lines"


def check_distance_closed_form(rng: random.Random) -> tuple[bool, str]:
    for _ in range(6):
        params = random_params(rng)
        poly = build_blowup_polygon(params)
        for _ in range(25):
            p = random_interior_point(rng, poly)
            if (got := poly.distance_to_boundary(p)) != (want := _blowup_distance_oracle(params, p)):
                return False, f"distance {got} at {p}, closed form {want}"
    return True, "five-edge minimum equals the closed form"


def check_max_distance(rng: random.Random) -> tuple[bool, str]:
    for _ in range(6):
        params = random_params(rng)
        poly = build_blowup_polygon(params)
        value, point = poly.max_distance()
        if value != params.b / 2:
            return False, f"max distance {value} is not b/2 = {params.b / 2}"
        if (got := poly.distance_to_boundary(point)) != value:
            return False, f"maximizer {point} has distance {got}, not the maximum {value}"
    return True, "exact LP maximum equals b/2"


def check_level_perimeter(rng: random.Random) -> tuple[bool, str]:
    for _ in range(6):
        params = random_params(rng)
        poly = build_blowup_polygon(params)
        for k in range(5):
            h = params.c * k / 5
            level = poly.level_set(h)
            if len(level.edges) != 5:
                return False, f"level {h} has {len(level.edges)} edges, expected 5"
            if (got := level.perimeter()) != (want := perimeter_value(params, h)):
                return False, f"perimeter {got} at level {h}, formula gives {want}"
    return True, "level perimeter equals 2(a+b) - c - 7h on five edges"


def check_recurrence_rotation(rng: random.Random) -> tuple[bool, str]:
    for params in (DEFAULT_PARAMS, random_params(rng)):
        rm = build_recurrence_map(build_pi0(params))
        poly = rm.polygon
        for _ in range(8):
            h = (params.c - params.eps) * rng.randint(0, 9) / 10
            p = random_level_point(rng, poly, h)
            expected = rotate_on_level(poly, h, params.c - h, p)
            if (got := apply_rounds(rm, p)) != expected:
                return False, f"composite sent {p} to {got} at level {h}, rotation gives {expected}"
        top = poly.max_distance()[0]
        for _ in range(6):
            h = params.c + (top - params.c) * rng.randint(1, 9) / 10
            p = random_level_point(rng, poly, h)
            if (got := apply_rounds(rm, p)) != p:
                return False, f"composite moved the fixed point {p} to {got} at level {h}"
    return True, "four rounds rotate below c, fix above"


def check_round_one_form(rng: random.Random) -> tuple[bool, str]:
    params = DEFAULT_PARAMS
    rm = build_recurrence_map(build_pi0(params), verify=False)
    first = rm.rounds[0]
    offset = params.b / 2 - params.c
    want_map = UnimodularAffineMap(1, -1, 0, 1, -offset, qf(0))
    if first.normal != LatticeVector(0, -1) or first.offset != offset:
        return False, f"round one strip is {first.normal}, offset {first.offset}; expected (0, -1), {offset}"
    if first.shear_map != want_map:
        return False, f"round one map is {first.shear_map}, expected {want_map}"
    return True, "round one is the bottom-strip shear"


def check_rotation_equivariance(rng: random.Random) -> tuple[bool, str]:
    params = DEFAULT_PARAMS
    poly = build_blowup_polygon(params)
    for _ in range(6):
        h = (params.c - params.eps) * rng.randint(0, 9) / 10
        t = params.c - h
        p = random_level_point(rng, poly, h)
        m = random_unimodular(rng, det=1)
        moved = poly.transform(m)
        got, want = m.apply(rotate_on_level(poly, h, t, p)), rotate_on_level(moved, h, t, m.apply(p))
        if got != want:
            return False, f"det=+1 map of the rotated {p} is {got}, rotation of its image is {want}"
        r = random_unimodular(rng, det=-1)
        flipped = poly.transform(r)
        got, want = r.apply(rotate_on_level(poly, h, t, p)), rotate_on_level(flipped, h, -t, r.apply(p))
        if got != want:
            return False, f"det=-1 map of the rotated {p} is {got}, reverse rotation of its image is {want}"
    return True, "arc rotation is equivariant (orientation-aware)"


def check_periodic_level(rng: random.Random) -> tuple[bool, str]:
    report = classify_level(DEFAULT_PARAMS, qf("1/4"))
    if report.rho != qf("1/39") or report.kind != "periodic" or report.period != 39:
        return False, f"expected rho 1/39 period 39, got {report.rho} {report.period}"
    rm = build_recurrence_map(build_pi0(DEFAULT_PARAMS), verify=False)
    p = Point(qf(0), qf("-3/4"))
    if (q := apply_phi_iter(rm, p, 39)) != p:
        return False, f"geometric iterate 39 of {p} is {q}"
    if apply_phi_iter(rm, p, 13) == p:
        return False, f"geometric iterate 13 of {p} is the start, expected another point"
    return True, "level 1/4 is periodic with period 39"


def check_irrational_level(rng: random.Random) -> tuple[bool, str]:
    h = QField(0, Fraction(1, 8), 2)
    report = classify_level(DEFAULT_PARAMS, h, n_checked=500)
    if report.kind != "irrational-certified":
        return False, f"expected irrational certificate, got {report.kind}"
    if (rho := rotation_number(DEFAULT_PARAMS, h)).is_rational():
        return False, f"rotation number {rho} is rational"
    for count in (100, 400):
        if len(gaps := gap_values(DEFAULT_PARAMS, h, count)) > 3:
            return False, f"gap values {gaps} at N={count}, expected at most three"
    stats = equidistribution_stats(DEFAULT_PARAMS, h, 500, 10)
    if sum(stats) != 500 or min(stats) == 0:
        return False, f"histogram {stats}, expected 500 counts with no empty bin"
    return True, "sqrt(2)/8 level is certified irrational, three-distance holds"


def check_rho_monotone(rng: random.Random) -> tuple[bool, str]:
    for params in (DEFAULT_PARAMS, *(random_params(rng) for _ in range(4))):
        if not rho_monotone_check(params):
            return False, f"rho_monotone_check is False at a={params.a}, b={params.b}, c={params.c}"
    return True, "rotation number strictly decreasing, certificate signs agree"


def check_twist_classes(rng: random.Random) -> tuple[bool, str]:
    want = [H2Class(-1, 1, 0), H2Class(1, -1, 0)]
    if (got := find_twist_classes(20)) != want:
        return False, f"closed form gave {got} at bound 20, expected {want}"
    brute = sorted(
        (
            H2Class(al, be, ga)
            for al in range(-12, 13)
            for be in range(-12, 13)
            for ga in range(-12, 13)
            if 2 * al * be - ga * ga == -2 and 2 * al + 2 * be + ga == 0
        ),
        key=H2Class.as_tuple,
    )
    if (got := find_twist_classes(12)) != brute:
        return False, f"closed form gave {got} at bound 12, the brute-force cube {brute}"
    if any(intersection(x, x) != -2 or c1_eval(x) != 0 for x in brute):
        return False, f"brute-force classes {brute} do not all have square -2 and c1 = 0"
    return True, "square -2, c1 = 0 classes are exactly +-(1, -1, 0)"


def check_catalog_labels(rng: random.Random) -> tuple[bool, str]:
    cases = [
        ("CP2(3)", False, "monotone"),
        ("S2xS2(2,2)", False, "monotone"),
        ("S2xS2(4,2)", False, "product_unequal"),
        ("Bl1CP2", False, "monotone"),
        ("Bl2CP2", False, "monotone"),
        ("Bl3CP2", False, "monotone"),
        ("HirzebruchF1(4,1)", True, None),
        ("Blowup_S2xS2(4,2,1/2)", True, None),
        ("Blowup_S2xS2(4,2,1)", False, "half-size-blowup-1"),
        ("Blowup2_S2xS2(4,2)", False, "half-size-blowup-2"),
    ]
    for name, applicable, tag in cases:
        report = check_applicable(catalog(name))
        if report.applicable != applicable or report.exception_tag != tag:
            return False, (
                f"{name}: got applicable={report.applicable} "
                f"tag={report.exception_tag}, expected applicable={applicable} tag={tag}"
            )
    got = monotone_test(catalog("Bl3CP2")), monotone_test(catalog("S2xS2(4,2)"))
    if got != (True, False):
        return False, f"monotone test gave {got} for Bl3CP2 and S2xS2(4,2), expected (True, False)"
    return True, "catalog families screen to the expected labels"


def check_diagram_moves(rng: random.Random) -> tuple[bool, str]:
    params = DEFAULT_PARAMS
    diagram = build_pi0(params)
    if len(diagram.nodes) != 5 or len(diagram.cuts) != 5:
        return False, f"initial diagram: {len(diagram.nodes)} nodes, {len(diagram.cuts)} cuts, expected 5 and 5"
    slide = next(e for e in diagram.provenance if e[0] == "slide")
    band = slide[4]
    if band != (params.eps / 2, params.c):
        return False, f"slide band {band} is not [eps/2, c] = {(params.eps / 2, params.c)}"
    square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    base = nodal_trade(BaseDiagram(polygon=square), 0, qf(2))
    node = base.nodes[0]
    new_cut = BranchCut(0, (node.position, Point(qf(4), qf(4))))
    moved, push = cut_transfer(base, 0, new_cut)
    back, pull = cut_transfer(moved, 0, base.cuts[0])
    if not back.same_geometry(base):
        return False, f"transfer round trip gave cuts {back.cuts}, expected {base.cuts}"
    round_trip = pull.compose(push)
    if not round_trip.is_identity():
        return False, f"transfer round trip transition is {round_trip.region_map}, expected the identity"
    for _ in range(20):
        p = random_interior_point(rng, square)
        if (q := round_trip.apply(p)) != p:
            return False, f"transfer round trip moved {p} to {q}"
    lin = push.region_map
    if lin.det != 1 or lin.trace != 2:
        return False, f"transfer monodromy has det {lin.det} and trace {lin.trace}, expected 1 and 2"
    return True, "slide band exact, transfer round trip is the identity"


def check_render_deterministic(rng: random.Random) -> tuple[bool, str]:
    diagram = build_pi0(DEFAULT_PARAMS)
    style = RenderStyle(show_levels=(qf("1/4"),), show_eigenlines=True)
    first = render_svg(diagram, style)
    second = render_svg(diagram, style)
    if first != second:
        k = len(os.path.commonprefix((first, second)))
        return False, f"second render has {second[k:k + 40]!r} at character {k}, the first {first[k:k + 40]!r}"
    nodes, cuts, levels = (first.count(f'class="{kind}"') for kind in ("node", "cut", "level"))
    if (nodes, cuts, levels) != (5, 5, 1):
        return False, f"{nodes} nodes, {cuts} cuts, {levels} levels drawn, expected 5, 5, 1"
    return True, "byte-identical output, 5 nodes, 5 cuts, level drawn"


CHECKS: list[tuple[str, Callable[[random.Random], tuple[bool, str]]]] = [
    ("scalar-field-axioms", check_scalar_field_axioms),
    ("affine-invariance", check_affine_invariance),
    ("distance-closed-form", check_distance_closed_form),
    ("max-distance-b-half", check_max_distance),
    ("level-perimeter-formula", check_level_perimeter),
    ("recurrence-rotation", check_recurrence_rotation),
    ("round-one-form", check_round_one_form),
    ("rotation-equivariance", check_rotation_equivariance),
    ("periodic-level-39", check_periodic_level),
    ("irrational-level-sqrt2", check_irrational_level),
    ("rho-strictly-decreasing", check_rho_monotone),
    ("twist-classes", check_twist_classes),
    ("catalog-labels", check_catalog_labels),
    ("diagram-moves", check_diagram_moves),
    ("render-deterministic", check_render_deterministic),
]


def run_all(seed: int = 2026, out=None) -> int:
    """Run every property check; print one line each; return exit code."""
    import sys

    stream = out if out is not None else sys.stdout
    failures = 0
    for name, fn in CHECKS:
        rng = random.Random(f"{seed}:{name}")
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name}: {detail}", file=stream)
    total = len(CHECKS)
    print(f"{total - failures}/{total} properties passed", file=stream)
    return 0 if failures == 0 else 1


__all__ = ["run_all", "CHECKS", "DEFAULT_PARAMS", "random_params"]
