"""Built-in property battery behind the ``verify`` CLI subcommand.

Each check re-derives a property from scratch (closed forms, brute-force
enumerations, independently coded oracles) and yields it as rows
``(what, got, expected)``: the library's value and the value it must equal,
in exact arithmetic, under a label ``what`` written as a ``str.format``
template over the check's local names.  ``run_all`` compares each row with
``!=``; the first row that differs prints ``FAIL  <name>: <what>: got <got>,
expected <expected>``, a check that raises prints ``FAIL  <name>: raised
...``, and a check whose rows all agree prints ``PASS  <name>: <detail>``
from ``CHECKS``.  It returns a process exit code.  ``tests/test_verify.py``
plants, for every row, a library fault that makes it the FAIL line.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from typing import Callable, Iterator

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

Rows = Iterator[tuple[str, object, object]]


def _blowups(rng: random.Random):
    # the six random chopped rectangles each blow-up check samples
    for _ in range(6):
        params = random_params(rng)
        yield params, build_blowup_polygon(params)


def check_scalar_field_axioms(rng: random.Random) -> Rows:
    for _ in range(40):
        x, y, z = (
            QField(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                2,
            )
            for _ in range(3)
        )
        yield "(x + y)z at {x}, {y}, {z}", (x + y) * z, x * z + y * z
        yield "xy and x + y at {x}, {y}", (x * y, x + y), (y * x, y + x)
        if y.sign() != 0:
            yield "(x/y)y at {x}, {y}", (x / y) * y, x
        # an int or a Fraction operand must act as the equal QField does
        k, f = rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        K, F = QField(k), QField(f)
        got, want = (x + k, k - x, x * f, x < k, x == k, K == k), (x + K, K - x, x * F, x < K, x == K, True)
        yield "int {k} and Fraction {f} at {x}", got, want
        if x.sign() != 0:
            yield "Fraction {f} over {x}", f / x, F / x
        text = str(x)
        yield "parse of {text!r}", parse_scalar(text), x
        n = scalars.floor(x)
        yield "n <= x < n + 1 at x = {x}, n = floor(x) = {n}", (qf(n) <= x, x < qf(n + 1)), (True, True)


def check_affine_invariance(rng: random.Random) -> Rows:
    for _ in range(25):
        a = Point(Fraction(rng.randint(-20, 20), 4), Fraction(rng.randint(-20, 20), 4))
        step = LatticeVector(rng.randint(-5, 5), rng.randint(-5, 5))
        if step.is_zero():
            continue
        lam = qf(Fraction(rng.randint(1, 12), rng.randint(1, 6)))
        b = Point(a.x1 + lam * step.u, a.x2 + lam * step.v)
        m = random_unimodular(rng, det=rng.choice((1, -1)))
        before, after = affine_length(a, b), affine_length(m.apply(a), m.apply(b))
        yield "affine length from {a} to {b} under {m}", after, before
        yield "inverse after {m} at {a}", m.inverse().compose(m).apply(a), a
    w = LatticeVector(3, 2)
    shear = unipotent_fixing(w, 4, base=Point(qf(1), qf(1)))
    fixed = Point(qf(1) + qf(3) * w.u, qf(1) + qf(3) * w.v)
    yield "unipotent shear of {fixed} on its fixed line", shear.apply(fixed), fixed


def check_distance_closed_form(rng: random.Random) -> Rows:
    for params, poly in _blowups(rng):
        for _ in range(25):
            p = random_interior_point(rng, poly)
            yield "distance at {p}", poly.distance_to_boundary(p), _blowup_distance_oracle(params, p)


def check_max_distance(rng: random.Random) -> Rows:
    for params, poly in _blowups(rng):
        value, point = poly.max_distance()
        yield "max distance at b = {params.b}", value, params.b / 2
        yield "distance at the maximizer {point}", poly.distance_to_boundary(point), value


def check_level_perimeter(rng: random.Random) -> Rows:
    for params, poly in _blowups(rng):
        for k in range(5):
            h = params.c * k / 5
            level = poly.level_set(h)
            yield "edges at level {h}", len(level.edges), 5
            yield "perimeter at level {h}", level.perimeter(), perimeter_value(params, h)


def check_recurrence_rotation(rng: random.Random) -> Rows:
    for params in (DEFAULT_PARAMS, random_params(rng)):
        rm = build_recurrence_map(build_pi0(params))
        poly = rm.polygon
        for _ in range(8):
            h = (params.c - params.eps) * rng.randint(0, 9) / 10
            p = random_level_point(rng, poly, h)
            want = rotate_on_level(poly, h, params.c - h, p)
            yield "four rounds below c at level {h}, from {p}", apply_rounds(rm, p), want
        top = poly.max_distance()[0]
        for _ in range(6):
            h = params.c + (top - params.c) * rng.randint(1, 9) / 10
            p = random_level_point(rng, poly, h)
            yield "four rounds above c at level {h}, from {p}", apply_rounds(rm, p), p


def check_round_one_form(rng: random.Random) -> Rows:
    params = DEFAULT_PARAMS
    first = build_recurrence_map(build_pi0(params), verify=False).rounds[0]
    offset = params.b / 2 - params.c
    yield "round one strip normal and offset", (first.normal, first.offset), (LatticeVector(0, -1), offset)
    yield "round one map", first.shear_map, UnimodularAffineMap(1, -1, 0, 1, -offset, qf(0))


def check_rotation_equivariance(rng: random.Random) -> Rows:
    params = DEFAULT_PARAMS
    poly = build_blowup_polygon(params)
    for _ in range(6):
        h = (params.c - params.eps) * rng.randint(0, 9) / 10
        t = params.c - h
        p = random_level_point(rng, poly, h)
        q = rotate_on_level(poly, h, t, p)
        m = random_unimodular(rng, det=1)
        want = rotate_on_level(poly.transform(m), h, t, m.apply(p))
        yield "det=+1 map of the rotated {p}", m.apply(q), want
        r = random_unimodular(rng, det=-1)
        want = rotate_on_level(poly.transform(r), h, -t, r.apply(p))
        yield "det=-1 map of the rotated {p}", r.apply(q), want


def check_periodic_level(rng: random.Random) -> Rows:
    report = classify_level(DEFAULT_PARAMS, qf("1/4"))
    got = report.rho, report.kind, report.period
    yield "level 1/4 rho, kind and period", got, (qf("1/39"), "periodic", 39)
    rm = build_recurrence_map(build_pi0(DEFAULT_PARAMS), verify=False)
    p = Point(qf(0), qf("-3/4"))
    yield "iterate 39 of {p}", apply_phi_iter(rm, p, 39), p
    # 39 is the least period when no proper divisor of 39 brings p back
    back = [n for n in (1, 3, 13) if apply_phi_iter(rm, p, n) == p]
    yield "proper divisors n of 39 with iterate n of {p} at the start", back, []


def check_irrational_level(rng: random.Random) -> Rows:
    h = QField(0, Fraction(1, 8), 2)
    yield "kind of level {h}", classify_level(DEFAULT_PARAMS, h, n_checked=500).kind, "irrational-certified"
    rho = rotation_number(DEFAULT_PARAMS, h)
    yield "rotation number {rho} is rational", rho.is_rational(), False
    for count in (100, 400):
        yield "gaps past the third at N={count}", gap_values(DEFAULT_PARAMS, h, count)[3:], []
    stats = equidistribution_stats(DEFAULT_PARAMS, h, 500, 10)
    yield "sum and empty bins of histogram {stats}", (sum(stats), stats.count(0)), (500, 0)


def check_rho_monotone(rng: random.Random) -> Rows:
    for params in (DEFAULT_PARAMS, *(random_params(rng) for _ in range(4))):
        got = rho_monotone_check(params)
        yield "rho_monotone_check at a={params.a}, b={params.b}, c={params.c}", got, True
        # the closed form itself, at 11 levels across the full-advance range
        rhos = [rotation_number(params, (params.c - params.eps) * k / 10) for k in range(11)]
        rises = [k for k in range(10) if rhos[k] <= rhos[k + 1]]
        yield (
            "levels k with rho((c - eps)k/10) <= rho((c - eps)(k + 1)/10) at a={params.a}, b={params.b}, "
            "c={params.c}, eps={params.eps}"
        ), rises, []


def check_twist_classes(rng: random.Random) -> Rows:
    yield "closed form at bound 20", find_twist_classes(20), [H2Class(-1, 1, 0), H2Class(1, -1, 0)]
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
    yield "closed form at bound 12, against the brute-force cube", find_twist_classes(12), brute
    got = [(intersection(x, x), c1_eval(x)) for x in brute]
    yield "square and c1 of the brute-force classes", got, [(-2, 0)] * len(brute)


def check_catalog_labels(rng: random.Random) -> Rows:
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
        yield "applicable and tag of {name}", (report.applicable, report.exception_tag), (applicable, tag)
    got = monotone_test(catalog("Bl3CP2")), monotone_test(catalog("S2xS2(4,2)"))
    yield "monotone test of Bl3CP2 and S2xS2(4,2)", got, (True, False)


def check_diagram_moves(rng: random.Random) -> Rows:
    params = DEFAULT_PARAMS
    diagram = build_pi0(params)
    yield "initial nodes and cuts", (len(diagram.nodes), len(diagram.cuts)), (5, 5)
    slide = next(e for e in diagram.provenance if e[0] == "slide")
    yield "slide band", slide[4], (params.eps / 2, params.c)
    base = nodal_trade(BaseDiagram(polygon=Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])), 0, qf(2))
    moved, push = cut_transfer(base, 0, BranchCut(0, (base.nodes[0].position, Point(qf(4), qf(4)))))
    back, pull = cut_transfer(moved, 0, base.cuts[0])
    geometry = back.polygon, back.nodes, back.cuts
    yield "transfer round trip geometry", geometry, (base.polygon, base.nodes, base.cuts)
    # an identity region map moves no point, inside the region or out
    yield "transfer round trip transition", pull.compose(push).region_map, UnimodularAffineMap.identity()
    # node (2, 2), eigen direction (1, 1): the swept half lies above the
    # diagonal, and its counterclockwise loop leaves along the new cut to
    # (4, 4), so it takes the node's shear to the power -1: (2, -1; 1, 0),
    # which fixes the diagonal pointwise
    yield "transfer monodromy", push.region_map, UnimodularAffineMap(2, -1, 1, 0, qf(0), qf(0))


def check_render_deterministic(rng: random.Random) -> Rows:
    diagram = build_pi0(DEFAULT_PARAMS)
    style = RenderStyle(show_levels=(qf("1/4"),), show_eigenlines=True)
    first, second = render_svg(diagram, style), render_svg(diagram, style)
    k = len(os.path.commonprefix((first, second)))
    yield "second render at character {k}", repr(second[k:k + 40]), repr(first[k:k + 40])
    drawn = tuple(first.count(f'class="{kind}"') for kind in ("node", "cut", "level"))
    yield "nodes, cuts and levels drawn", drawn, (5, 5, 1)


CHECKS: list[tuple[str, Callable[[random.Random], Rows], str]] = [
    ("scalar-field-axioms", check_scalar_field_axioms, "field axioms, parse round trip, floor bracketing"),
    ("affine-invariance", check_affine_invariance, "length invariance, inverses, fixed lines"),
    ("distance-closed-form", check_distance_closed_form, "five-edge minimum equals the closed form"),
    ("max-distance-b-half", check_max_distance, "exact LP maximum equals b/2"),
    ("level-perimeter-formula", check_level_perimeter, "level perimeter equals 2(a+b) - c - 7h on five edges"),
    ("recurrence-rotation", check_recurrence_rotation, "four rounds rotate below c, fix above"),
    ("round-one-form", check_round_one_form, "round one is the bottom-strip shear"),
    ("rotation-equivariance", check_rotation_equivariance, "arc rotation is equivariant (orientation-aware)"),
    ("periodic-level-39", check_periodic_level, "level 1/4 is periodic with period 39"),
    (
        "irrational-level-sqrt2",
        check_irrational_level,
        "sqrt(2)/8 level is certified irrational, three-distance holds",
    ),
    (
        "rho-strictly-decreasing",
        check_rho_monotone,
        "rotation number strictly decreasing, certificate signs agree",
    ),
    ("twist-classes", check_twist_classes, "square -2, c1 = 0 classes are exactly +-(1, -1, 0)"),
    ("catalog-labels", check_catalog_labels, "catalog families screen to the expected labels"),
    ("diagram-moves", check_diagram_moves, "slide band exact, transfer round trip is the identity"),
    ("render-deterministic", check_render_deterministic, "byte-identical output, 5 nodes, 5 cuts, level drawn"),
]


def run_all(seed: int = 2026, out=None) -> int:
    """Run every property check; print one line each; return exit code."""
    stream = out if out is not None else sys.stdout
    failures = 0
    for name, check, detail in CHECKS:
        rng = random.Random(f"{seed}:{name}")
        status = "PASS"
        try:
            rows = check(rng)
            for what, got, expected in rows:
                if got != expected:
                    # the label names the check's locals at this row; only a
                    # failing row pays for formatting them
                    what = what.format_map(rows.gi_frame.f_locals)
                    status, detail = "FAIL", f"{what}: got {got}, expected {expected}"
                    break
        except Exception as exc:  # a crashed check is a failed check
            status, detail = "FAIL", f"raised {type(exc).__name__}: {exc}"
        failures += status == "FAIL"
        print(f"{status}  {name}: {detail}", file=stream)
    total = len(CHECKS)
    print(f"{total - failures}/{total} properties passed", file=stream)
    return 0 if failures == 0 else 1


__all__ = ["run_all", "CHECKS", "DEFAULT_PARAMS", "random_params"]
