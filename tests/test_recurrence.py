"""Strip shears, the four-round composite, and the smoothed step."""

import copy
import pickle
import random
from dataclasses import fields, replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import edge_samples, outcome, point_verify_rounds

from atfkit import recurrence
from atfkit.diagram import BaseDiagram, build_pi0
from atfkit.plane import LatticeVector, Point, _row_point, move, pt
from atfkit.polygon import ConstructionParams, Polygon, build_blowup_polygon, centered_rectangle
from atfkit.recurrence import (
    StripShear,
    VerificationError,
    _verify_rounds,
    apply_phi,
    apply_phi_iter,
    apply_rounds,
    build_recurrence_map,
    rotate_on_level,
    rotation_amount,
)
from atfkit.scalars import QField, qf
from atfkit.verify import DEFAULT_PARAMS, random_params


def default_map():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    return build_recurrence_map(build_pi0(params))


# -- strip shears ---------------------------------------------------------------


def test_strip_shear_normal_must_be_primitive():
    with pytest.raises(ValueError):
        StripShear(LatticeVector(0, -2), qf(1))


def test_strip_shear_fixes_outside_and_boundary():
    shear = StripShear(LatticeVector(0, -1), qf("1/2"))
    # the strip is { -x2 >= 1/2 }, i.e. the region below x2 = -1/2
    outside = pt(1, 0)
    assert shear.excess(outside).sign() < 0
    assert shear.apply(outside) == outside
    on_line = pt(5, "-1/2")
    assert shear.excess(on_line) == 0
    assert shear.apply(on_line) == on_line


def test_strip_shear_bottom_matrix():
    shear = StripShear(LatticeVector(0, -1), qf("1/2"))
    m = shear.shear_map
    assert (m.m11, m.m12, m.m21, m.m22) == (1, -1, 0, 1)
    assert (m.t1, m.t2) == (qf("-1/2"), qf(0))
    assert m.det == 1 and m.trace == 2


def test_strip_shear_inside_action():
    shear = StripShear(LatticeVector(0, -1), qf("1/2"))
    # excess at x2 = -3/4 is 1/4; the point slides right by the excess
    assert shear.apply(pt(0, "-3/4")) == pt("1/4", "-3/4")
    assert shear.apply(pt(-1, -1)) == pt("-1/2", -1)


def test_strip_shear_apply_is_its_map_inside_and_identity_outside():
    rng = random.Random(41)
    inside = outside = 0
    for _ in range(200):
        normal = rng.choice([LatticeVector(0, -1), LatticeVector(-1, 0), LatticeVector(2, -3)])
        shear = StripShear(normal, Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
        p = pt(Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))
        if shear.excess(p).sign() >= 0:
            assert shear.apply(p) == shear.shear_map.apply(p)
            inside += 1
        else:
            assert shear.apply(p) == p
            outside += 1
    assert inside > 50 and outside > 50


def test_documented_first_round_action():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/4"))
    rm = build_recurrence_map(build_pi0(params))
    assert rm.rounds[0].apply(pt(0, "-3/4")) == pt("1/4", "-3/4")


# -- arc rotation ------------------------------------------------------------------


def test_rotate_on_level_requires_exact_level():
    poly = centered_rectangle(4, 2)
    with pytest.raises(ValueError):
        rotate_on_level(poly, qf("1/2"), qf(1), pt(0, 0))  # F(0,0) = 1


def test_rotate_by_full_perimeter_is_identity():
    poly = centered_rectangle(4, 2)
    h = qf("1/4")
    level = poly.level_set(h)
    p = level.vertices[0]
    per = level.perimeter()
    assert rotate_on_level(poly, h, per, p) == p
    assert rotate_on_level(poly, h, qf(0), p) == p


def test_rotation_is_additive():
    rng = random.Random(41)
    poly = build_blowup_polygon(ConstructionParams(4, 2, qf("1/2"), qf("1/8")))
    h = qf("1/4")
    level = poly.level_set(h)
    for _ in range(20):
        p = level.arc_to_point(level.perimeter() * Fraction(rng.randint(0, 63), 64))
        t = qf(Fraction(rng.randint(-40, 40), 16))
        u = qf(Fraction(rng.randint(-40, 40), 16))
        two_steps = rotate_on_level(poly, h, u, rotate_on_level(poly, h, t, p))
        assert two_steps == rotate_on_level(poly, h, t + u, p)


# -- the taper ramp -----------------------------------------------------------------


def test_rotation_amount_profile():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    # full advance c - h through h = c - eps
    assert rotation_amount(params, 0) == qf("1/2")
    assert rotation_amount(params, qf("1/4")) == qf("1/4")
    assert rotation_amount(params, qf("3/8")) == qf("1/8")
    # inside the taper band the advance is scaled by the ramp
    assert rotation_amount(params, qf("7/16")) == qf("3/64")
    assert rotation_amount(params, qf("1/2")) == 0
    # just above c the ramp is still positive but the advance is negative
    assert rotation_amount(params, qf("9/16")) == qf("-1/64")
    # at and above c + eps everything is fixed
    assert rotation_amount(params, qf("5/8")) == 0
    assert rotation_amount(params, qf("7/8")) == 0
    with pytest.raises(ValueError):
        rotation_amount(params, -1)


def clamped_ramp_amount(params: ConstructionParams, h) -> QField:
    """``rotation_amount`` as it was before its three cases: the ramp
    clamped to [0, 1]."""
    h = qf(h)
    if h.sign() < 0:
        raise ValueError("level must be nonnegative")
    c, eps = params.c, params.eps
    u = (c + eps - h) / (2 * eps)
    if u.sign() <= 0:
        return qf(0)
    if (u - 1).sign() >= 0:
        u = qf(1)
    return (c - h) * u


def test_rotation_amount_matches_the_clamped_ramp():
    rng = random.Random(1956)
    band_levels = 0
    for _ in range(40):
        params = random_params(rng)
        c, eps, half = params.c, params.eps, params.b / 2
        levels = [c - eps, c, c + eps, half * Fraction(rng.randrange(1000), 1000)]
        levels += [half * Fraction(k, 48) for k in range(48)]
        for d in (2, 3):
            # irrational levels on both sides of each band end and inside the band
            for end in (c - eps, c + eps):
                levels += [end + QField(0, Fraction(s, 1000), d) for s in (-1, 1)]
            levels += [(c - eps) / 2 + QField(0, Fraction(1, 500), d),
                       QField(0, half.as_fraction() / 2, d)]
        for h in levels:
            assert 0 <= h < half
            assert rotation_amount(params, h) == clamped_ramp_amount(params, h), (params, h)
            band_levels += c - eps < h < c + eps
    assert band_levels >= 200


# -- building and verifying the map ---------------------------------------------------


def test_build_checks_the_polygon():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    other = ConstructionParams(6, 2, qf("1/2"), qf("1/8"))
    diagram = replace(build_pi0(params), params=other)
    with pytest.raises(ValueError, match="does not match the parameters"):
        build_recurrence_map(diagram)


def test_build_needs_a_node_on_level_c():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    bare = BaseDiagram(polygon=poly, params=params)
    with pytest.raises(ValueError):
        build_recurrence_map(bare)


def test_build_needs_parameters():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    diagram = replace(build_pi0(params), params=None)
    with pytest.raises(ValueError):
        build_recurrence_map(diagram)


def test_build_records_source_and_target():
    rm = default_map()
    assert len(rm.rounds) == 4


def test_map_reads_params_and_polygon_from_its_source(monkeypatch):
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    source = build_pi0(params)
    built = []
    validate = BaseDiagram.__post_init__
    monkeypatch.setattr(
        BaseDiagram, "__post_init__", lambda self: (built.append(self), validate(self))
    )
    rm = build_recurrence_map(source)
    # no diagram is built, so none is validated
    assert built == []
    assert [f.name for f in fields(rm) if f.init] == ["rounds", "source_diagram"]
    assert rm.source_diagram is source
    assert rm.params is source.params and rm.polygon is source.polygon


def test_copy_and_pickle_round_trip():
    rm = default_map()
    for value in (rm.source_diagram, rm):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    p = pt("1/3", "-1/5")
    assert apply_phi(pickle.loads(pickle.dumps(rm)), p) == apply_phi(rm, p)


def test_round_normals_cycle_the_sides():
    rm = default_map()
    assert [s.normal for s in rm.rounds] == [
        LatticeVector(0, -1),
        LatticeVector(-1, 0),
        LatticeVector(0, 1),
        LatticeVector(1, 0),
    ]
    a, b, c = rm.params.a, rm.params.b, rm.params.c
    assert [s.offset for s in rm.rounds] == [b / 2 - c, a / 2 - c, b / 2 - c, a / 2 - c]


# -- composite behaviour ----------------------------------------------------------------


def test_composite_rotates_levels_below_c():
    rng = random.Random(42)
    for _ in range(3):
        params = random_params(rng)
        rm = build_recurrence_map(build_pi0(params), verify=False)
        poly = rm.polygon
        c, eps = params.c, params.eps
        for k in range(3):
            h = (c - eps) * Fraction(k, 3)
            level = poly.level_set(qf(h))
            for p in edge_samples(level, 2):
                expected = rotate_on_level(poly, qf(h), c - h, p)
                assert apply_rounds(rm, p) == expected


def test_composite_fixes_levels_above_c():
    rng = random.Random(43)
    rm = default_map()
    poly = rm.polygon
    top = poly.max_distance()[0]
    c, eps = rm.params.c, rm.params.eps
    for k in range(1, 4):
        h = c + eps + (top - c - eps) * Fraction(k, 5)
        level = poly.level_set(qf(h))
        for p in edge_samples(level, 2):
            assert apply_rounds(rm, p) == p


@pytest.mark.parametrize("r", [2, 3])
def test_a_map_with_sqrt_parameters_verifies(r):
    # build_recurrence_map checks its grid on integer point rows
    params = ConstructionParams(qf(f"3/1+1/1*sqrt({r})"), qf(3), qf(f"1/2+1/8*sqrt({r})"), qf("1/8"))
    assert build_recurrence_map(build_pi0(params)).params == params


def test_verification_derives_no_level(monkeypatch):
    # the samples lie on their level by construction, so no check re-derives F there
    def refused(*args):
        raise AssertionError("the self-check re-derived a level")

    monkeypatch.setattr("atfkit.recurrence.rotate_on_level", refused)
    rm = default_map()
    shifted = replace(rm.rounds[1], offset=rm.rounds[1].offset + Fraction(1, 1000))
    with pytest.raises(VerificationError, match="missed the arc rotation at level 0/1"):
        _verify_rounds(replace(rm, rounds=(rm.rounds[0], shifted) + rm.rounds[2:]))


def test_verification_rejects_tampered_rounds():
    rm = default_map()
    crooked = replace(
        rm, rounds=(rm.rounds[0], rm.rounds[0], rm.rounds[2], rm.rounds[3])
    )

    with pytest.raises(VerificationError):
        _verify_rounds(crooked)


def nudge(monkeypatch, rm, h, corners: bool = True) -> None:
    """Patch the shear core, which the self-check reads on point rows, so
    that it gives the true rounds with the points of level h nudged up by 1,
    the corners of the level only when ``corners`` is set."""
    poly, core = rm.polygon, recurrence._shear_rows
    kept = () if corners else set(poly.level_set(h).vertices)

    def nudged(strips, row, d):
        q = core(strips, row, d)
        p = _row_point(row, d)
        if poly.distance_to_boundary(p) != h or p in kept:
            return q
        X1, Y1, X2, Y2, P = q or row
        return X1, Y1, X2 + P, Y2, P

    monkeypatch.setattr("atfkit.recurrence._shear_rows", nudged)


def test_verification_error_names_a_moved_point_above_the_taper(monkeypatch):
    rm = default_map()
    poly, top = rm.polygon, rm.polygon.max_distance()[0]
    high = (rm.params.c + rm.params.eps + top) / 2

    nudge(monkeypatch, rm, high)
    with pytest.raises(VerificationError) as caught:
        _verify_rounds(rm)
    err = caught.value
    h, p, got = err.level, err.point, err.got
    assert h == high and p in edge_samples(poly.level_set(high), 1)
    assert err.expected == p and got == move(p, LatticeVector(0, 1), qf(1))
    assert str(err) == (
        f"round composite moved a point on level {h}: ({p.x1}, {p.x2}) -> ({got.x1}, {got.x2})"
    )


def test_verification_error_names_level_point_and_both_images():
    rm = default_map()
    shifted = replace(rm.rounds[1], offset=rm.rounds[1].offset + Fraction(1, 1000))
    crooked = replace(rm, rounds=(rm.rounds[0], shifted) + rm.rounds[2:])
    with pytest.raises(VerificationError) as caught:
        _verify_rounds(crooked)
    err = caught.value
    h, p, got, expected = err.level, err.point, err.got, err.expected
    assert h == 0 and p in edge_samples(rm.polygon, 1)
    assert got == apply_rounds(crooked, p) != expected
    assert expected == rotate_on_level(rm.polygon, h, rm.params.c - h, p) == apply_rounds(rm, p)
    assert str(err) == (
        f"round composite missed the arc rotation at level {h}: "
        f"({p.x1}, {p.x2}) -> ({got.x1}, {got.x2}), "
        f"expected ({expected.x1}, {expected.x2})"
    )
    assert str(err) == (
        "round composite missed the arc rotation at level 0/1: (-2/1, 1/1) -> "
        "(-2001/1000, 501/1000), expected (-2/1, 1/2)"
    )
    plain = VerificationError("message")
    assert str(plain) == "message"
    assert (plain.level, plain.point, plain.got, plain.expected) == (None,) * 4


# -- the integer grid against the Point grid it replaced ------------------------------


def grid_outcome(check, rm):
    """What a self-check made of rm: None when it passed, else the message
    and the four fields of its VerificationError."""
    try:
        check(rm)
    except VerificationError as exc:
        return str(exc), exc.level, exc.point, exc.got, exc.expected
    return None


def sqrt_params(rng: random.Random, r: int, in_a: bool) -> ConstructionParams:
    """``random_params`` with a sqrt(r) part added to c, and to a if
    ``in_a``; with a rational, the corner (-a/2, -b/2) stays rational."""
    while True:
        p = random_params(rng)
        try:
            a = p.a + QField(0, Fraction(1, 7), r) if in_a else p.a
            return ConstructionParams(a, p.b, p.c + QField(0, Fraction(1, 97), r), p.eps)
        except ValueError:
            continue


def grid_maps():
    """The default map, 6 random rational maps, and 3 maps each with sqrt(2)
    and sqrt(3) parameters."""
    rng = random.Random(45)
    params = [DEFAULT_PARAMS] + [random_params(rng) for _ in range(6)]
    params += [sqrt_params(rng, r, k < 2) for r in (2, 3) for k in range(3)]
    return [build_recurrence_map(build_pi0(p), verify=False) for p in params]


def grid_mutations(rm):
    """Named broken copies of rm: each strip offset moved by +-c/1000, the
    slanted edge moved by +-c/1000, each strip normal turned, each pair of
    neighbouring rounds swapped."""
    rounds, (a, b, c) = rm.rounds, (rm.params.a / 2, rm.params.b / 2, rm.params.c)
    out = {}
    for k, shear in enumerate(rounds):
        for sign in (1, -1):
            moved = replace(shear, offset=shear.offset + sign * c / 1000)
            out[f"offset {k} {sign:+}"] = rounds[:k] + (moved,) + rounds[k + 1 :]
        n = shear.normal
        turned = replace(shear, normal=LatticeVector(n.u - n.v, n.v + n.u))
        out[f"normal {k}"] = rounds[:k] + (turned,) + rounds[k + 1 :]
        swapped = list(rounds)
        swapped[k], swapped[k - 1] = rounds[k - 1], rounds[k]
        out[f"swap {(k - 1) % 4} {k}"] = tuple(swapped)
    out = {name: replace(rm, rounds=moved) for name, moved in out.items()}
    for sign in (1, -1):
        chop = c + sign * c / 1000
        corners = [(-a, -b), (a - chop, -b), (a, chop - b), (a, b), (-a, b)]
        # the cuts end on the slanted edge, so no diagram holds this polygon;
        # the self-check reads only the source's polygon and parameters
        slanted = SimpleNamespace(polygon=Polygon(corners), params=rm.params)
        out[f"slanted edge {sign:+}"] = replace(rm, source_diagram=slanted)
    return out


GRID_MAPS = grid_maps()


def test_the_integer_grid_matches_the_point_grid():
    for rm in GRID_MAPS:
        assert _verify_rounds(rm) is None and point_verify_rounds(rm) is None, rm.params
        for name, broken in grid_mutations(rm).items():
            want = grid_outcome(point_verify_rounds, broken)
            assert want is not None, (rm.params, name)
            assert grid_outcome(_verify_rounds, broken) == want, (rm.params, name)


def test_the_integer_grid_matches_the_point_grid_on_a_nudged_point(monkeypatch):
    # both grids shear through the one core, so one nudge reaches both: a
    # point above the taper, and an edge midpoint of a level that advances
    for rm in GRID_MAPS:
        c, eps, top = rm.params.c, rm.params.eps, rm.polygon.max_distance()[0]
        for h, corners in (((c + eps + top) / 2, True), ((c - eps) / 2, False)):
            nudge(monkeypatch, rm, h, corners)
            want = grid_outcome(point_verify_rounds, rm)
            assert want is not None and want[1] == h, rm.params
            assert grid_outcome(_verify_rounds, rm) == want, (rm.params, h)
            monkeypatch.undo()


def test_the_integer_grid_matches_the_point_grid_on_strips_of_another_radicand():
    for rm in GRID_MAPS:
        # the offsets' rational parts plus sqrt(r)/100, r not the map's radicand
        r = 2 if rm.params.c.d == 3 else 3
        moved = tuple(replace(s, offset=QField(s.offset.a, Fraction(1, 100), r)) for s in rm.rounds)
        broken = replace(rm, rounds=moved)
        want = outcome(grid_outcome, point_verify_rounds, broken)
        assert outcome(grid_outcome, _verify_rounds, broken) == want, rm.params


# -- the smoothed step --------------------------------------------------------------------


def test_apply_phi_preserves_the_level():
    rm = default_map()
    poly = rm.polygon
    p = pt(0, "-3/4")
    q = apply_phi(rm, p)
    assert q == pt("1/4", "-3/4")
    assert poly.distance_to_boundary(q) == poly.distance_to_boundary(p)


def test_apply_phi_fixes_the_high_region():
    rm = default_map()
    assert apply_phi(rm, pt(0, 0)) == pt(0, 0)  # F = 1 > c + eps
    assert apply_phi(rm, pt("1/2", "1/8")) == pt("1/2", "1/8")


def test_apply_phi_iter_matches_iteration():
    rm = default_map()
    p = pt("-1/2", "-3/4")
    q = p
    for n in range(6):
        assert apply_phi_iter(rm, p, n) == q
        q = apply_phi(rm, q)


def test_apply_phi_iter_inverts():
    rm = default_map()
    p = pt("9/8", "-3/4")
    back = apply_phi_iter(rm, p, -1)
    assert back != p
    assert apply_phi(rm, back) == p
    assert apply_phi_iter(rm, p, 0) == p


@pytest.mark.parametrize("h", [qf("1/4"), QField(-1, 1, 2) / 4], ids=["rational", "sqrt2"])
def test_negative_counts_give_the_inverse_iterate(h):
    rm = default_map()
    level = rm.polygon.level_set(h)
    r = rotation_amount(rm.params, h)
    k = level.base_index
    base = level.vertices[k]
    # a step forward from just before the base vertex wraps past it, and a
    # step back from the base vertex or just after it does too
    before = move(base, level.edges[k - 1].direction, -r / 3)
    after = move(base, level.edges[k].direction, r / 3)
    assert level.point_to_arc(apply_phi(rm, before)) < level.point_to_arc(before)
    for p in (before, base, after):
        for n in (1, 7, 10**6):
            q = apply_phi_iter(rm, p, n)
            assert rm.polygon.distance_to_boundary(q) == h
            assert apply_phi_iter(rm, q, -n) == p
            assert apply_phi_iter(rm, apply_phi_iter(rm, p, -n), n) == p
    assert level.point_to_arc(apply_phi_iter(rm, after, -1)) > level.point_to_arc(after)


def test_apply_phi_iter_period_on_level_quarter():
    rm = default_map()
    p = pt(0, "-3/4")  # F = 1/4, rotation number 1/39
    assert apply_phi_iter(rm, p, 39) == p
    assert apply_phi_iter(rm, p, 13) != p
    assert apply_phi_iter(rm, p, 78) == p


def test_apply_phi_iter_rejects_non_integer():
    rm = default_map()
    for n in (qf("1/2"), 1.0, True):
        with pytest.raises(ValueError, match="iteration count must be an integer"):
            apply_phi_iter(rm, pt(0, "-3/4"), n)


# -- the integer shear pass against the QField rounds it replaced ---------------------


def oracle_shear(shear: StripShear, p: Point) -> Point:
    """The former ``StripShear.apply``, verbatim: a QField excess, then a move."""
    excess = shear.excess(p)
    return move(p, shear.normal.perp(), excess) if excess.sign() >= 0 else p


def oracle_rounds(rounds, p: Point) -> Point:
    """The former ``apply_rounds``: one ``StripShear.apply`` per round."""
    for shear in rounds:
        p = oracle_shear(shear, p)
    return p


def strip_points(rm) -> list[Point]:
    """For each strip, points exactly on its line (excess 0), a point of the
    polygon strictly inside the strip and one just outside it."""
    points = []
    for shear in rm.rounds:
        n, w = shear.normal, shear.normal.perp()
        on_line = move(pt(0, 0), n, shear.offset)  # the four normals are unit vectors
        for t in (0, Fraction(1, 3), -shear.offset / 2):
            base = move(on_line, w, t)
            points += [base, move(base, n, Fraction(1, 16)), move(base, n, Fraction(-1, 16))]
    return points


def shear_cases():
    """20 random maps, each with its level samples below c - eps (rational
    levels and levels with sqrt(2) and sqrt(3) parts), above c + eps, and
    its strip points."""
    rng = random.Random(44)
    cases = []
    for _ in range(20):
        params = random_params(rng)
        rm = build_recurrence_map(build_pi0(params), verify=False)
        poly, c, eps = rm.polygon, params.c, params.eps
        top = poly.max_distance()[0]
        levels = [(c - eps) * Fraction(k, 3) for k in range(3)]
        levels += [(c + eps + top) / 2, (c - eps) / 2 + QField(0, Fraction(1, 500), 2),
                   (c - eps) / 3 + QField(0, Fraction(1, 700), 3)]
        points = [p for h in levels for p in edge_samples(poly.level_set(h), 1)]
        cases.append((rm, points + strip_points(rm)))
    return cases


SHEAR_CASES = shear_cases()


def test_shear_cases_reach_every_side_of_every_strip():
    on_line = inside = outside = irrational = 0
    for rm, points in SHEAR_CASES:
        for p in points:
            signs = {shear.excess(p).sign() for shear in rm.rounds}
            on_line += 0 in signs
            inside += 1 in signs
            outside += signs == {-1}
            irrational += not p.x1.is_rational()
    assert min(on_line, inside, outside, irrational) > 100


def test_shear_pass_matches_the_qfield_rounds():
    for rm, points in SHEAR_CASES:
        for p in points:
            want = oracle_rounds(rm.rounds, p)
            got = apply_rounds(rm, p)
            assert got == want, (rm.params, p)
            # the point itself comes back exactly when no round applies
            assert (got is p) == (want is p), (rm.params, p)
            for shear in rm.rounds:
                want, got = oracle_shear(shear, p), shear.apply(p)
                assert got == want and (got is p) == (want is p), (shear, p)


def test_rows_follow_the_rounds_of_a_replaced_map():
    # the integer rows are built with each map, so a map whose offsets moved
    # shears by its own rounds, not by the rows of the map it was made from
    for rm, _ in SHEAR_CASES[:5]:
        moved = tuple(replace(s, offset=s.offset + Fraction(1, 1000)) for s in rm.rounds)
        other = replace(rm, rounds=moved)
        assert other != rm and repr(other) != repr(rm)
        poly, c, eps = rm.polygon, rm.params.c, rm.params.eps
        points = [p for k in range(3) for p in edge_samples(poly.level_set((c - eps) * k / 3), 1)]
        changed = 0
        for p in points + strip_points(other):
            want = oracle_rounds(moved, p)
            assert apply_rounds(other, p) == want, (rm.params, p)
            changed += want != oracle_rounds(rm.rounds, p)
        assert changed > 10
        again = replace(other, rounds=rm.rounds)
        assert again == rm and hash(again) == hash(rm) and repr(again) == repr(rm)


def test_a_point_of_another_radicand_is_refused_by_the_shear_pass():
    rm = default_map()
    root2, root3 = QField(0, Fraction(1, 100), 2), QField(0, Fraction(1, 100), 3)
    irrational = replace(rm, rounds=tuple(replace(s, offset=s.offset + root2) for s in rm.rounds))
    cases = [
        # sqrt(3) points against strip offsets in sqrt(2)
        (irrational, Point(qf("-7/4") + root3, qf("-1/2"))),
        (irrational, Point(qf("1/3"), qf("-7/8") - root3)),
        (irrational, Point(qf("1/3") + root3, qf("1/5") + root3)),
        # points mixing sqrt(2) and sqrt(3), inside a strip of a rational map
        (rm, Point(qf("-7/4") + root2, qf("-1/2") + root3)),
        (rm, Point(qf("1/3") + root2, qf("-7/8") + root3)),
    ]
    for m, p in cases:
        assert outcome(oracle_rounds, m.rounds, p)[0] == "error"
        with pytest.raises(ValueError, match="mixed radicands"):
            apply_rounds(m, p)
        for shear in m.rounds:
            if outcome(oracle_shear, shear, p)[0] == "error":
                with pytest.raises(ValueError, match="mixed radicands"):
                    shear.apply(p)
