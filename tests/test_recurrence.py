"""Strip shears, the four-round composite, and the smoothed step."""

import copy
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import edge_samples

from atfkit.diagram import BaseDiagram, build_pi0
from atfkit.plane import LatticeVector, Point, pt
from atfkit.polygon import ConstructionParams, build_blowup_polygon, centered_rectangle
from atfkit.recurrence import (
    StripShear,
    VerificationError,
    apply_phi,
    apply_phi_iter,
    apply_rounds,
    build_recurrence_map,
    rotate_on_level,
    rotation_amount,
)
from atfkit.scalars import qf
from atfkit.verify import random_params


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


# -- building and verifying the map ---------------------------------------------------


def test_build_checks_the_polygon():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    other = ConstructionParams(6, 2, qf("1/2"), qf("1/8"))
    diagram = build_pi0(params)
    with pytest.raises(ValueError):
        build_recurrence_map(diagram, params=other)


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
    assert rm.target_diagram.same_geometry(rm.source_diagram)
    assert rm.target_diagram.provenance[-1] == ("recurrence_loop",)
    assert len(rm.rounds) == 4


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


def test_verification_rejects_tampered_rounds():
    rm = default_map()
    crooked = replace(
        rm, rounds=(rm.rounds[0], rm.rounds[0], rm.rounds[2], rm.rounds[3])
    )
    from atfkit.recurrence import _verify_rounds

    with pytest.raises(VerificationError):
        _verify_rounds(crooked)


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


def test_apply_phi_iter_period_on_level_quarter():
    rm = default_map()
    p = pt(0, "-3/4")  # F = 1/4, rotation number 1/39
    assert apply_phi_iter(rm, p, 39) == p
    assert apply_phi_iter(rm, p, 13) != p
    assert apply_phi_iter(rm, p, 78) == p


def test_apply_phi_iter_rejects_non_integer():
    rm = default_map()
    with pytest.raises(ValueError):
        apply_phi_iter(rm, pt(0, "-3/4"), qf("1/2"))
