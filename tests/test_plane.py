"""Lattice vectors, exact predicates, and unimodular affine maps."""

import random
from fractions import Fraction

import pytest

from atfkit.plane import (
    LatticeVector,
    Point,
    UnimodularAffineMap,
    affine_length,
    cross,
    delta,
    direction_of,
    dot,
    lex_less,
    move,
    on_segment,
    orient,
    primitive,
    pt,
    segments_intersect,
    unipotent_fixing,
)
from atfkit.scalars import QField, qf
from atfkit.verify import random_unimodular


def random_point(rng: random.Random) -> Point:
    return pt(Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))


def random_primitive(rng: random.Random) -> LatticeVector:
    while True:
        v = LatticeVector(rng.randint(-6, 6), rng.randint(-6, 6))
        if not v.is_zero():
            return primitive(v)


# -- vectors and points -------------------------------------------------------


def test_point_coerces_coordinates():
    p = Point(Fraction(1, 2), "3/4")
    assert isinstance(p.x1, QField) and isinstance(p.x2, QField)
    assert tuple(p) == (qf("1/2"), qf("3/4"))


def test_lattice_vector_validation():
    with pytest.raises(ValueError):
        LatticeVector(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        LatticeVector(1.0, 0)


def test_perp_turns_left():
    rng = random.Random(11)
    assert LatticeVector(1, 0).perp() == LatticeVector(0, 1)
    assert LatticeVector(0, 1).perp() == LatticeVector(-1, 0)
    for _ in range(30):
        v = LatticeVector(rng.randint(-9, 9), rng.randint(-9, 9))
        if v.is_zero():
            continue
        assert cross(v, v.perp()) > 0
        assert v.perp().perp() == -v


def test_primitive():
    assert primitive(LatticeVector(4, 6)) == LatticeVector(2, 3)
    assert primitive((-4, -6)) == LatticeVector(-2, -3)
    assert primitive((0, -5)) == LatticeVector(0, -1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_direction_of_frozen_cases():
    assert direction_of(pt(0, 0), pt(4, 6)) == (LatticeVector(2, 3), qf(2))
    assert direction_of(pt(1, 1), pt(1, -2)) == (LatticeVector(0, -1), qf(3))
    assert direction_of(pt("1/2", 0), pt("7/2", 0)) == (LatticeVector(1, 0), qf(3))
    root2 = QField.sqrt(2)
    # irrational offset along a rational direction is fine
    w, length = direction_of(pt(0, 0), Point(root2, root2))
    assert w == LatticeVector(1, 1) and length == root2


def test_direction_of_rejects_bad_segments():
    with pytest.raises(ValueError):
        direction_of(pt(1, 2), pt(1, 2))
    with pytest.raises(ValueError):
        direction_of(pt(0, 0), Point(qf(1), QField.sqrt(2)))


def test_affine_length():
    assert affine_length(pt(0, 0), pt(3, 0)) == 3
    assert affine_length(pt(0, 0), pt(2, 2)) == 2
    assert affine_length(pt(1, 1), pt(1, 1)) == 0
    assert affine_length(pt(0, 0), pt("1/2", "3/2")) == qf("1/2")


def test_affine_length_is_unimodular_invariant():
    rng = random.Random(12)
    for _ in range(40):
        a, b = random_point(rng), random_point(rng)
        m = random_unimodular(rng, det=rng.choice([1, -1]))
        assert affine_length(m.apply(a), m.apply(b)) == affine_length(a, b)


# -- predicates ---------------------------------------------------------------


def test_orient():
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient(pt(0, 0), pt(0, 1), pt(1, 0)) == -1
    assert orient(pt(0, 0), pt(1, 1), pt(2, 2)) == 0


def test_on_segment():
    a, b = pt(0, 0), pt(4, 2)
    assert on_segment(pt(2, 1), a, b)
    assert on_segment(a, a, b)
    assert on_segment(b, a, b)
    assert not on_segment(pt(6, 3), a, b)  # collinear but beyond
    assert not on_segment(pt(2, 2), a, b)


@pytest.mark.parametrize(
    "segs, expected",
    [
        (((0, 0), (2, 2), (0, 2), (2, 0)), True),  # proper crossing
        (((0, 0), (2, 0), (2, 0), (2, 2)), True),  # shared endpoint
        (((0, 0), (2, 0), (1, 0), (3, 0)), True),  # collinear overlap
        (((0, 0), (1, 0), (2, 0), (3, 0)), False),  # collinear disjoint
        (((0, 0), (2, 0), (0, 1), (2, 1)), False),  # parallel
        (((0, 0), (2, 0), (1, 0), (1, 2)), True),  # T-junction
        (((0, 0), (2, 0), (1, 1), (1, 2)), False),
    ],
)
def test_segments_intersect(segs, expected):
    a, b, c, d = (pt(*s) for s in segs)
    assert segments_intersect(a, b, c, d) is expected
    assert segments_intersect(c, d, a, b) is expected


# -- affine maps --------------------------------------------------------------


def test_map_validation():
    with pytest.raises(ValueError):
        UnimodularAffineMap(1, 1, 1, 1, qf(0), qf(0))  # det 0
    with pytest.raises(ValueError):
        UnimodularAffineMap(2, 0, 0, 1, qf(0), qf(0))  # det 2
    with pytest.raises(ValueError):
        UnimodularAffineMap(Fraction(1), 0, 0, 1, qf(0), qf(0))


def test_map_translation_coerces():
    m = UnimodularAffineMap(1, 0, 0, 1, Fraction(1, 2), "1/3")
    assert m.apply(pt(0, 0)) == pt("1/2", "1/3")


def test_compose_follows_application_order():
    rng = random.Random(13)
    for _ in range(40):
        f, g = random_unimodular(rng), random_unimodular(rng)
        p = random_point(rng)
        assert f.compose(g).apply(p) == f.apply(g.apply(p))


def test_inverse():
    rng = random.Random(14)
    identity = UnimodularAffineMap.identity()
    for _ in range(40):
        m = random_unimodular(rng, det=rng.choice([1, -1]))
        assert m.compose(m.inverse()) == identity
        assert m.inverse().compose(m) == identity


def test_apply_vector_is_the_linear_part():
    rng = random.Random(15)
    for _ in range(20):
        m = random_unimodular(rng)
        v = LatticeVector(rng.randint(-5, 5), rng.randint(-5, 5))
        p = random_point(rng)
        q = Point(p.x1 + v.u, p.x2 + v.v)
        w = m.apply_vector(v)
        assert delta(m.apply(p), m.apply(q)) == (qf(w.u), qf(w.v))


def test_det_and_trace():
    assert UnimodularAffineMap.linear(0, 1, 1, 0).det == -1
    assert UnimodularAffineMap.linear(1, 5, 0, 1).trace == 2
    assert UnimodularAffineMap.identity().det == 1


# -- unipotent shears ---------------------------------------------------------


def test_unipotent_frozen_matrices():
    horizontal = unipotent_fixing(LatticeVector(1, 0))
    assert (horizontal.m11, horizontal.m12, horizontal.m21, horizontal.m22) == (1, 1, 0, 1)
    diagonal = unipotent_fixing(LatticeVector(1, 1))
    assert (diagonal.m11, diagonal.m12, diagonal.m21, diagonal.m22) == (0, 1, -1, 2)


def test_unipotent_fixes_its_line():
    rng = random.Random(16)
    for _ in range(50):
        w = random_primitive(rng)
        k = rng.choice([-2, -1, 1, 2])
        base = random_point(rng)
        m = unipotent_fixing(w, k, base=base)
        assert m.det == 1 and m.trace == 2
        assert m.apply(base) == base
        along = move(base, w, Fraction(rng.randint(-9, 9), 4))
        assert m.apply(along) == along
        off = Point(base.x1 - w.v, base.x2 + w.u)  # base + perp(w)
        moved = m.apply(off)
        height = w.u * w.u + w.v * w.v  # <perp(w), off - base>
        assert delta(off, moved) == (qf(k * height * w.u), qf(k * height * w.v))


def test_unipotent_requires_primitive_direction():
    with pytest.raises(ValueError):
        unipotent_fixing(LatticeVector(2, 4))


def test_dot_and_move():
    assert dot(LatticeVector(2, -1), pt("1/2", 3)) == -2
    assert move(pt(1, 1), LatticeVector(1, 2), qf("1/2")) == pt("3/2", 2)


def test_lex_less():
    assert lex_less(pt(0, 5), pt(1, 0))
    assert lex_less(pt(1, 0), pt(1, 1))
    assert not lex_less(pt(1, 1), pt(1, 1))
