"""The intersection form on the blown-up product and the twist classes."""

import math
import random

import pytest

from atfkit.homology import H2Class, c1_eval, find_twist_classes, intersection, omega_eval
from atfkit.scalars import qf

A = H2Class(1, 0, 0)
B = H2Class(0, 1, 0)
E = H2Class(0, 0, 1)


def brute_force_classes(bound: int) -> list[tuple[int, int, int]]:
    """Direct search of the coefficient cube, independent of the solver."""
    hits = []
    for alpha in range(-bound, bound + 1):
        for beta in range(-bound, bound + 1):
            for gamma in range(-bound, bound + 1):
                square = 2 * alpha * beta - gamma * gamma
                chern = 2 * alpha + 2 * beta + gamma
                if square == -2 and chern == 0:
                    hits.append((alpha, beta, gamma))
    return sorted(hits)


def discriminant_twist_classes(bound: int) -> list[H2Class]:
    """``find_twist_classes`` as it was before the 3x3 box: beta from the
    discriminant of the form in beta, for each |alpha| <= 1."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    found: list[H2Class] = []
    reach = min(bound, 1)
    for alpha in range(-reach, reach + 1):
        disc = 8 - 7 * alpha * alpha
        if disc < 0:
            continue
        root = math.isqrt(disc)
        if root * root != disc:
            continue
        for signed in ({root, -root} if root else {0}):
            num = -3 * alpha + signed
            if num % 4 != 0:
                continue
            beta = num // 4
            gamma = -2 * (alpha + beta)
            cls = H2Class(alpha, beta, gamma)
            if max(abs(beta), abs(gamma)) > bound:
                continue
            if intersection(cls, cls) == -2 and c1_eval(cls) == 0:
                found.append(cls)
    found.sort(key=H2Class.as_tuple)
    return found


# -- the form -------------------------------------------------------------------


def test_basis_pairings():
    assert intersection(A, B) == 1
    assert intersection(A, A) == 0
    assert intersection(B, B) == 0
    assert intersection(E, E) == -1
    assert intersection(A, E) == 0
    assert intersection(B, E) == 0


def test_intersection_is_symmetric_and_bilinear():
    rng = random.Random(61)
    for _ in range(40):
        x = H2Class(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        y = H2Class(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        z = H2Class(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        assert intersection(x, y) == intersection(y, x)
        x_plus_y = H2Class(x.alpha + y.alpha, x.beta + y.beta, x.gamma + y.gamma)
        assert intersection(x_plus_y, z) == intersection(x, z) + intersection(y, z)


def test_chern_pairings():
    assert c1_eval(A) == 2
    assert c1_eval(B) == 2
    assert c1_eval(E) == 1
    # c1 pairs with x like the class 2A + 2B - E does
    anticanonical = H2Class(2, 2, -1)
    rng = random.Random(62)
    for _ in range(20):
        x = H2Class(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        assert c1_eval(x) == intersection(anticanonical, x)


def test_exceptional_class_is_rigid():
    assert intersection(E, E) == -1 and c1_eval(E) == 1


def test_omega_areas():
    assert omega_eval(A, 4, 2, qf("1/2")) == 4
    assert omega_eval(B, 4, 2, qf("1/2")) == 2
    assert omega_eval(E, 4, 2, qf("1/2")) == qf("1/2")
    combined = H2Class(1, 1, -1)
    assert omega_eval(combined, 4, 2, qf("1/2")) == qf("11/2")


def test_class_validation():
    with pytest.raises(ValueError):
        H2Class(1.0, 0, 0)
    with pytest.raises(ValueError):
        H2Class(True, False, 0)
    assert (-H2Class(1, -2, 3)).as_tuple() == (-1, 2, -3)


# -- twist class enumeration -------------------------------------------------------


def test_twist_classes_are_the_antidiagonal_pair():
    classes = find_twist_classes(50)
    assert [cls.as_tuple() for cls in classes] == [(-1, 1, 0), (1, -1, 0)]
    for cls in classes:
        assert intersection(cls, cls) == -2
        assert c1_eval(cls) == 0


@pytest.mark.parametrize("bound", [1, 3, 12, 25])
def test_twist_classes_match_brute_force(bound):
    closed_form = [cls.as_tuple() for cls in find_twist_classes(bound)]
    assert closed_form == brute_force_classes(bound)


def test_twist_classes_match_the_discriminant_solver():
    for bound in [*range(61), 10**18]:
        assert find_twist_classes(bound) == discriminant_twist_classes(bound), bound


def test_twist_classes_empty_bound():
    assert find_twist_classes(0) == []
    with pytest.raises(ValueError):
        find_twist_classes(-1)
    for bound in (2.5, 50.0, True):
        with pytest.raises(ValueError, match="bound must be an integer"):
            find_twist_classes(bound)


def test_twist_class_areas():
    plus, minus = H2Class(1, -1, 0), H2Class(-1, 1, 0)
    assert omega_eval(plus, 4, 2, qf("1/2")) == 2  # a - b
    assert omega_eval(minus, 4, 2, qf("1/2")) == -2
    assert omega_eval(plus, 3, 3, 1) == 0  # vanishes exactly when a = b
    assert omega_eval(plus, qf("7/2"), 2, 1) == qf("3/2")
