"""Integer homology classes of the one-point blow-up of a product of spheres.

Classes are written in the basis (A, B, E): the two sphere factors and the
exceptional class.  The intersection form is A.B = 1, A.A = B.B = 0,
E.E = -1, with A and B orthogonal to E.  The anticanonical class is
2A + 2B - E, and the symplectic form built from shape parameters
(a, b, c) gives the factors areas a and b and the exceptional sphere
area c.

``find_twist_classes`` enumerates the classes of square -2 on which the
first Chern class vanishes: the classes represented by Lagrangian spheres
whose Dehn twists act on homology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import QField, ScalarLike, qf


@dataclass(frozen=True)
class H2Class:
    """The class alpha*A + beta*B + gamma*E with integer coefficients."""

    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        for coeff in (self.alpha, self.beta, self.gamma):
            if type(coeff) is not int:
                raise ValueError("homology coefficients must be integers")

    def __neg__(self) -> "H2Class":
        return H2Class(-self.alpha, -self.beta, -self.gamma)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)


def intersection(x: H2Class, y: H2Class) -> int:
    """The intersection pairing in the (A, B, E) basis."""
    return x.alpha * y.beta + x.beta * y.alpha - x.gamma * y.gamma


def c1_eval(x: H2Class) -> int:
    """Pairing of the first Chern class 2A + 2B - E with x."""
    return 2 * x.alpha + 2 * x.beta + x.gamma


def omega_eval(x: H2Class, a: ScalarLike, b: ScalarLike, c: ScalarLike) -> QField:
    """Symplectic area of x for shape parameters (a, b, c)."""
    return qf(a) * x.alpha + qf(b) * x.beta + qf(c) * x.gamma


def find_twist_classes(bound: int) -> list[H2Class]:
    """All classes with square -2 and vanishing c1, coefficients in [-bound, bound].

    c1 = 0 forces gamma = -2(alpha + beta), and substituting into x.x = -2
    leaves 2*alpha^2 + 3*alpha*beta + 2*beta^2 = 1.  The form equals
    (alpha^2 + beta^2)/2 + (3/2)(alpha + beta)^2, so every solution has
    |alpha|, |beta| <= 1: the 3x3 box holds them all, and walking it in
    ascending order returns the classes sorted.
    """
    if type(bound) is not int:
        raise ValueError("bound must be an integer")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    box = range(-min(bound, 1), min(bound, 1) + 1)
    classes = (H2Class(alpha, beta, -2 * (alpha + beta)) for alpha in box for beta in box)
    return [x for x in classes if abs(x.gamma) <= bound and intersection(x, x) == -2]


__all__ = ["H2Class", "intersection", "c1_eval", "omega_eval", "find_twist_classes"]
