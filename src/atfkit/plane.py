"""Points, lattice vectors, and unimodular affine maps of the plane.

The plane here is R^2 equipped with the integer lattice Z^2.  Geometry is
measured lattice-style: segment lengths count primitive integer steps, and
the symmetry group is the group of affine maps whose linear part lies in
GL(2, Z).  Exact predicates (orientation, on-segment, segment crossing)
live here too so that every other module can share them.  Each is an
integer pass: it puts its points' coordinates over one common denominator
with ``scalars._over`` and reads exact signs of integer pairs A + B*sqrt(d),
building no ``QField``.  The lattice direction of a segment (``direction_of``)
is an integer pass too, which builds only the length: its rule, ``_direction``,
reads one difference row, and ``Polygon(...)`` calls it on the differences of
its vertex rows.  Points whose coordinates mix two radicands are a
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scalars import QField, ScalarLike, _over, _reduced, _sign, qf


@dataclass(frozen=True)
class Point:
    """A point of the plane with exact QField coordinates."""

    x1: QField
    x2: QField

    def __post_init__(self):
        object.__setattr__(self, "x1", qf(self.x1))
        object.__setattr__(self, "x2", qf(self.x2))

    def __iter__(self):
        return iter((self.x1, self.x2))

    def __str__(self):
        return f"({self.x1}, {self.x2})"


_new = object.__new__
_setattr = object.__setattr__


def _point(x1: QField, x2: QField) -> Point:
    """A ``Point`` from two ``QField`` values a pass has already built.

    It skips the ``qf`` coercion of ``Point.__post_init__``, as
    ``scalars._raw`` skips normalisation, so it accepts ``QField``s only.
    """
    p = _new(Point)
    _setattr(p, "x1", x1)
    _setattr(p, "x2", x2)
    return p


def _row(p: Point, d: int | None) -> tuple[tuple[int, int, int, int, int], int | None]:
    """p as a point row ``(X, Xs, Y, Ys, D)`` for ((X + Xs*sqrt(d))/D,
    (Y + Ys*sqrt(d))/D), over the least common denominator of its
    coordinates, and the radicand: ``d`` merged first, as in ``_over``."""
    D, d, ((X, Xs), (Y, Ys)) = _over(p.x1, p.x2, d=d)
    return (X, Xs, Y, Ys, D), d


def _row_point(row: tuple[int, int, int, int, int], d: int | None) -> Point:
    """The ``Point`` of a point row with D > 0, each coordinate reduced."""
    X, Xs, Y, Ys, D = row
    return _point(_reduced(X, Xs, D, d), _reduced(Y, Ys, D, d))


@dataclass(frozen=True)
class LatticeVector:
    """An integer vector of Z^2."""

    u: int
    v: int

    def __post_init__(self):
        if not (type(self.u) is int and type(self.v) is int):
            raise ValueError("lattice vector entries must be integers")

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(-self.u, -self.v)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.u + other.u, self.v + other.v)

    def __str__(self):
        return f"({self.u}, {self.v})"

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_primitive(self) -> bool:
        return math.gcd(self.u, self.v) == 1

    def perp(self) -> "LatticeVector":
        """Counterclockwise quarter turn (the left-hand normal)."""
        return LatticeVector(-self.v, self.u)


def pt(x1: ScalarLike, x2: ScalarLike) -> Point:
    return Point(qf(x1), qf(x2))


def as_point(value: Point | tuple) -> Point:
    if isinstance(value, Point):
        return value
    x1, x2 = value
    return pt(x1, x2)


def primitive(vec: LatticeVector | tuple[int, int]) -> LatticeVector:
    """The primitive vector on the same ray; errors on the zero vector."""
    if isinstance(vec, tuple):
        vec = LatticeVector(*vec)
    if vec.is_zero():
        raise ValueError("zero vector has no primitive form")
    g = math.gcd(vec.u, vec.v)
    return LatticeVector(vec.u // g, vec.v // g)


def cross(u: LatticeVector, w: LatticeVector) -> int:
    return u.u * w.v - u.v * w.u


def dot(n: LatticeVector, p: Point) -> QField:
    return p.x1 * n.u + p.x2 * n.v


def move(p: Point, direction: LatticeVector, amount: ScalarLike) -> Point:
    """The point ``p + amount * direction``."""
    t = qf(amount)
    return _point(p.x1 + t * direction.u, p.x2 + t * direction.v)


def delta(a: Point, b: Point) -> tuple[QField, QField]:
    return (b.x1 - a.x1, b.x2 - a.x2)


def direction_of(a: Point, b: Point) -> tuple[LatticeVector, QField]:
    """Primitive lattice direction and affine length of the segment a -> b.

    Over one denominator D > 0, ``b - a`` is ((X, Y) + sqrt(d) * (Xs, Ys)) / D
    for integer pairs (X, Y) and (Xs, Ys).  It is a multiple of an integer
    vector exactly when the pairs are parallel, ``X*Ys == Xs*Y``, and the
    direction is then the nonzero pair in lowest terms, signed along b - a.
    A degenerate segment, or one of irrational slope, is a ``ValueError``.
    """
    dx, dy = delta(a, b)
    D, d, ((Y, Ys), (X, Xs)) = _over(dy, dx)
    return _direction(X, Xs, Y, Ys, D, d)


def _direction(X: int, Xs: int, Y: int, Ys: int, D: int, d: int | None) -> tuple[LatticeVector, QField]:
    """The lattice direction rule of ``direction_of`` on one vector row: the
    primitive direction and lattice length of ((X + Xs*sqrt(d)) / D,
    (Y + Ys*sqrt(d)) / D) for D > 0, the same two ``ValueError``s raised.
    ``Polygon(...)`` reads every edge through it from its vertex rows."""
    u, v = (X, Y) if X or Y else (Xs, Ys)
    if not (u or v):
        raise ValueError("degenerate segment has no direction")
    if X * Ys != Xs * Y:
        raise ValueError("segment direction is not rational")
    g = math.gcd(u, v)
    u, v = u // g, v // g
    # the vector is (N + Ns*sqrt(d)) / (D*e) times (u, v), e the first nonzero entry
    e, N, Ns = (u, X, Xs) if u else (v, Y, Ys)
    s = _sign(N, Ns, d)
    if s * e < 0:
        u, v = -u, -v
    return LatticeVector(u, v), _reduced(s * N, s * Ns, D * abs(e), d)


def affine_length(a: Point, b: Point) -> QField:
    """Lattice length: ``b - a`` as a multiple of a primitive vector.

    Returns 0 for a degenerate segment.
    """
    return qf(0) if a == b else direction_of(a, b)[1]


# Over the common denominator D > 0 a point is the row ((X, Xs), (Y, Ys)) for
# ((X + Xs*sqrt(d)) / D, (Y + Ys*sqrt(d)) / D); D > 0 drops out of every sign,
# and d is None only when every Xs and Ys is 0.


def _turn(d: int | None, o: tuple, a: tuple, b: tuple) -> int:
    """``orient`` on rows: the sign of D^2 times (a - o) x (b - o)."""
    (ox, oxs), (oy, oys) = o
    (ax, axs), (ay, ays) = a
    (bx, bxs), (by, bys) = b
    ux, uxs, uy, uys = ax - ox, axs - oxs, ay - oy, ays - oys
    wx, wxs, wy, wys = bx - ox, bxs - oxs, by - oy, bys - oys
    return _sign(
        ux * wy - uy * wx + (uxs * wys - uys * wxs) * (d or 0),
        ux * wys + uxs * wy - uy * wxs - uys * wx,
        d,
    )


def _between(d: int | None, p: tuple, a: tuple, b: tuple) -> bool:
    """Each coordinate of row p lies between those of rows a and b, i.e.
    p - a and p - b never share a strict sign."""
    for (x, xs), (ax, axs), (bx, bxs) in zip(p, a, b):
        if _sign(x - ax, xs - axs, d) * _sign(x - bx, xs - bxs, d) > 0:
            return False
    return True


def orient(o: Point, a: Point, b: Point) -> int:
    """Sign of the turn o -> a -> b: +1 left, -1 right, 0 collinear."""
    _, d, (ox, oy, ax, ay, bx, by) = _over(o.x1, o.x2, a.x1, a.x2, b.x1, b.x2)
    return _turn(d, (ox, oy), (ax, ay), (bx, by))


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True when p lies on the closed segment [a, b]."""
    _, d, (px, py, ax, ay, bx, by) = _over(p.x1, p.x2, a.x1, a.x2, b.x1, b.x2)
    rp, ra, rb = (px, py), (ax, ay), (bx, by)
    return _turn(d, ra, rb, rp) == 0 and _between(d, rp, ra, rb)


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when the closed segments [a,b] and [c,d] share any point."""
    _, rad, (ax, ay, bx, by, cx, cy, dx, dy) = _over(
        a.x1, a.x2, b.x1, b.x2, c.x1, c.x2, d.x1, d.x2
    )
    ra, rb, rc, rd = (ax, ay), (bx, by), (cx, cy), (dx, dy)
    o1 = _turn(rad, ra, rb, rc)
    o2 = _turn(rad, ra, rb, rd)
    o3 = _turn(rad, rc, rd, ra)
    o4 = _turn(rad, rc, rd, rb)
    if o1 != o2 and o3 != o4:
        return True
    # a zero turn puts that endpoint on the other segment's line
    return (
        (o1 == 0 and _between(rad, rc, ra, rb))
        or (o2 == 0 and _between(rad, rd, ra, rb))
        or (o3 == 0 and _between(rad, ra, rc, rd))
        or (o4 == 0 and _between(rad, rb, rc, rd))
    )


@dataclass(frozen=True)
class UnimodularAffineMap:
    """An affine map x -> M x + t with M integer and det M = +-1.

    Composition follows application order: ``f.compose(g)`` applied to x
    equals ``f(g(x))``.
    """

    m11: int
    m12: int
    m21: int
    m22: int
    t1: QField
    t2: QField

    def __post_init__(self):
        for entry in (self.m11, self.m12, self.m21, self.m22):
            if type(entry) is not int:
                raise ValueError("linear part must have integer entries")
        if self.det not in (1, -1):
            raise ValueError(f"determinant must be +-1, got {self.det}")
        object.__setattr__(self, "t1", qf(self.t1))
        object.__setattr__(self, "t2", qf(self.t2))

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def trace(self) -> int:
        return self.m11 + self.m22

    @classmethod
    def identity(cls) -> "UnimodularAffineMap":
        return cls(1, 0, 0, 1, qf(0), qf(0))

    @classmethod
    def translation(cls, t1: ScalarLike, t2: ScalarLike) -> "UnimodularAffineMap":
        return cls(1, 0, 0, 1, qf(t1), qf(t2))

    @classmethod
    def linear(cls, m11: int, m12: int, m21: int, m22: int) -> "UnimodularAffineMap":
        return cls(m11, m12, m21, m22, qf(0), qf(0))

    def apply(self, p: Point) -> Point:
        return Point(
            p.x1 * self.m11 + p.x2 * self.m12 + self.t1,
            p.x1 * self.m21 + p.x2 * self.m22 + self.t2,
        )

    def apply_vector(self, w: LatticeVector) -> LatticeVector:
        return LatticeVector(
            self.m11 * w.u + self.m12 * w.v,
            self.m21 * w.u + self.m22 * w.v,
        )

    def compose(self, other: "UnimodularAffineMap") -> "UnimodularAffineMap":
        """The map ``x -> self(other(x))``."""
        o = other
        return UnimodularAffineMap(
            self.m11 * o.m11 + self.m12 * o.m21,
            self.m11 * o.m12 + self.m12 * o.m22,
            self.m21 * o.m11 + self.m22 * o.m21,
            self.m21 * o.m12 + self.m22 * o.m22,
            self.m11 * o.t1 + self.m12 * o.t2 + self.t1,
            self.m21 * o.t1 + self.m22 * o.t2 + self.t2,
        )

    def inverse(self) -> "UnimodularAffineMap":
        d = self.det
        n11, n12, n21, n22 = d * self.m22, -d * self.m12, -d * self.m21, d * self.m11
        return UnimodularAffineMap(
            n11,
            n12,
            n21,
            n22,
            -(self.t1 * n11 + self.t2 * n12),
            -(self.t1 * n21 + self.t2 * n22),
        )


def unipotent_fixing(
    direction: LatticeVector, k: int = 1, base: Point | None = None
) -> UnimodularAffineMap:
    """The shear ``x -> x + k * <l, x - base> * direction`` fixing a line.

    ``direction`` must be primitive; ``l`` is its left-hand normal, so the
    fixed line is ``base + span(direction)`` (through the origin when no
    base point is given).  The linear part is unipotent: det 1, trace 2.
    """
    if not direction.is_primitive():
        raise ValueError(f"direction {direction} is not primitive")
    u, v = direction.u, direction.v
    linear = UnimodularAffineMap.linear(1 - k * u * v, k * u * u, -k * v * v, 1 + k * u * v)
    if base is None:
        return linear
    mb = linear.apply(base)
    shift = UnimodularAffineMap.translation(base.x1 - mb.x1, base.x2 - mb.x2)
    return shift.compose(linear)


def lex_less(a: Point, b: Point) -> bool:
    """Lexicographic order on (x1, x2).  A polygon's arc origin, its
    lexicographically smallest vertex, comes from its winding scan instead."""
    if a.x1 != b.x1:
        return a.x1 < b.x1
    return a.x2 < b.x2


__all__ = [
    "Point",
    "LatticeVector",
    "UnimodularAffineMap",
    "pt",
    "as_point",
    "primitive",
    "cross",
    "dot",
    "move",
    "delta",
    "direction_of",
    "affine_length",
    "orient",
    "on_segment",
    "segments_intersect",
    "unipotent_fixing",
    "lex_less",
]
