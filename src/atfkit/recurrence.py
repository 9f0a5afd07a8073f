"""The four-round strip-shear recurrence map of the chopped rectangle.

Each round is a :class:`StripShear`: an integral affine map supported on a
half-plane strip hugging one side of the polygon, equal to the identity on
the strip's boundary line.  Applied in order (bottom, left, top, right),
the four rounds compose to an exact counterclockwise rotation in boundary
arc length on every level polygon {F = h} with h <= c: the level-h polygon
advances by arc c - h, while every level with h >= c is left pointwise
fixed.  ``build_recurrence_map`` certifies this rotation property on a
sample grid before handing the map out, and a failed check raises a
``VerificationError`` that names the level, the point and both images.
The grid runs on integer point rows: its samples are the corners of each
level, which ``Polygon._corners(h)`` reads from the edge-death schedule
with the alive edges and the radicand, all over one denominator D, and
the midpoints between them, row sums over 2*D; both images of a sample
are rows, compared by cross-multiplying, and ``Point``s are built only to
report a failure.
A ``RecurrenceMap`` holds only its rounds and its source diagram: it reads
its parameters and polygon from that diagram.

The rounds are one integer pass, ``_shear_rows``, over strip rows in the
polygon's edge-row format, built once per ``RecurrenceMap``
(``StripShear.apply`` builds its one row per call).  Each round's excess
is an integer pair with one exact sign test.  ``apply_rounds`` and
``StripShear.apply`` put the point on a row and reduce the image to
``QField`` coordinates once, after the last round.

``apply_phi`` is the smoothed version used for orbit analysis: full
advance c - h up to level c - eps, a linear taper across the band
(c - eps, c + eps), and the identity above.

Every level rotation (``apply_phi``, ``apply_phi_iter``,
``rotate_on_level`` and the expected images of the self-check) is the
polygon's one advance pass, which also serves ``arc_to_point`` and the
level coordinates of ``atfkit.orbits``: the edge-value pass
(``Polygon._locate``) that finds p's level h also gives its edge and its
point row, and the polygon moves that row along level h as it reads it
from its edge-death schedule, once per level.  The smoothed step is one
integer row pass: one ``_over`` puts p over P, the level F(p) is the
smallest edge value over P*L, reduced to a ``QField`` by one gcd as the
key of the level read, the advance r(h)*n is an integer quadruple
(``_advance_of``, reading c and eps from the shape's cached
``ConstructionParams._rotation_rows``), the same point row goes through
``Polygon._arc_pair`` and ``Polygon._arc_point`` by the level h, and one
``Point`` is built at the end.  ``rotation_amount`` is ``_advance_of``
reduced, so the taper has one rule.  The self-check runs the same integer
steps on its sample rows.  No rotation builds a level polygon, and this
module reads no arc rows and no level read of the polygon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import BaseDiagram
from .plane import LatticeVector, Point, UnimodularAffineMap, _row, _row_point, dot
from .polygon import ConstructionParams, Polygon, _blowup_corners, _line_rows
from .scalars import QField, ScalarLike, _divide, _merge_radicand, _reduced, _sign, qf


class VerificationError(ValueError):
    """Raised when a constructed map or an orbit certificate fails its self-check.

    Besides the message, the error carries what failed, each ``None`` when
    the check has no such value: the ``level`` h, the sample ``point``, the
    point the map sent it to (``got``) and the point it should have gone
    to (``expected``).
    """

    def __init__(
        self,
        message: str,
        *,
        level: QField | None = None,
        point: Point | None = None,
        got: Point | None = None,
        expected: Point | None = None,
    ):
        super().__init__(message)
        self.level = level
        self.point = point
        self.got = got
        self.expected = expected


@dataclass(frozen=True)
class StripShear:
    """An affine shear supported on the closed half-plane <n, x> >= offset.

    Inside the region the map is ``x -> x + (<n, x> - offset) * n_perp``
    with ``n_perp`` the counterclockwise quarter turn of ``n``; outside it
    is the identity.  The two halves agree on the boundary line, and the
    linear part is unipotent (det 1, trace 2) fixing the line direction.
    """

    normal: LatticeVector
    offset: QField

    def __post_init__(self):
        if not self.normal.is_primitive():
            raise ValueError("strip normal must be primitive")
        object.__setattr__(self, "offset", qf(self.offset))

    @property
    def shear_map(self) -> UnimodularAffineMap:
        """The affine map that ``apply`` agrees with inside the strip."""
        n, w = self.normal, self.normal.perp()
        return UnimodularAffineMap(
            1 + w.u * n.u,
            w.u * n.v,
            w.v * n.u,
            1 + w.v * n.v,
            -self.offset * w.u,
            -self.offset * w.v,
        )

    def excess(self, p: Point) -> QField:
        return dot(self.normal, p) - self.offset

    def apply(self, p: Point) -> Point:
        return _shear_pass(_line_rows((self,)), p)


@dataclass(frozen=True)
class RecurrenceMap:
    """Four strip-shear rounds on the polygon of their source diagram; the
    rows of the rounds are built with the map and take no part in ==, repr
    or hash."""

    rounds: tuple[StripShear, StripShear, StripShear, StripShear]
    source_diagram: BaseDiagram
    _strips: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_strips", _line_rows(self.rounds))

    @property
    def params(self) -> ConstructionParams:
        return self.source_diagram.params

    @property
    def polygon(self) -> Polygon:
        return self.source_diagram.polygon


def rotate_on_level(poly: Polygon, h: ScalarLike, t: ScalarLike, p: Point) -> Point:
    """Advance p by arc length t counterclockwise along its level polygon.

    Requires p to lie exactly on the level set {F = h}.
    """
    h = qf(h)
    F, i, row, d = poly._inside(p)
    if F != h:
        raise ValueError(f"point ({p.x1}, {p.x2}) is not on level {h}")
    t = qf(t)
    if not t:
        return p
    return _row_point(*poly._arc_point(h, poly._arc_pair(h, i, row, d), t._v))


def rotation_amount(params: ConstructionParams, h: ScalarLike) -> QField:
    """The smoothed advance r(h): c - h up to c - eps, 0 from c + eps on.

    Across the band (c - eps, c + eps) the full advance is scaled by the
    linear ramp ((c + eps) - h) / (2 eps), which falls from 1 to 0.  This
    is ``_advance_of`` on h's integers, reduced to a ``QField``.
    """
    h = qf(h)
    if h.sign() < 0:
        raise ValueError("level must be nonnegative")
    return _reduced(*_advance_of(params._rotation_rows, h))


def _advance_of(shape: tuple, h: QField) -> tuple[int, int, int, int | None]:
    """The smoothed advance r(h) as an integer quadruple ``(A, B, D, d)`` for
    (A + B*sqrt(d)) / D with D > 0 and d None when B is 0, not in lowest
    terms.  ``shape`` is the shape's ``ConstructionParams._rotation_rows``,
    whose c and eps are read here, over its one denominator E.

    With h = (a + b*sqrt(d)) / N in normal form, c - h is a pair over
    M = E*N, and two sign tests against eps over M pick the case.  The taper
    (c - h)(c - h + eps) / (2 eps) is the row (c - h)(c - h + eps) over M^2
    divided by eps over E, one ``scalars._divide``, which leaves the
    denominator 2*M*N*Q for Q > 0, the norm of eps or eps itself when it
    is rational.  Of the four values h, c, c - h and eps, only h can carry
    a radicand other than that of c and eps, and ``QField`` arithmetic
    meets them first in c - h or in its comparison with eps, so that pair
    is refused first, h's named first: an irrational h meets the shape's
    radicand only where c or eps is irrational.
    ``rotation_amount`` reduces the quadruple; ``apply_phi_iter`` multiplies
    it by n and hands it to ``Polygon._arc_point``.
    """
    (E, de, (_, (Ca, Cb), _, (Ea, Eb))), (a, b, N, d) = shape, h._v
    d = _merge_radicand(d, de if Cb or Eb else None) if b else de
    Ga, Gb, M, ea, eb = Ca * N - a * E, Cb * N - b * E, E * N, Ea * N, Eb * N
    if _sign(Ga - ea, Gb - eb, d) >= 0:  # full advance c - h
        return Ga, Gb, M, d if Gb else None
    if _sign(-Ga - ea, -Gb - eb, d) >= 0:  # identity from c + eps on
        return 0, 0, 1, None
    # (c - h)(c - h + eps) over M^2
    Ka, Kb = Ga * (Ga + ea) + Gb * (Gb + eb) * (d or 0), Ga * (Gb + eb) + Gb * (Ga + ea)
    A, B, Q = _divide(Ka, Kb, Ea, Eb, d)
    return A, B, 2 * M * N * Q, d if B else None


def build_recurrence_map(source: BaseDiagram, verify: bool = True) -> RecurrenceMap:
    """Assemble the four rounds for a diagram built by ``build_pi0``.

    The construction parameters are the diagram's own; for others, pass
    ``replace(source, params=...)``.  With ``verify`` on (the default), the
    composite is checked against the pure arc rotation on a grid of levels,
    and checked to fix a grid of points above level c; any mismatch raises
    VerificationError with the offending point.  The grid reads the corners
    of each level from the polygon's one read of that level, and the
    midpoints between them, as integer point rows, and builds ``Point``s
    only to report a failure.
    """
    params = source.params
    if params is None:
        raise ValueError("recurrence map needs construction parameters")
    poly = source.polygon
    if poly.vertices != _blowup_corners(params.a, params.b, params.c):
        raise ValueError("source diagram polygon does not match the parameters")
    a, b, c = params.a, params.b, params.c
    if not any(
        node.eigen_dir == LatticeVector(0, 1)
        and poly.distance_to_boundary(node.position) == c
        for node in source.nodes
    ):
        raise ValueError("source diagram lacks a node on the distance-c level")
    rounds = (
        StripShear(LatticeVector(0, -1), b / 2 - c),
        StripShear(LatticeVector(-1, 0), a / 2 - c),
        StripShear(LatticeVector(0, 1), b / 2 - c),
        StripShear(LatticeVector(1, 0), a / 2 - c),
    )
    rm = RecurrenceMap(rounds=rounds, source_diagram=source)
    if verify:
        _verify_rounds(rm)
    return rm


def apply_rounds(rm: RecurrenceMap, p: Point) -> Point:
    """One pass of all four strip shears, in stored order."""
    return _shear_pass(rm._strips, p)


def _shear_pass(strips: tuple, p: Point) -> Point:
    """Apply the strip shears in order to a ``Point``: ``_shear_rows`` on its
    point row, reduced once at the end; p itself comes back when no round
    applies.  A point whose radicand differs from the offsets' is a
    ``ValueError``."""
    row, d = _row(p, strips[2])
    moved = _shear_rows(strips, row, d)
    return p if moved is None else _row_point(moved, d)


def _shear_rows(strips: tuple, row: tuple, d: int | None) -> tuple | None:
    """Apply the strip shears in order as one integer pass on a point row.

    ``strips`` is ``polygon._line_rows`` of the shears, offsets over L, and
    ``row`` a point row (X1, Y1, X2, Y2, P) for ((X1 + Y1*sqrt(d))/P,
    (X2 + Y2*sqrt(d))/P), d merged with the offsets' radicand.  Each round's
    excess <n, x> - offset is an integer pair (a, b) over P*L with one exact
    sign test, and a shear adds a multiple of that pair to the point.  The
    image comes back as a point row over P*L, or None when no round applies.
    """
    rows, L, _ = strips
    X1, Y1, X2, Y2, P = row
    X1, Y1, X2, Y2 = X1 * L, Y1 * L, X2 * L, Y2 * L
    moved = False
    for u, v, A, B in rows:
        a = u * X1 + v * X2 - A * P
        b = u * Y1 + v * Y2 - B * P
        if _sign(a, b, d) >= 0:
            # x -> x + excess * (-v, u), the quarter turn of the normal
            X1, Y1, X2, Y2 = X1 - v * a, Y1 - v * b, X2 + u * a, Y2 + u * b
            moved = True
    return (X1, Y1, X2, Y2, P * L) if moved else None


def _verify_rounds(rm: RecurrenceMap) -> None:
    poly, c, eps = rm.polygon, rm.params.c, rm.params.eps
    strips, top = rm._strips, poly.max_distance()[0]
    # levels below the taper advance by c - h; the two above it stay fixed
    checks = [(h, c - h) for h in ((c - eps) * k / 4 for k in range(4))]
    checks += [(h, 0) for h in (c + eps, (c + eps + top) / 2)]
    for h, advance in checks:
        alive, corners, d = poly._corners(h)
        n = len(corners)
        # sample j is corner j or the midpoint of corners j - n and j - n + 1,
        # so it lies on alive edge j mod n; the corners share one D
        samples = corners + [
            (X + Z, Xs + Zs, Y + W, Ys + Ws, 2 * D)
            for (X, Xs, Y, Ys, D), (Z, Zs, W, Ws, _) in zip(corners, corners[1:] + corners[:1])
        ]
        for j, row in enumerate(samples):
            ds = d if row[1] or row[3] else None  # the radicand of the sample's Point
            if advance:
                expected, de = poly._arc_point(h, poly._arc_pair(h, alive[j % n], row, d), advance._v)
            else:
                expected, de = row, ds
            dg = _merge_radicand(strips[2], ds)
            got = _shear_rows(strips, row, dg) or row
            if _same(got, dg, expected, de):
                continue
            pt, got, expected = _row_point(row, ds), _row_point(got, dg), _row_point(expected, de)
            image = f"({pt.x1}, {pt.x2}) -> ({got.x1}, {got.x2})"
            message = (
                f"round composite missed the arc rotation at level {h}: {image}, "
                f"expected ({expected.x1}, {expected.x2})"
                if advance
                else f"round composite moved a point on level {h}: {image}"
            )
            raise VerificationError(message, level=h, point=pt, got=got, expected=expected)


def _same(r: tuple, dr: int | None, s: tuple, ds: int | None) -> bool:
    """Whether two point rows are the same point, by cross-multiplying each
    pair of integers; rows of two radicands agree only where both are
    rational."""
    X, Xs, Y, Ys, D = r
    Z, Zs, W, Ws, E = s
    return (X * E == Z * D and Y * E == W * D and Xs * E == Zs * D and Ys * E == Ws * D
            and (dr == ds or not (Xs or Ys)))


def apply_phi(rm: RecurrenceMap, p: Point) -> Point:
    """The smoothed recurrence step at p's own level."""
    return apply_phi_iter(rm, p, 1)


def apply_phi_iter(rm: RecurrenceMap, p: Point, n: int) -> Point:
    """The n-th smoothed iterate, computed in one exact arc step.

    Levels are preserved, so n steps of arc advance r(h) amount to a
    single advance by n * r(h); this matches iterating ``apply_phi``
    exactly while costing one rotation.  Any integer n is accepted: n = 0
    gives p and n < 0 the inverse iterate, a clockwise advance by |n| * r(h).

    One integer row pass: p's point row and its level F(p) come from the
    polygon's edge-value pass, n * r(h) is an integer quadruple
    (``_advance_of``), the row moves along the level's read, and the image
    is the one ``Point`` built.
    """
    if type(n) is not int:
        raise ValueError("iteration count must be an integer")
    poly = rm.polygon
    h, i, row, d = poly._inside(p)
    A, B, M, dt = _advance_of(rm.params._rotation_rows, h)
    if not (n and (A or B)):
        return p
    return _row_point(*poly._arc_point(h, poly._arc_pair(h, i, row, d), (A * n, B * n, M, dt)))


__all__ = [
    "StripShear",
    "RecurrenceMap",
    "VerificationError",
    "rotate_on_level",
    "rotation_amount",
    "build_recurrence_map",
    "apply_rounds",
    "apply_phi",
    "apply_phi_iter",
]
