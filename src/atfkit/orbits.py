"""Orbit analysis of the smoothed recurrence map, level by level.

On the level polygon {F = h} the map advances boundary arc length by the
exact amount c - h, so its rotation number is

    rho(h) = (c - h) / (2(a + b) - c - 7h),

the advance divided by the level perimeter.  Everything here works in the
full-advance regime 0 <= h <= c - eps and in exact arithmetic: a level is
*periodic* when rho is rational and *irrational-certified* otherwise, the
certificate being the nonzero sqrt-coefficient of rho in normal form,
corroborated by a distinctness sweep of the first N iterates.

All four orbit functions share one integer walk.  The advance and the
perimeter are put over one common denominator D as integer rows
``step = (a1 + b1*sqrt(d))/D`` and ``per = (a2 + b2*sqrt(d))/D``; a position
is an integer pair (X, Y) standing for ``(X + Y*sqrt(d))/D``, and a step is
two integer additions and one exact sign test of ``s + step - per``.
No ``QField`` is built per position.  On top of the walk:

* a rational rho = p/q is proved to have period exactly q by the integer
  identity ``q*step = p*per`` with ``gcd(p, q) = 1`` (s_n returns to s_0
  exactly when q divides n); min(q, N) positions are then swept for
  distinctness;
* the gaps come from the three-gap theorem (Sos 1958): with t_n the
  position n steps from the start 0, and u and v the indices of the
  smallest and largest t_n over 1 <= n < N (the nearest returns to the
  start), the gap values are ``t_u``, ``per - t_v`` and, when
  ``u + v > N``, their sum;
* a histogram bin ``floor(bins * s / per)`` is one integer square root
  after multiplying by the conjugate of the perimeter.

The level coordinates of a point (``to_level_coordinate`` and its inverse
``from_level_coordinate``) read the arc rows of level h from the
polygon's edge-death schedule, by the same advance pass as the rotations
of ``atfkit.recurrence``; neither builds a level polygon.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, NamedTuple

from . import scalars
from .plane import Point
from .polygon import ConstructionParams, Polygon
from .recurrence import VerificationError
from .scalars import QField, ScalarLike, qf


@dataclass(frozen=True)
class LevelCoordinate:
    """A point addressed by its level h and boundary arc position s."""

    h: QField
    s: QField


@dataclass(frozen=True)
class OrbitReport:
    """Classification of one level's orbit structure."""

    h: QField
    rho: QField
    kind: str  # "periodic" or "irrational-certified"
    period: int | None
    distinct_checked: int

    def to_json_obj(self) -> dict:
        return {
            "h": str(self.h),
            "rho": str(self.rho),
            "kind": self.kind,
            "period": self.period,
            "distinct_checked": self.distinct_checked,
        }


def to_level_coordinate(poly: Polygon, p: Point) -> LevelCoordinate:
    """Split an interior point into (level, arc position on that level)."""
    h, i = poly._inside(p)
    return LevelCoordinate(h, poly._arc_at(h, i, p))


def from_level_coordinate(poly: Polygon, coord: LevelCoordinate) -> Point:
    return poly._advance(poly._arc_view(qf(coord.h)), 0, coord.s, None)


def perimeter_value(params: ConstructionParams, h: ScalarLike) -> QField:
    """Perimeter of the level-h polygon in closed form: 2(a+b) - c - 7h.

    Valid for 0 <= h < c, where all five edges of the level set survive.
    """
    h = qf(h)
    if h.sign() < 0 or h >= params.c:
        raise ValueError("closed-form perimeter needs 0 <= h < c")
    return 2 * (params.a + params.b) - params.c - 7 * h


def _check_full_advance(params: ConstructionParams, h: QField) -> None:
    if h.sign() < 0 or h > params.c - params.eps:
        raise ValueError("level must satisfy 0 <= h <= c - eps")


def rotation_number(params: ConstructionParams, h: ScalarLike) -> QField:
    """Exact rotation number (c - h) / (2(a + b) - c - 7h)."""
    h = qf(h)
    _check_full_advance(params, h)
    return (params.c - h) / perimeter_value(params, h)


class _Rows(NamedTuple):
    """A level's rotation over one denominator: ``step = (a1 + b1*sqrt(d))/D``,
    ``per = (a2 + b2*sqrt(d))/D`` and the reduced start ``(x0 + y0*sqrt(d))/D``."""

    d: int | None
    D: int
    a1: int
    b1: int
    a2: int
    b2: int
    x0: int
    y0: int


def _rows(params: ConstructionParams, h: ScalarLike, s0: ScalarLike = 0) -> _Rows:
    h = qf(h)
    _check_full_advance(params, h)
    step = params.c - h
    per = perimeter_value(params, h)
    s = qf(s0)
    s = s - scalars.floor(s / per) * per
    D, d, (step_row, per_row, start) = scalars._over(step, per, s)
    return _Rows(d, D, *step_row, *per_row, *start)


def _walk(rows: _Rows, count: int, x: int = 0, y: int = 0) -> Iterator[tuple[int, int]]:
    """The first ``count`` positions from ``(x + y*sqrt(d))/D`` as integer pairs."""
    d, _, a1, b1, a2, b2, _, _ = rows
    sign = scalars._sign
    for _ in range(count):
        yield x, y
        x += a1
        y += b1
        if sign(x - a2, y - b2, d) >= 0:
            x -= a2
            y -= b2


def orbit_positions(
    params: ConstructionParams, h: ScalarLike, count: int, s0: ScalarLike = 0
) -> list[QField]:
    """The first ``count`` arc positions s_0, s_1, ... on level h.

    Each step adds the advance c - h and reduces modulo the perimeter;
    the walk runs on integer pairs and only the returned positions are
    built as ``QField`` values.
    """
    rows = _rows(params, h, s0)
    if count < 0:
        raise ValueError("count must be nonnegative")
    d, D = rows.d, rows.D
    return [scalars._reduced(x, y, D, d) for x, y in _walk(rows, count, rows.x0, rows.y0)]


def classify_level(
    params: ConstructionParams, h: ScalarLike, n_checked: int = 10_000
) -> OrbitReport:
    """Decide periodic vs irrational for the orbit on level h.

    Rational rho = p/q: the integer identity ``q*step = p*per`` with
    ``gcd(p, q) = 1`` proves the period is exactly q; the first
    min(q, n_checked) positions are verified distinct, and when
    q <= n_checked the walk is also seen landing back on the start.
    Irrational rho (certified by its normal form): the first ``n_checked``
    iterates are verified pairwise distinct.  A failed check raises
    ``VerificationError``.
    """
    if n_checked < 0:
        raise ValueError("n_checked must be nonnegative")
    h = qf(h)
    rows = _rows(params, h)
    rho = rotation_number(params, h)
    if rho.is_rational():
        p, q = rho.p, rho.q
        if gcd(p, q) != 1 or q * rows.a1 != p * rows.a2 or q * rows.b1 != p * rows.b2:
            raise VerificationError(f"period certificate failed on level {h}", level=h)
        sweep = min(q, n_checked)
        pts = list(_walk(rows, sweep + 1))
        if len(set(pts[:sweep])) != sweep or (sweep == q and pts[q] != pts[0]):
            raise VerificationError(f"period verification failed on level {h}", level=h)
        return OrbitReport(h=h, rho=rho, kind="periodic", period=q, distinct_checked=sweep)
    if len(set(_walk(rows, n_checked))) != n_checked:
        raise VerificationError(f"irrational level {h} produced a repeat", level=h)
    return OrbitReport(
        h=h, rho=rho, kind="irrational-certified", period=None, distinct_checked=n_checked
    )


def gap_values(params: ConstructionParams, h: ScalarLike, count: int) -> list[QField]:
    """Distinct circular gaps between the first ``count`` orbit positions.

    For an orbit of an exact circle rotation these take at most three
    values (the three-distance property), the largest being the sum of
    the other two when all three occur.  Translating every position
    keeps the gaps, so they are those of the walk from 0: one pass finds
    the indices u, v of the smallest and largest position t_n over
    1 <= n < count, and the gaps are t_u, per - t_v and, when
    u + v > count, their sum.
    """
    rows = _rows(params, h)
    if count < 2:
        raise ValueError("need at least two positions for gaps")
    d, a2, b2 = rows.d, rows.a2, rows.b2
    sign = scalars._sign
    walk = _walk(rows, count)
    next(walk)
    lo = hi = next(walk)
    u = v = 1
    for n, (x, y) in enumerate(walk, 2):
        if sign(x - lo[0], y - lo[1], d) < 0:
            lo, u = (x, y), n
        elif sign(x - hi[0], y - hi[1], d) > 0:
            hi, v = (x, y), n
    first, second = lo, (a2 - hi[0], b2 - hi[1])
    if sign(first[0] - second[0], first[1] - second[1], d) > 0:
        first, second = second, first
    gaps = [first] if first == second else [first, second]
    total = (lo[0] + a2 - hi[0], lo[1] + b2 - hi[1])
    # with repeated positions (count > period) the smallest gap is 0 and
    # the sum is the other gap
    if u + v > count and total != gaps[-1]:
        gaps.append(total)
    return [scalars._reduced(x, y, rows.D, d) for x, y in gaps]


def equidistribution_stats(
    params: ConstructionParams,
    h: ScalarLike,
    n: int,
    bins: int,
) -> list[int]:
    """Histogram of the first n orbit positions over ``bins`` equal arcs.

    Only defined for irrational levels.  Bin indices are exact floors of
    s * bins / perimeter: multiplied by the conjugate of the perimeter,
    the quotient is ``(P + Q*sqrt(d)) / N`` over the fixed norm N of the
    perimeter row, and its floor is one ``math.isqrt``, so no position
    ever straddles a boundary.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    h = qf(h)
    rho = rotation_number(params, h)
    if rho.is_rational():
        raise ValueError("equidistribution statistics need an irrational level")
    rows = _rows(params, h)
    d, a2, b2 = rows.d, rows.a2, rows.b2
    # bins*s/per = (P + Q*sqrt(d)) / norm with P, Q linear in the position
    norm = a2 * a2 - d * b2 * b2
    sgn = 1 if norm > 0 else -1
    ka, kb, norm = sgn * bins * a2, sgn * bins * b2, abs(norm)
    kbd = kb * d
    floor = scalars._floor
    counts = [0] * bins
    for x, y in _walk(rows, n):
        counts[floor(x * ka - y * kbd, y * ka - x * kb, norm, d)] += 1
    return counts


def rho_monotone_check(params: ConstructionParams, grid_size: int) -> bool:
    """Certify that rho is strictly decreasing in h on [0, c - eps].

    Checks the exact sign of the derivative numerator (rho decreases
    everywhere iff 4c < a + b) and confirms strict decrease on a grid of
    ``grid_size`` levels.
    """
    if grid_size < 2:
        raise ValueError("grid needs at least two levels")
    symbolic = (params.a + params.b - 4 * params.c).sign() > 0
    top = params.c - params.eps
    values = [
        rotation_number(params, top * i / (grid_size - 1)) for i in range(grid_size)
    ]
    on_grid = all(values[i] > values[i + 1] for i in range(grid_size - 1))
    return symbolic and on_grid


__all__ = [
    "LevelCoordinate",
    "OrbitReport",
    "to_level_coordinate",
    "from_level_coordinate",
    "perimeter_value",
    "rotation_number",
    "orbit_positions",
    "classify_level",
    "gap_values",
    "equidistribution_stats",
    "rho_monotone_check",
]
