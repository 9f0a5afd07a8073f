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
is an integer pair (X, Y) standing for ``(X + Y*sqrt(d))/D``.  No
``QField`` is built per position.

Each position also carries one integer *key* ``z = X*2^K + Y*sigma`` with
``sigma = isqrt(d*4^K)``, kept up to date by one addition per step.  As
``2^K*sqrt(d)`` is irrational, ``z`` differs from ``(X + Y*sqrt(d))*2^K`` by
less than ``|Y|`` (by 0 when Y = 0).  Over ``count`` steps from a start
``y0``, ``|Y| + |b1| + |b2|`` for every Y the walk reaches, and ``|Y - Y'|``
for any two of them, are less than ``E = |y0| + (count + 2)(|b1| + |b2|)``,
and these bound the Y of every difference the orbit functions compare.  So a
comparison whose key difference lies outside ``[-E, E)`` is decided by the
key alone, and only inside that band does it fall back to the exact
``scalars._sign`` or ``scalars._floor``; 2^K is chosen so that the band is
under 2^-16 of the smallest gap, and the fallback is rare.  A rational
level has ``K = sigma = E = 0``: the key is X itself and every decision is
exact.  The key decides the wrap ``s + step >= per``, the running extremes
of the gap scan and the histogram bins, and distinct keys prove distinct
positions in the irrational sweep.  On top of the walk:

* a rational rho = p/q is proved to have period exactly q by the integer
  identity ``q*step = p*per`` with ``gcd(p, q) = 1`` (s_n returns to s_0
  exactly when q divides n); min(q, N) positions are then swept for
  distinctness;
* the gaps come from the three-gap theorem (Sos 1958): with t_n the
  position n steps from the start 0, and u and v the indices of the
  smallest and largest t_n over 1 <= n < N (the nearest returns to the
  start), the gap values are ``t_u``, ``per - t_v`` and, when
  ``u + v > N``, their sum;
* a histogram bin ``floor(bins * s / per)`` is ``divmod(bins*z, key(per))``
  when the remainder is at least ``bins*E`` from both ends, and otherwise
  one integer square root after multiplying by the conjugate of the
  perimeter.

The level coordinates of a point (``to_level_coordinate`` and its inverse
``from_level_coordinate``) read the arc rows of level h from the
polygon's edge-death schedule, by the same advance pass as the rotations
of ``atfkit.recurrence``; neither builds a level polygon.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
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


def _keying(rows: _Rows, count: int) -> tuple[int, int, int]:
    """``(K, sigma, E)`` for a walk of ``count`` steps: position (X, Y) has the
    key ``X*2^K + Y*sigma``, and E exceeds ``|Y| + |b1| + |b2|`` for every Y
    the walk reaches and ``|Y - Y'|`` for any two of them.

    ``2^K`` exceeds ``2^16 * count * E * (|a2| + d*|b2|)``.  As ``|a2^2 - d*b2^2|``
    is at least 1, ``per*D`` is at least ``1/(|a2| + |b2|*sqrt(d))``, so the key
    of the perimeter is positive and E is less than 2^-16 of it over
    ``count``, the scale of the smallest gap.
    """
    d, _, _, b1, a2, b2, _, y0 = rows
    if d is None:
        return 0, 0, 0
    E = abs(y0) + (count + 2) * (abs(b1) + abs(b2))
    K = (count * E * (abs(a2) + d * abs(b2)) << 16).bit_length()
    return K, isqrt(d << 2 * K), E


def _walk(
    rows: _Rows, count: int, x: int = 0, y: int = 0
) -> Iterator[tuple[int, int, int]]:
    """The first ``count`` positions from ``(x + y*sqrt(d))/D`` as integer
    triples (X, Y, z), z the key of (X, Y); the start is 0 or the reduced
    start of ``rows``."""
    d, _, a1, b1, a2, b2, _, _ = rows
    K, sigma, E = _keying(rows, count)
    z = (x << K) + y * sigma
    k1 = (a1 << K) + b1 * sigma
    k2 = (a2 << K) + b2 * sigma
    # s + step >= per, tested as key(s) against key(per - step)
    top, bottom = k2 - k1 + E, k2 - k1 - E
    c1, c2, kc = a1 - a2, b1 - b2, k1 - k2
    sign = scalars._sign
    for _ in range(count):
        yield x, y, z
        if z >= top or (z >= bottom and sign(x + c1, y + c2, d) >= 0):
            x += c1
            y += c2
            z += kc
        else:
            x += a1
            y += b1
            z += k1


def _distinct(rows: _Rows, count: int) -> bool:
    """Whether the first ``count`` positions are pairwise distinct: distinct
    keys prove it, and only a repeated key needs the integer pairs."""
    if len({z for _, _, z in _walk(rows, count)}) == count:
        return True
    return len({(x, y) for x, y, _ in _walk(rows, count)}) == count


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
    return [scalars._reduced(x, y, D, d) for x, y, _ in _walk(rows, count, rows.x0, rows.y0)]


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
        pts = [(x, y) for x, y, _ in _walk(rows, sweep + 1)]
        if len(set(pts[:sweep])) != sweep or (sweep == q and pts[q] != pts[0]):
            raise VerificationError(f"period verification failed on level {h}", level=h)
        return OrbitReport(h=h, rho=rho, kind="periodic", period=q, distinct_checked=sweep)
    if not _distinct(rows, n_checked):
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
    E = _keying(rows, count)[2]
    sign = scalars._sign
    walk = _walk(rows, count)
    next(walk)
    lx, ly, lz = hx, hy, hz = next(walk)
    u = v = 1
    # z - lz < -E proves a smaller position and z - lz >= E one no smaller,
    # z - hz > E a larger one and z - hz <= -E one no larger; in between
    # the exact sign decides
    for n, (x, y, z) in enumerate(walk, 2):
        if z < lz + E and (z < lz - E or sign(x - lx, y - ly, d) < 0):
            lx, ly, lz, u = x, y, z, n
        elif z > hz - E and (z > hz + E or sign(x - hx, y - hy, d) > 0):
            hx, hy, hz, v = x, y, z, n
    first, second = (lx, ly), (a2 - hx, b2 - hy)
    if sign(first[0] - second[0], first[1] - second[1], d) > 0:
        first, second = second, first
    gaps = [first] if first == second else [first, second]
    total = (lx + a2 - hx, ly + b2 - hy)
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
    s * bins / perimeter.  The quotient of ``bins*z`` by the key of the
    perimeter is the bin when its remainder is at least ``bins*E`` from
    both ends.  Otherwise the position is multiplied by the conjugate of
    the perimeter: the quotient is ``(P + Q*sqrt(d)) / N`` over the fixed
    norm N of the perimeter row, and its floor is one ``math.isqrt``, so
    no position ever straddles a boundary.
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
    K, sigma, E = _keying(rows, n)
    # for -1 <= q <= bins (the only quotients while kp > bins*E), bins*z - q*kp
    # is off from (bins*s - q*per)*D*2^K by less than |bins*Y - q*b2| < bins*E;
    # so a remainder r >= bins*E proves q <= bins*s/per (ruling out q = bins),
    # and then r <= kp - bins*E proves bins*s/per < q + 1 (ruling out q = -1)
    kp = (a2 << K) + b2 * sigma
    low, high = bins * E, kp - bins * E
    # bins*s/per = (P + Q*sqrt(d)) / norm with P, Q linear in the position
    norm = a2 * a2 - d * b2 * b2
    sgn = 1 if norm > 0 else -1
    ka, kb, norm = sgn * bins * a2, sgn * bins * b2, abs(norm)
    kbd = kb * d
    floor = scalars._floor
    counts = [0] * bins
    for x, y, z in _walk(rows, n):
        q, r = divmod(bins * z, kp)
        if r < low or r > high:
            q = floor(x * ka - y * kbd, y * ka - x * kb, norm, d)
        counts[q] += 1
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
