"""Orbit analysis of the smoothed recurrence map, level by level.

On the level polygon {F = h} the map advances boundary arc length by the
exact amount c - h, so its rotation number is

    rho(h) = (c - h) / (2(a + b) - c - 7h),

the advance divided by the level perimeter.  Everything here works in the
full-advance regime 0 <= h <= c - eps and in exact arithmetic: a level is
*periodic* when rho is rational and *irrational-certified* otherwise, the
certificate being the nonzero sqrt-coefficient of rho in normal form,
corroborated by a distinctness sweep of the first N iterates.

All four orbit functions work on one integer rotation.  The advance and
the perimeter are put over one common denominator D as integer rows
``step = (a1 + b1*sqrt(d))/D`` and ``per = (a2 + b2*sqrt(d))/D``; a position
is an integer pair (X, Y) standing for ``(X + Y*sqrt(d))/D``.  The rows are
read from the shape's integer form (c - eps, c, 2(a + b) - c and eps over
one denominator in the shape's one radicand, cached on the parameters) and
the level's normal form, with no ``QField`` arithmetic;
no ``QField`` is built per position either, and every comparison is exact:

* the walk (``orbit_positions`` and ``atfkit orbit --dump``) wraps on the
  exact sign of ``s + step - per``;
* with t_n the position n steps from the start 0, positions m and m + n
  coincide exactly when t_n = 0, and the records of t_n (the first indices
  u and v of the smallest t_n and of the smallest ``per - t_n`` over
  1 <= n < N, the nearest returns to the start) are read from the
  continued fraction of per/step in O(log N) steps, without a walk; its
  partial quotients come from ``scalars._quotients``, which takes one
  integer square root for the whole expansion.
  By the three-gap theorem (Sos 1958) the gap values are ``t_u``,
  ``per - t_v`` and, when ``u + v > N``, their sum; the first N positions
  are distinct when ``t_u`` is not 0;
* a rational rho = p/q is proved to have period exactly q by the integer
  identity ``q*step = p*per`` with ``gcd(p, q) = 1`` (s_n returns to s_0
  exactly when q divides n), and its records show the first return at q
  when q <= N and none before; p/q is the closed form
  ``rotation_number``, computed on ``QField`` values apart from the rows, so
  the identity checks the rows against an independent oracle;
* a histogram bin ``floor(bins * s_i / per)`` is ``floor(i*bins*rho) mod
  bins``, and these floors step by ``m = floor(bins * rho)`` plus the
  letters of the characteristic Sturmian word of ``bins*rho - m``, a product
  of powers of its standard words: m and the partial quotients of the
  words both come from the continued fraction of ``bins*rho``, read by
  ``scalars._quotients`` as for the records.  Each word is its letter sum
  and its bin counts packed as ``bins`` fields of one integer, joined by
  an add and a rotation of the fields mod bins, so the histogram takes
  O(log n) big-integer steps of ``bins`` fields each and no pass over the
  positions, for any n < 2**64.

The rows of a level and its records for the last count asked for are kept
on the parameters, in the one slot ``ConstructionParams._read`` keyed by h's
normal form (``_level``), so ``classify_level``, ``gap_values``,
``equidistribution_stats`` and the walk on one level build its rows once and
run its continued fraction once per count.

The level coordinates of a point (``to_level_coordinate`` and its inverse
``from_level_coordinate``) ask the polygon for level h by the same advance
pass as the rotations of ``atfkit.recurrence`` (``Polygon._arc_pair`` and
``Polygon._arc_point``), which reads the level from its edge-death
schedule; neither builds a level polygon, and this module reads no arc
rows.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterator, NamedTuple

from . import scalars
from .plane import Point, _row_point
from .polygon import ConstructionParams, Polygon
from .recurrence import VerificationError
from .scalars import QField, ScalarLike, _merge_radicand, _sign, qf


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
    h, i, row, d = poly._inside(p)
    return LevelCoordinate(h, scalars._reduced(*poly._arc_pair(h, i, row, d)))


def from_level_coordinate(poly: Polygon, coord: LevelCoordinate) -> Point:
    return _row_point(*poly._arc_point(qf(coord.h), None, qf(coord.s)._v))


def perimeter_value(params: ConstructionParams, h: ScalarLike) -> QField:
    """Perimeter of the level-h polygon in closed form: 2(a+b) - c - 7h.

    Valid for 0 <= h < c, where all five edges of the level set survive.
    """
    h = qf(h)
    if h.sign() < 0 or h >= params.c:
        raise ValueError("closed-form perimeter needs 0 <= h < c")
    return 2 * (params.a + params.b) - params.c - 7 * h


def rotation_number(params: ConstructionParams, h: ScalarLike) -> QField:
    """Exact rotation number (c - h) / (2(a + b) - c - 7h)."""
    h = qf(h)
    if h.sign() < 0 or h > params.c - params.eps:
        raise ValueError("level must satisfy 0 <= h <= c - eps")
    return (params.c - h) / perimeter_value(params, h)


class _Rows(NamedTuple):
    """A level's rotation over one denominator: ``step = (a1 + b1*sqrt(d))/D``
    and ``per = (a2 + b2*sqrt(d))/D``."""

    d: int | None
    D: int
    a1: int
    b1: int
    a2: int
    b2: int


def _rows(params: ConstructionParams, h: ScalarLike) -> _Rows:
    """The rows of the step ``c - h`` and the perimeter ``2(a + b) - c - 7h``,
    read on integers from the normal form of h and the shape's
    ``_rotation_rows`` (c - eps, c, 2(a + b) - c and eps over one
    denominator, in the shape's one radicand; eps is not read here), with
    no ``QField`` arithmetic.  Radicands are merged, and a mixed pair
    refused, in the order of the ``QField``
    expressions the rows stand for (``h <= c - eps``, then ``c - h`` and
    ``2(a + b) - c - 7h``); the rows' radicand is None when both rows are
    rational."""
    A, B, Dh, dh = scalars._operand(h) or qf(h)._v
    Dp, dp, ((ex, ey), (cx, cy), (px, py), _) = params._rotation_rows
    # 0 <= h, then h <= c - eps as the sign of (c - eps)*Dh - h*Dp, whose
    # radicand is h's, merged with the shape's only where c - eps is irrational
    if _sign(A, B, dh) < 0 or _sign(ex * Dh - A * Dp, ey * Dh - B * Dp, _merge_radicand(dh, dp) if ey else dh) < 0:
        raise ValueError("level must satisfy 0 <= h <= c - eps")
    # the radicand of the rows: c - h and 2(a + b) - c - 7h merge the shape's with h's
    r = _merge_radicand(dp, dh)
    D = lcm(Dp, Dh)
    k, kh = D // Dp, D // Dh
    step, per = (cx * k - A * kh, cy * k - B * kh), (px * k - 7 * A * kh, py * k - 7 * B * kh)
    return _Rows(r if step[1] or per[1] else None, D, *step, *per)


def _level(params: ConstructionParams, h: ScalarLike, count: int = 0) -> tuple:
    """``(rows, records)`` of level h: its ``_rows`` and the
    ``_records`` of the last count asked for, filled for ``count`` when it is
    positive.  The parameters keep the last level read in their slot
    ``_read``, ``(key, rows, count, records)`` keyed by h's normal form and
    replaced whole, so the statistics of one level build its rows once and run
    its continued fraction once per count; a read that raises leaves the slot
    as it was."""
    key = scalars._operand(h) or qf(h)._v
    read = params._read
    if read[0] != key:
        read = (key, _rows(params, h), 0, None)
    if count > 0 and read[2] != count:
        read = (*read[:2], count, _records(read[1], count))
    object.__setattr__(params, "_read", read)
    return read[1], read[3]


def _records(rows: _Rows, count: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """``(u, X, Y)`` and ``(v, X', Y')``: with t_n the position n steps from 0,
    t_u is the smallest t_n and ``per - t_v`` the smallest ``per - t_n`` over
    1 <= n < count (count >= 1), u and v the first indices to reach them, and
    (X, Y) and (X', Y') the rows of t_u and ``per - t_v``.

    The continued fraction of per/step runs on rows: ``g_-1 = per`` at index
    ``q_-1 = 0``, ``g_0 = step`` at ``q_0 = 1``, then ``g_k = g_k-2 - a_k*g_k-1``
    at ``q_k = q_k-2 + a_k*q_k-1`` with ``a_k = floor(g_k-2 / g_k-1)``, the
    partial quotients of per/step that ``scalars._quotients`` yields, so the
    rows are only updated, never divided.  An even k has ``t_q = g`` and an
    odd k ``per - t_q = g``, and the records of each side are the
    intermediate values ``g_k-2 - j*g_k-1`` at ``q_k-2 + j*q_k-1`` for
    0 <= j <= a_k.  A rational expansion is made to end on an even k, as
    [..., a - 1, 1], so that the return to the start is a t_n record.
    """
    d, _, a1, b1, a2, b2 = rows
    q0, x0, y0, q1, x1, y1 = 0, a2, b2, 1, a1, b1
    odd = True  # (q0, x0, y0), g_k-2, is on the per - t_n side
    end = count - 1
    for a in scalars._quotients(a2, b2, a1, b1, d):
        j = (end - q0) // q1
        if j < a:
            # the count cuts g_k short at an intermediate value, the last record
            q0, x0, y0 = q0 + j * q1, x0 - j * x1, y0 - j * y1
            break
        # g_k takes the place of g_k-2 on its side
        q0, x0, y0, q1, x1, y1 = q1, x1, y1, q0 + a * q1, x0 - a * x1, y0 - a * y1
        odd = not odd
    else:
        if not odd:
            # a rational expansion ended on an odd k, g_k = 0: read it as
            # [..., a - 1, 1], which leaves g_k-1 at q_k - q_k-1 and puts the
            # return to the start on the t_n side
            return (q1, x1, y1), (q1 - q0, x0, y0)
    prev, last = (q0, x0, y0), (q1, x1, y1)
    return (last, prev) if odd else (prev, last)


def _walk(rows: _Rows, count: int) -> Iterator[tuple[int, int]]:
    """The first ``count`` positions from 0 as integer pairs (X, Y), each step
    wrapping on the exact sign of ``s + step - per``."""
    d, _, a1, b1, a2, b2 = rows
    c1, c2 = a1 - a2, b1 - b2
    sign = scalars._sign
    x = y = 0
    for _ in range(count):
        yield x, y
        if sign(x + c1, y + c2, d) >= 0:
            x += c1
            y += c2
        else:
            x += a1
            y += b1


def orbit_positions(params: ConstructionParams, h: ScalarLike, count: int) -> list[QField]:
    """The first ``count`` arc positions s_0, s_1, ... on level h, from
    s_0 = 0, the base vertex.

    Each step adds the advance c - h and reduces modulo the perimeter;
    the orbit from a start s is each position plus s, modulo the perimeter.
    The walk runs on integer pairs and only the returned positions are
    built as ``QField`` values.
    """
    return list(_positions(params, h, count))


def _positions(
    params: ConstructionParams, h: ScalarLike, count: int, form: Callable = scalars._reduced
) -> Iterator:
    """``orbit_positions`` as an iterator of ``form(X, Y, D, d)``: the inputs
    are checked at the call, and the walk runs as the positions are read, one
    at a time (``atfkit orbit --dump`` writes the text ``scalars._text`` of
    each row as it comes).  The rows are the level read shared with
    ``classify_level`` (``_level``), so a dump after its classify reads the
    level once."""
    if type(count) is not int:
        raise ValueError("count must be an integer")
    rows = _level(params, h)[0]
    if count < 0:
        raise ValueError("count must be nonnegative")
    D, d = rows.D, rows.d
    return (form(x, y, D, d) for x, y in _walk(rows, count))


def classify_level(
    params: ConstructionParams, h: ScalarLike, n_checked: int = 10_000
) -> OrbitReport:
    """Decide periodic vs irrational for the orbit on level h.

    Positions m and m + n coincide exactly when t_n, the position n steps
    from 0, is 0, so the first N positions are distinct when the smallest
    t_n over 1 <= n < N (read from ``_records``) is not 0.  Rational
    rho = p/q: the integer identity ``q*step = p*per`` with ``gcd(p, q) = 1``
    proves the period is exactly q; the first min(q, n_checked) positions
    are verified distinct, and when q <= n_checked the walk is also seen
    returning to the start at q.  Irrational rho (certified by its normal
    form): the first ``n_checked`` iterates are verified pairwise distinct.
    A failed check raises ``VerificationError``.  The rows are the level
    read that ``gap_values``, ``equidistribution_stats`` and the walk share
    (``_level``), read once; an irrational level's records are shared too,
    while a rational level's sweep runs ``_records`` on the rows directly.
    rho's closed form is computed afresh on every call.
    """
    if type(n_checked) is not int:
        raise ValueError("n_checked must be an integer")
    if n_checked < 0:
        raise ValueError("n_checked must be nonnegative")
    h = qf(h)
    rows = _level(params, h)[0]
    d, _, a1, b1, a2, b2 = rows
    if a1 * b2 == a2 * b1:
        # the certificate checks the rows against rho's closed form, so rho
        # is not read from them here; p and q, read from rho's normal form,
        # are coprime
        rho = rotation_number(params, h)
        p, q = rho.p, rho.q
        if q * a1 != p * a2 or q * b1 != p * b2:
            raise VerificationError(f"period certificate failed on level {h}", level=h)
        sweep = min(q, n_checked)
        u, x, y = _records(rows, sweep + 1)[0]
        # the first return to the start comes at q, or after the sweep
        if not (u == q if x == y == 0 else sweep < q):
            raise VerificationError(f"period verification failed on level {h}", level=h)
        return OrbitReport(h=h, rho=rho, kind="periodic", period=q, distinct_checked=sweep)
    if n_checked > 1 and _level(params, h, n_checked)[1][0][1:] == (0, 0):
        raise VerificationError(f"irrational level {h} produced a repeat", level=h)
    # rho = step/per: step times the conjugate of per, over its norm
    rho = scalars._quotient((a1, b1, 1, d), (a2, b2, 1, d))
    return OrbitReport(
        h=h, rho=rho, kind="irrational-certified", period=None, distinct_checked=n_checked
    )


def gap_values(params: ConstructionParams, h: ScalarLike, count: int) -> list[QField]:
    """Distinct circular gaps between the first ``count`` orbit positions.

    For an orbit of an exact circle rotation these take at most three
    values (the three-distance property), the largest being the sum of
    the other two when all three occur.  Translating every position
    keeps the gaps, so they are those of the walk from 0: with u and v
    the first indices of the smallest and largest position t_n over
    1 <= n < count, read from the continued fraction by ``_records``,
    the gaps are t_u, per - t_v and, when u + v > count, their sum.
    The rows and records are the level read shared with ``classify_level``
    (``_level``): a classify of an irrational level at ``n_checked = count``
    has run the same continued fraction.
    """
    if type(count) is not int:
        raise ValueError("count must be an integer")
    rows, records = _level(params, h, count)
    if count < 2:
        raise ValueError("need at least two positions for gaps")
    d = rows.d
    (u, lx, ly), (v, hx, hy) = records
    first, second = (lx, ly), (hx, hy)
    if scalars._sign(lx - hx, ly - hy, d) > 0:
        first, second = second, first
    gaps = [first] if first == second else [first, second]
    total = (lx + hx, ly + hy)
    # with repeated positions (count > period) the smallest gap is 0 and
    # the sum is the other gap
    if u + v > count and total != gaps[-1]:
        gaps.append(total)
    return [scalars._reduced(x, y, rows.D, d) for x, y in gaps]


# the bytes and memoryview format code of a histogram field, by the bytes
# of the largest count n: the fewest of 1, 2, 4 or 8 that hold it
_FIELDS = ((1, "B"),) * 2 + ((2, "H"),) + ((4, "I"),) * 2 + ((8, "Q"),) * 4


def equidistribution_stats(
    params: ConstructionParams,
    h: ScalarLike,
    n: int,
    bins: int,
) -> list[int]:
    """Histogram of the first n orbit positions over ``bins`` equal arcs.

    Only defined for irrational levels, and for n < 2**64.  Bin indices are
    exact floors of ``bins * s_i / per``, so the bin of s_i is
    ``floor(i*bins*rho) mod bins``.  With ``m = floor(bins * rho)`` and
    ``beta = bins*rho - m``, these floors step by m plus the letters of the
    characteristic Sturmian word of beta, ``floor((i+1)*beta) - floor(i*beta)``,
    whose prefixes are the standard words ``s_-1 = [m + 1]``, ``s_0 = [m]`` and
    ``s_k = s_k-1^r_k s_k-2`` with r_k = a_k (a_1 - 1 at k = 1) for the
    partial quotients a_k of beta (Lothaire, *Algebraic Combinatorics on
    Words*, ch. 2); the first n - 2 letters are ``s_K^b_K ... s_0^b_0``, the
    digits b_k taken greedily from the longest word that fits.  m and the
    a_k are the partial quotients of ``bins*rho = [m; a_1, a_2, ...]``, read
    by ``scalars._quotients`` from one integer square root.  A word w is read
    as the pair (H, S): S the sum of its letters, H the bin counts of its
    running sums from 0, packed into one integer as ``bins`` fields of 8, 16,
    32 or 64 bits, the fewest that hold n.  Then
    ``H(uv) = H(u) + rot(H(v), S(u))`` with the fields rotated mod bins (S is
    kept as that rotation in bits), a power is built by doubling, and a
    repeat or digit of 1 is the word itself: O(log n) big-integer steps of
    ``bins`` fields each, and no pass over the n positions.  The rows are the
    level read shared with ``classify_level`` and ``gap_values`` (``_level``).
    """
    if type(bins) is not int:
        raise ValueError("bin count must be an integer")
    if type(n) is not int:
        raise ValueError("sample count must be an integer")
    if bins < 1:
        raise ValueError("need at least one bin")
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    if n >> 64:
        raise ValueError("sample count must be below 2**64")
    d, _, a1, b1, a2, b2 = _level(params, h)[0]
    if a1 * b2 == a2 * b1:
        raise ValueError("equidistribution statistics need an irrational level")
    # pass 1: the continued fraction of bins*rho = [m; a_1, a_2, ...], whose
    # tail is beta's, gives m, the repeats r_k and the lengths |s_k|, up to
    # the first word longer than n - 2 (a_1 = 1 makes |s_1| = |s_0| = 1);
    # the repeats start with 0, which builds s_0 = s_-1^0 s_-2 from s_-2 = [m]
    quotients = scalars._quotients(bins * a1, bins * b1, a2, b2, d)
    m = next(quotients)
    reps, lens, skip = [0], [1, 1], 1
    while lens[-1] <= n - 2:
        r = next(quotients) - skip
        reps.append(r)
        lens.append(r * lens[-1] + lens[-2])
        skip = 0
    digits, rest = [], n - 2
    for size in reversed(lens[1:-1]):
        digits.append(rest // size)
        rest %= size
    # pass 2: each field holds a count up to n in wb bytes, read as the
    # memoryview format code; a word's letter sum S is kept as the rotation
    # (S mod bins)*width in bits, mod top, and a rotation of H by s moves
    # bin i to bin (i + S) mod bins as ``(H << s) & mask | H >> top - s``
    wb, code = _FIELDS[(n.bit_length() + 7) // 8]
    width, top = 8 * wb, 8 * wb * bins
    mask = (1 << top) - 1

    def power(H: int, s: int, r: int) -> tuple[int, int]:
        P, t = (H, s) if r else (0, 0)
        for bit in bin(r)[3:]:
            P, t = P + ((P << t) & mask | P >> top - t), 2 * t % top
            if bit == "1":
                P, t = P + ((H << t) & mask | H >> top - t), (t + s) % top
        return P, t

    # s_k is built from s_k-1 and s_k-2 (s_-1 = [m + 1], s_-2 = s_0 = [m]),
    # and its digit's power is folded into acc, the word s_k^b_k ... s_0^b_0,
    # smallest words first; a repeat or digit of 1 is the word itself
    sm = m % bins * width
    s, s2 = (sm + width) % top, sm
    H, H2 = 1 << s, 1 << s2
    acc = 0
    for r, b in zip(reps, reversed(digits)):
        P, t = (H, s) if r == 1 else power(H, s, r)
        H, s, H2, s2 = P + ((H2 << t) & mask | H2 >> top - t), (t + s2) % top, H, s
        if b:
            P, t = (H, s) if b == 1 else power(H, s, b)
            acc = P + ((acc << t) & mask | acc >> top - t)
    # the floors are 0, m, then m plus the running sums of the n - 2 letters
    H = (n > 0) + ((n > 1) << sm) + ((acc << sm) & mask | acc >> top - sm)
    counts = memoryview(H.to_bytes(wb * bins, sys.byteorder)).cast(code).tolist()
    return counts if sys.byteorder == "little" else counts[::-1]


def rho_monotone_check(params: ConstructionParams) -> bool:
    """Certify that rho is strictly decreasing in h on [0, c - eps].

    With P(h) = 2(a + b) - c - 7h the level perimeter, positive on that
    range, rho(h) = (c - h)/P(h) has derivative (8c - 2(a + b)) / P(h)^2,
    so rho strictly decreases exactly when 4c < a + b: the sign test is the
    proof.  ``check_shape`` already gives 4c < 2b <= a + b.
    """
    return (params.a + params.b - 4 * params.c).sign() > 0


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
