"""Orbit analysis of the smoothed recurrence map, level by level.

On the level polygon {F = h} the map advances boundary arc length by the
exact amount c - h, so its rotation number is

    rho(h) = (c - h) / (2(a + b) - c - 7h),

the advance divided by the level perimeter.  Everything here works in the
full-advance regime 0 <= h <= c - eps and in exact arithmetic: a level is
*periodic* when rho is rational (certified by exhibiting the period) and
*irrational-certified* otherwise, the certificate being the nonzero
sqrt-coefficient of rho in normal form, corroborated by a distinctness
sweep of the first N iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars
from .plane import Point
from .polygon import ConstructionParams, Polygon
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
    h = poly.distance_to_boundary(p)
    return LevelCoordinate(h, poly.level_set(h).point_to_arc(p))


def from_level_coordinate(poly: Polygon, coord: LevelCoordinate) -> Point:
    return poly.level_set(coord.h).arc_to_point(coord.s)


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


def orbit_positions(
    params: ConstructionParams, h: ScalarLike, count: int, s0: ScalarLike = 0
) -> list[QField]:
    """The first ``count`` arc positions s_0, s_1, ... on level h.

    Each step adds the advance c - h and reduces modulo the perimeter.
    """
    h = qf(h)
    _check_full_advance(params, h)
    if count < 0:
        raise ValueError("count must be nonnegative")
    per = perimeter_value(params, h)
    step = params.c - h
    s = qf(s0)
    s = s - scalars.floor(s / per) * per
    out = []
    for _ in range(count):
        out.append(s)
        s = s + step
        if s >= per:
            s = s - per
    return out


def classify_level(
    params: ConstructionParams, h: ScalarLike, n_checked: int = 10_000
) -> OrbitReport:
    """Decide periodic vs irrational for the orbit on level h.

    Rational rho = p/q: the orbit is periodic with period exactly q,
    verified by iterating q steps, finding q distinct positions, and
    landing back on the start.  Irrational rho (certified by its normal
    form): the first ``n_checked`` iterates are verified pairwise
    distinct.
    """
    h = qf(h)
    _check_full_advance(params, h)
    rho = rotation_number(params, h)
    if rho.is_rational():
        q = rho.as_fraction().denominator
        pts = orbit_positions(params, h, q + 1)
        if len(set(pts[:-1])) != q or pts[-1] != pts[0]:
            raise ArithmeticError(f"period verification failed on level {h}")
        return OrbitReport(h=h, rho=rho, kind="periodic", period=q, distinct_checked=q)
    pts = orbit_positions(params, h, n_checked)
    if len(set(pts)) != n_checked:
        raise ArithmeticError(f"irrational level {h} produced a repeat")
    return OrbitReport(
        h=h, rho=rho, kind="irrational-certified", period=None, distinct_checked=n_checked
    )


def gap_values(
    params: ConstructionParams, h: ScalarLike, count: int, s0: ScalarLike = 0
) -> list[QField]:
    """Distinct circular gaps between the first ``count`` orbit positions.

    For an orbit of an exact circle rotation these take at most three
    values (the three-distance property), the largest being the sum of
    the other two when all three occur.
    """
    pts = orbit_positions(params, h, count, s0)
    if len(pts) < 2:
        raise ValueError("need at least two positions for gaps")
    per = perimeter_value(params, h)
    ordered = sorted(pts)
    gaps = {ordered[i + 1] - ordered[i] for i in range(len(ordered) - 1)}
    gaps.add(ordered[0] + per - ordered[-1])
    return sorted(gaps)


def equidistribution_stats(
    params: ConstructionParams,
    h: ScalarLike,
    n: int,
    bins: int,
) -> list[int]:
    """Histogram of the first n orbit positions over ``bins`` equal arcs.

    Only defined for irrational levels; bin indices are exact floors of
    s * bins / perimeter, so no position ever straddles a boundary.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    h = qf(h)
    rho = rotation_number(params, h)
    if rho.is_rational():
        raise ValueError("equidistribution statistics need an irrational level")
    per = perimeter_value(params, h)
    counts = [0] * bins
    for s in orbit_positions(params, h, n):
        counts[scalars.floor(s * bins / per)] += 1
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
