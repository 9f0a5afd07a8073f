"""Rational convex polygons, lattice distance, and level sets.

A :class:`Polygon` is a strictly convex polygon with counterclockwise
vertices whose edges all have rational slope.  Each edge carries its
primitive inward normal ``n`` and offset ``k``, so the edge lies on the
line ``<n, x> + k = 0`` and the polygon is ``{x : <n_i, x> + k_i >= 0}``.

The central quantity is the lattice distance to the boundary

    F(x) = min_i (<n_i, x> + k_i),

a concave piecewise-affine function whose level sets are the inner
parallel polygons obtained by sliding every edge inward by h.  They have a
closed form: each vertex of ``{F >= h}`` is where the shifted lines
``<n, x> + k = h`` of two neighbouring surviving edges meet, a 2x2 solve
with an integer determinant.  An edge whose shifted segment has
non-positive length is dead at that level; it is dropped and the
neighbours are intersected again.  Each polygon memoises its level sets
by h, keeping the newest ``LEVEL_MEMO_SIZE`` of them.  The module also
builds the family of corner-chopped rectangles that drives the
recurrence construction, plus a small catalog of named polygons.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import scalars
from .plane import (
    LatticeVector,
    Point,
    UnimodularAffineMap,
    as_point,
    cross,
    delta,
    direction_of,
    dot,
    lex_less,
    move,
)
from .scalars import QField, ScalarLike, qf

# level sets memoised per polygon; the oldest is evicted beyond this
LEVEL_MEMO_SIZE = 64


@dataclass(frozen=True)
class Edge:
    """One polygon edge: primitive inward normal, offset, direction, length."""

    normal: LatticeVector
    offset: QField
    direction: LatticeVector
    length: QField


class Polygon:
    """A strictly convex rational polygon with counterclockwise vertices."""

    __slots__ = ("vertices", "edges", "_hash", "_max", "_levels", "_base", "_prefix")

    def __init__(self, vertices: Iterable[Point | tuple]):
        verts = tuple(as_point(v) for v in vertices)
        if len(verts) < 3:
            raise ValueError("a polygon needs at least three vertices")
        n = len(verts)
        edges = []
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            direction, length = direction_of(a, b)
            normal = direction.perp()  # left of travel points inward for ccw
            offset = -dot(normal, a)
            edges.append(Edge(normal, offset, direction, length))
        # strictly convex and counterclockwise: every corner turns left and
        # the edge directions wind exactly once, passing the +x axis once
        wraps = 0
        for i in range(n):
            prev, cur = edges[i - 1].direction, edges[i].direction
            if cross(prev, cur) <= 0:
                raise ValueError(
                    "vertices must be strictly convex in counterclockwise order"
                )
            wraps += _lower_half(prev) and not _lower_half(cur)
        if wraps != 1:
            raise ValueError(
                f"vertices wind {wraps} times around the polygon, not once"
            )
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_max", None)
        object.__setattr__(self, "_levels", {})
        base = 0
        for i in range(1, n):
            if lex_less(verts[i], verts[base]):
                base = i
        prefix = [qf(0)]
        for k in range(n):
            prefix.append(prefix[-1] + edges[(base + k) % n].length)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_prefix", tuple(prefix))

    def __setattr__(self, name, value):
        raise AttributeError("Polygon is immutable")

    def __reduce__(self):
        # rebuilt from the vertices, so the memos are never serialized
        return (Polygon, (self.vertices,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.vertices)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        coords = ", ".join(f"({v.x1}, {v.x2})" for v in self.vertices)
        return f"Polygon[{coords}]"

    # -- membership and lattice distance ---------------------------------

    def support_values(self, p: Point) -> list[QField]:
        """The affine edge values <n_i, p> + k_i in edge order."""
        return [dot(e.normal, p) + e.offset for e in self.edges]

    def contains(self, p: Point, strict: bool = False) -> bool:
        threshold = 1 if strict else 0
        return all(v.sign() >= threshold for v in self.support_values(p))

    def on_boundary(self, p: Point) -> bool:
        signs = [v.sign() for v in self.support_values(p)]
        return all(s >= 0 for s in signs) and 0 in signs

    def distance_to_boundary(self, p: Point) -> QField:
        """F(p): the minimum edge value; errors when p lies outside."""
        values = self.support_values(p)
        best = values[0]
        for v in values[1:]:
            if v < best:
                best = v
        if best.sign() < 0:
            raise ValueError(f"point ({p.x1}, {p.x2}) lies outside the polygon")
        return best

    # -- Delzant structure ------------------------------------------------

    def is_delzant(self) -> bool:
        """True when each corner's primitive edge directions span Z^2."""
        n = len(self.edges)
        return all(
            abs(cross(self.edges[i - 1].direction, self.edges[i].direction)) == 1
            for i in range(n)
        )

    def self_intersection(self, i: int) -> int:
        """The integer s in the fan relation n_{i-1} + n_{i+1} = -s * n_i.

        For a Delzant polygon this is the self-intersection number of the
        toric divisor over edge i.  Errors when no integer solves the
        relation (a non-Delzant corner).
        """
        n = len(self.edges)
        cur = self.edges[i % n].normal
        rhs = self.edges[(i - 1) % n].normal + self.edges[(i + 1) % n].normal
        if cur.u != 0:
            if rhs.u % cur.u != 0:
                raise ValueError(f"fan relation unsolvable at edge {i}")
            s = -(rhs.u // cur.u)
        else:
            if rhs.v % cur.v != 0:
                raise ValueError(f"fan relation unsolvable at edge {i}")
            s = -(rhs.v // cur.v)
        if rhs.u != -s * cur.u or rhs.v != -s * cur.v:
            raise ValueError(f"fan relation unsolvable at edge {i}")
        return s

    def corner_chop(self, i: int, c: ScalarLike) -> "Polygon":
        """Cut the corner at vertex i at lattice depth c along both edges.

        Requires 0 < c strictly below both incident edge lengths, so the
        new edge stays clear of the neighbouring vertices.
        """
        c = qf(c)
        n = len(self.vertices)
        i %= n
        e_in = self.edges[(i - 1) % n]
        e_out = self.edges[i]
        if c.sign() <= 0:
            raise ValueError("chop depth must be positive")
        if c >= e_in.length or c >= e_out.length:
            raise ValueError("chop depth must be smaller than both incident edges")
        v = self.vertices[i]
        p_in = move(v, e_in.direction, -c)
        p_out = move(v, e_out.direction, c)
        new_vertices = (
            list(self.vertices[:i]) + [p_in, p_out] + list(self.vertices[i + 1 :])
        )
        return Polygon(new_vertices)

    # -- global measurements ----------------------------------------------

    def area(self) -> QField:
        total = qf(0)
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            total = total + (a.x1 * b.x2 - a.x2 * b.x1)
        return total / 2

    def perimeter(self) -> QField:
        return self._prefix[-1]

    def max_distance(self) -> tuple[QField, Point]:
        """The maximum of F over the polygon and one maximizer.

        Solved as an exact linear program: the optimum of
        ``max t  s.t.  <n_i, x> + k_i >= t`` is attained where three
        constraints are active, so all edge triples are enumerated and the
        best feasible solution kept.
        """
        if self._max is not None:
            return self._max
        best: tuple[QField, Point] | None = None
        edges = self.edges
        for i, j, k in itertools.combinations(range(len(edges)), 3):
            solved = solve_equidistant_triple(edges[i], edges[j], edges[k])
            if solved is None:
                continue
            p, t = solved
            if all((v - t).sign() >= 0 for v in self.support_values(p)):
                if best is None or t > best[0]:
                    best = (t, p)
        if best is None:
            raise ValueError("interior distance maximization failed")
        object.__setattr__(self, "_max", best)
        return best

    def level_set(self, h: ScalarLike) -> "Polygon":
        """The inner parallel polygon {F >= h}; h = 0 gives the polygon.

        Requires 0 <= h < max F so the result is two-dimensional.
        """
        h = qf(h)
        if h.sign() < 0:
            raise ValueError("level must be nonnegative")
        if h.sign() == 0:
            return self
        if h >= self.max_distance()[0]:
            raise ValueError(f"level {h} is not below the maximum distance")
        levels = self._levels
        level = levels.get(h)
        if level is None:
            level = Polygon(_level_vertices(self.edges, h))
            if len(levels) >= LEVEL_MEMO_SIZE:
                del levels[next(iter(levels))]
            levels[h] = level
        return level

    def level_perimeter(self, h: ScalarLike) -> QField:
        return self.level_set(h).perimeter()

    # -- boundary arc coordinates ------------------------------------------

    @property
    def base_index(self) -> int:
        """Index of the lexicographically smallest vertex (arc origin)."""
        return self._base

    def arc_of_vertex(self, i: int) -> QField:
        n = len(self.vertices)
        return self._prefix[(i - self._base) % n]

    def point_to_arc(self, p: Point) -> QField:
        """Counterclockwise boundary arc coordinate in [0, perimeter).

        Measured in lattice length from the lexicographically smallest
        vertex.  Errors when p is not on the boundary.
        """
        n = len(self.vertices)
        values = self.support_values(p)
        for k in range(n):
            i = (self._base + k) % n
            if values[i].sign() != 0:
                continue
            edge = self.edges[i]
            v = self.vertices[i]
            if edge.direction.u != 0:
                lam = (p.x1 - v.x1) / edge.direction.u
            else:
                lam = (p.x2 - v.x2) / edge.direction.v
            if lam.sign() >= 0 and lam < edge.length:
                return self._prefix[k] + lam
        raise ValueError(f"point ({p.x1}, {p.x2}) is not on the polygon boundary")

    def arc_to_point(self, s: ScalarLike) -> Point:
        """Inverse of point_to_arc; s is taken modulo the perimeter."""
        s = qf(s)
        per = self.perimeter()
        s = s - scalars.floor(s / per) * per
        n = len(self.vertices)
        for k in range(n):
            if s < self._prefix[k + 1]:
                i = (self._base + k) % n
                return move(self.vertices[i], self.edges[i].direction, s - self._prefix[k])
        # s == perimeter cannot survive the reduction; guard anyway
        return self.vertices[self._base]

    # -- transforms and serialization ---------------------------------------

    def transform(self, m: UnimodularAffineMap) -> "Polygon":
        pts = [m.apply(v) for v in self.vertices]
        if m.det == -1:
            pts.reverse()
        return Polygon(pts)

    def to_json_obj(self) -> dict:
        return {
            "vertices": [[str(v.x1), str(v.x2)] for v in self.vertices]
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Polygon":
        try:
            verts = obj["vertices"]
        except (KeyError, TypeError):
            raise ValueError("polygon object needs a 'vertices' list") from None
        return cls([(qf(x), qf(y)) for x, y in verts])

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "Polygon":
        return cls.from_json_obj(json.loads(text))


def solve_equidistant_triple(e1: Edge, e2: Edge, e3: Edge) -> tuple[Point, QField] | None:
    """Solve ``<n_i, x> + k_i = t`` for three edges; None when singular.

    This is the Cramer solve of the 3x3 system in (x1, x2, t) whose rows
    are ``(n.u, n.v, -1 | -k)``; minors are split so that only the offset
    column carries QField values.
    """
    n1, n2, n3 = e1.normal, e2.normal, e3.normal
    det = (
        n1.u * (-n2.v + n3.v)
        - n1.v * (-n2.u + n3.u)
        - (n2.u * n3.v - n2.v * n3.u)
    )
    if det == 0:
        return None
    r1, r2, r3 = -e1.offset, -e2.offset, -e3.offset
    x1 = (
        r1 * (-n2.v + n3.v) - r2 * (-n1.v + n3.v) + r3 * (-n1.v + n2.v)
    ) / det
    x2 = (
        -(r1 * (-n2.u + n3.u) - r2 * (-n1.u + n3.u) + r3 * (-n1.u + n2.u))
    ) / det
    t = (
        r1 * (n2.u * n3.v - n2.v * n3.u)
        - r2 * (n1.u * n3.v - n1.v * n3.u)
        + r3 * (n1.u * n2.v - n1.v * n2.u)
    ) / det
    return Point(x1, x2), t


def clip_halfplane(
    points: Sequence[Point], normal: LatticeVector, offset: QField
) -> list[Point]:
    """Clip a ccw vertex loop against the half-plane <normal, x> + offset >= 0."""
    if not points:
        return []
    out: list[Point] = []
    n = len(points)
    values = [dot(normal, p) + offset for p in points]
    for i in range(n):
        cur, nxt = points[i], points[(i + 1) % n]
        vc, vn = values[i], values[(i + 1) % n]
        if vc.sign() >= 0:
            out.append(cur)
        if vc.sign() * vn.sign() < 0:
            t = vc / (vc - vn)
            dx, dy = delta(cur, nxt)
            out.append(Point(cur.x1 + t * dx, cur.x2 + t * dy))
    return out


def _lower_half(w: LatticeVector) -> bool:
    """True when w points into the half-turn of angles [pi, 2 pi)."""
    return w.v < 0 or (w.v == 0 and w.u < 0)


def _level_vertices(edges: Sequence[Edge], h: QField) -> list[Point]:
    """Vertices of {F >= h} where neighbouring shifted edge lines meet.

    Edges whose shifted segment has non-positive length are dropped and the
    pass repeats.  A surviving edge always keeps a positive length, so the
    dropped ones are exactly the edges that vanish at level h.
    """
    while len(edges) >= 3:
        points = []
        for e0, e1 in zip(edges[-1:] + edges[:-1], edges):
            n0, n1 = e0.normal, e1.normal
            r0, r1 = h - e0.offset, h - e1.offset
            det = cross(n0, n1)
            points.append(Point((r0 * n1.v - r1 * n0.v) / det, (r1 * n0.u - r0 * n1.u) / det))
        alive = [
            e
            for e, p, q in zip(edges, points, points[1:] + points[:1])
            if (q.x1 - p.x1) * e.direction.u + (q.x2 - p.x2) * e.direction.v > 0
        ]
        if len(alive) == len(edges):
            return points
        edges = alive
    raise ValueError(f"level {h} produced a degenerate set")


@dataclass(frozen=True)
class ConstructionParams:
    """Shape parameters (a, b, c, eps) for the chopped-rectangle family.

    Constraints: a >= b > 0, 0 < c < b/2, and 0 < eps < min(c, b/2 - c).
    """

    a: QField
    b: QField
    c: QField
    eps: QField

    def __post_init__(self):
        for name in ("a", "b", "c", "eps"):
            object.__setattr__(self, name, qf(getattr(self, name)))
        if not (self.a >= self.b and self.b.sign() > 0):
            raise ValueError("parameters require a >= b > 0")
        half_b = self.b / 2
        if not (self.c.sign() > 0 and self.c < half_b):
            raise ValueError("parameter c must satisfy 0 < c < b/2")
        bound = min(self.c, half_b - self.c)
        if not (self.eps.sign() > 0 and self.eps < bound):
            raise ValueError("parameter eps must satisfy 0 < eps < min(c, b/2 - c)")


def centered_rectangle(a: ScalarLike, b: ScalarLike) -> Polygon:
    """The rectangle [-a/2, a/2] x [-b/2, b/2]."""
    a, b = qf(a), qf(b)
    if a.sign() <= 0 or b.sign() <= 0:
        raise ValueError("rectangle sides must be positive")
    ah, bh = a / 2, b / 2
    return Polygon([(-ah, -bh), (ah, -bh), (ah, bh), (-ah, bh)])


def build_blowup_polygon(params: ConstructionParams) -> Polygon:
    """The centered a-by-b rectangle with its bottom-right corner chopped
    at depth c: a five-edge Delzant polygon whose slanted edge has inward
    normal (-1, 1) and offset (a + b)/2 - c."""
    rect = centered_rectangle(params.a, params.b)
    return rect.corner_chop(1, params.c)


_CATALOG_DOC = {
    "CP2(lam)": "projective-plane triangle of side lam",
    "S2xS2(a,b)": "product rectangle with side areas a and b",
    "HirzebruchF1(lam,c)": "triangle of side lam with one corner chopped at c",
    "Bl1CP2": "monotone one-point blow-up (four edges)",
    "Bl2CP2": "monotone two-point blow-up pentagon",
    "Bl3CP2": "monotone three-point blow-up hexagon",
    "Blowup_S2xS2(a,b,c)": "a-by-b rectangle, one corner chopped at c <= b/2",
    "Blowup2_S2xS2(a,b)": "a-by-b rectangle, two opposite corners chopped at b/2",
}


def catalog_names() -> list[str]:
    return list(_CATALOG_DOC)


def catalog(name: str) -> Polygon:
    """Build a named polygon, e.g. ``CP2(3)`` or ``Blowup_S2xS2(4,2,1/2)``."""
    head, args = _parse_catalog_name(name)
    if head == "CP2":
        (lam,) = _catalog_args(name, args, 1)
        if lam.sign() <= 0:
            raise ValueError("CP2 needs a positive side")
        return Polygon([(0, 0), (lam, qf(0)), (qf(0), lam)])
    if head == "S2xS2":
        a, b = _catalog_args(name, args, 2)
        if a.sign() <= 0 or b.sign() <= 0:
            raise ValueError("S2xS2 needs positive sides")
        return Polygon([(0, 0), (a, qf(0)), (a, b), (qf(0), b)])
    if head == "HirzebruchF1":
        lam, c = _catalog_args(name, args, 2)
        if not (qf(0) < c < lam):
            raise ValueError("HirzebruchF1 needs 0 < c < lam")
        return catalog(f"CP2({lam})").corner_chop(1, c)
    if head == "Bl1CP2":
        _catalog_args(name, args, 0)
        return catalog("CP2(3)").corner_chop(1, 1)
    if head == "Bl2CP2":
        _catalog_args(name, args, 0)
        return catalog("Bl1CP2").corner_chop(3, 1)
    if head == "Bl3CP2":
        _catalog_args(name, args, 0)
        return catalog("Bl2CP2").corner_chop(0, 1)
    if head == "Blowup_S2xS2":
        a, b, c = _catalog_args(name, args, 3)
        if not (a >= b and b.sign() > 0):
            raise ValueError("Blowup_S2xS2 needs a >= b > 0")
        if not (qf(0) < c <= b / 2):
            raise ValueError("Blowup_S2xS2 needs 0 < c <= b/2")
        return centered_rectangle(a, b).corner_chop(1, c)
    if head == "Blowup2_S2xS2":
        a, b = _catalog_args(name, args, 2)
        if not (a >= b and b.sign() > 0):
            raise ValueError("Blowup2_S2xS2 needs a >= b > 0")
        half = b / 2
        once = centered_rectangle(a, b).corner_chop(1, half)
        return once.corner_chop(4, half)
    raise ValueError(f"unknown catalog polygon {name!r}")


def _parse_catalog_name(name: str) -> tuple[str, list[str]]:
    text = name.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ValueError(f"malformed catalog name {name!r}")
        head, _, inner = text[:-1].partition("(")
        args = [piece.strip() for piece in inner.split(",")] if inner.strip() else []
        return head.strip(), args
    return text, []


def _catalog_args(name: str, args: list[str], count: int) -> list[QField]:
    if len(args) != count:
        raise ValueError(f"catalog name {name!r} expects {count} argument(s)")
    return [qf(arg) for arg in args]


__all__ = [
    "Edge",
    "Polygon",
    "ConstructionParams",
    "clip_halfplane",
    "solve_equidistant_triple",
    "centered_rectangle",
    "build_blowup_polygon",
    "catalog",
    "catalog_names",
]
