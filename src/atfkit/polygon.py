"""Rational convex polygons, lattice distance, and level sets.

A :class:`Polygon` is a strictly convex polygon with counterclockwise
vertices whose edges all have rational slope.  Each edge carries its
primitive inward normal ``n`` and offset ``k``, so the edge lies on the
line ``<n, x> + k = 0`` and the polygon is ``{x : <n_i, x> + k_i >= 0}``.

The central quantity is the lattice distance to the boundary

    F(x) = min_i (<n_i, x> + k_i),

a concave piecewise-affine function whose level sets are the inner
parallel polygons obtained by sliding every edge inward by h.  One
edge-death schedule, built once per polygon, gives all of them: every edge
line slides inward from level 0, an edge dies where the shifted lines of
its two live neighbours meet on it, and max F is reached when fewer than
three edges are left.  Every meeting of edge lines is one 2x2 integer
Cramer solve, ``_solve``, over the edge rows below: an edge death, like
``solve_equidistant_triple``, subtracts the middle row of three from the
other two (``_meeting``), so the schedule builds no ``QField`` but its
death levels and one ``Point``, the maximizer.

Between two consecutive death levels the same edges are alive: the
lattice-weighted straight skeleton (Aichholzer et al., 1995).  A level h
is read by ``_level`` in one pass: the edges alive at h are those whose
death level is above it, each corner of {F >= h} is one ``_solve`` of two
neighbouring alive edge rows shifted to h, all put over one common
denominator D, and each edge length is an exact integer quotient of its
end corners.  The read is one integer row per alive edge in arc order: the
arc prefix at its start, its start vertex and its direction, with the
perimeter last.  ``_arc_view`` keeps the last level read, so every read of
one level (its corners, its rotations, its level polygon) solves it once;
``_corners`` rotates that read into the corners of {F >= h}, and
``level_set`` passes them to ``Polygon(...)``, so a level polygon gets every
check of the constructor.

The constructor is one integer pass too: one ``scalars._over`` puts every
vertex coordinate over a common denominator, and each edge reads its
primitive direction and lattice length from the difference of neighbouring
vertex rows (``plane._direction``, the rule of ``direction_of``), its normal
as the direction's quarter turn and its offset -<n, x> as one reduced pair.

Every edge value <n_i, p> + k_i is read from integer edge rows built with
the polygon, the offsets over one common denominator L by ``scalars._over``:
row (n_u, n_v, A_k, B_k) for k = (A_k + B_k*sqrt(d))/L.  Offsets in two
radicands are refused there.  A query puts p over the least common
denominator P of its coordinates, which makes each edge value an integer
pair over P*L.  F(p) is the smallest pair by exact sign tests, and only
the value returned is built as a ``QField``.

The boundary arc coordinate is lattice length counterclockwise from the
lexicographically smallest vertex.  That vertex comes from the winding scan
of the edge directions: it is the one corner where they pass out of the
half-turn pointing left or straight down, so it is fixed while the same
edges are alive.  One advance pass, ``Polygon._advance``, reads level h
from ``_arc_view``: it serves every level rotation of
``atfkit.recurrence``, the level coordinates of ``atfkit.orbits`` and, at
h = 0, the polygon's own ``arc_to_point``; ``perimeter``,
``level_perimeter``, ``arc_of_vertex`` and ``point_to_arc`` read the same
rows, so no rotation or level coordinate builds a level polygon.  An arc of
a point on edge i is prefix + lambda (+ the advance) as one integer pair;
it is reduced modulo the perimeter by one exact floor of its quotient
(``_mod``), and its edge is found by sign tests on the prefixes.
The pass takes and gives point rows (``_arc_pair``, ``_arc_point``), so the
map self-check runs it with no ``Point``; ``_advance`` builds the one
``Point`` of a rotation.  The module also builds the family of
corner-chopped rectangles that drives the recurrence construction, five
closed-form corners each, plus a small catalog of named polygons.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
import json
from math import lcm
from dataclasses import dataclass
from typing import Iterable, Sequence

from .plane import (
    LatticeVector,
    Point,
    UnimodularAffineMap,
    _direction,
    _point,
    _row,
    _row_point,
    as_point,
    cross,
    delta,
    dot,
    move,
)
from .scalars import ZERO, QField, ScalarLike, _floor, _merge_radicand, _over, _reduced, _sign, qf

@dataclass(frozen=True)
class Edge:
    """One polygon edge: primitive inward normal, offset, direction, length."""

    normal: LatticeVector
    offset: QField
    direction: LatticeVector
    length: QField


class Polygon:
    """A strictly convex rational polygon with counterclockwise vertices."""

    __slots__ = ("vertices", "edges", "_schedule", "_read", "_base", "_rows")

    def __init__(self, vertices: Iterable[Point | tuple]):
        verts = tuple(as_point(v) for v in vertices)
        if len(verts) < 3:
            raise ValueError("a polygon needs at least three vertices")
        # every vertex over one denominator D: the point rows ((X, Xs), (Y, Ys))
        D, d, coords = _over(*(x for v in verts for x in (v.x1, v.x2)))
        rows = list(zip(coords[::2], coords[1::2]))
        edges = []
        for ((X, Xs), (Y, Ys)), ((X1, Xs1), (Y1, Ys1)) in zip(rows, rows[1:] + rows[:1]):
            w, length = _direction(X1 - X, Xs1 - Xs, Y1 - Y, Ys1 - Ys, D, d)
            # the normal (-w.v, w.u), left of travel, points inward for ccw,
            # and the offset is -<normal, start>
            offset = _reduced(w.v * X - w.u * Y, w.v * Xs - w.u * Ys, D, d)
            edges.append(Edge(w.perp(), offset, w, length))
        # strictly convex and counterclockwise: every corner turns left and
        # the edge directions wind exactly once
        for i in range(len(edges)):
            if cross(edges[i - 1].direction, edges[i].direction) <= 0:
                raise ValueError(
                    "vertices must be strictly convex in counterclockwise order"
                )
        passes = _passes(edges)
        if len(passes) != 1:
            raise ValueError(
                f"vertices wind {len(passes)} times around the polygon, not once"
            )
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_rows", _line_rows(edges))
        object.__setattr__(self, "_schedule", None)
        object.__setattr__(self, "_read", (None, None))
        object.__setattr__(self, "_base", passes[0])

    def __setattr__(self, name, value):
        raise AttributeError("Polygon is immutable")

    def __reduce__(self):
        # rebuilt from the vertices, so the schedule and level read are never serialized
        return (Polygon, (self.vertices,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        coords = ", ".join(f"({v.x1}, {v.x2})" for v in self.vertices)
        return f"Polygon[{coords}]"

    # -- membership and lattice distance ---------------------------------

    def support_values(self, p: Point) -> list[QField]:
        """The affine edge values <n_i, p> + k_i in edge order, each read
        from the integer edge rows and reduced to a ``QField``."""
        pairs, den, d = self._edge_values(p)
        return [_reduced(a, b, den, d) for a, b in pairs]

    def _locate(self, p: Point) -> tuple[QField, int]:
        """The one edge-value pass: the minimum edge value F, negative
        outside the polygon, and the first edge that attains it.

        The edge values are integer pairs over one denominator, compared
        exactly by their signs; only the minimum becomes a ``QField``.
        """
        pairs, den, d = self._edge_values(p)
        ba, bb = pairs[0]
        at = 0
        for i in range(1, len(pairs)):
            a, b = pairs[i]
            if (a < ba) if b == bb else _sign(a - ba, b - bb, d) < 0:
                ba, bb, at = a, b, i
        return _reduced(ba, bb, den, d), at

    def _edge_values(self, p: Point) -> tuple[list[tuple[int, int]], int, int | None]:
        """Every edge value <n_i, p> + k_i as an integer pair (a, b), the value
        being (a + b*sqrt(d)) / den, with the pairs' common denominator den
        and radicand d.

        ``_over`` puts p over P, the least common denominator of its
        coordinates, and the rows are over L, so each value is a few
        integer products over den = P*L.
        A point whose radicand differs from the polygon's is a ``ValueError``.
        """
        rows, L, d = self._rows
        P, d, ((X1, Y1), (X2, Y2)) = _over(p.x1, p.x2, d=d)
        X1, Y1, X2, Y2 = X1 * L, Y1 * L, X2 * L, Y2 * L
        pairs = [(u * X1 + v * X2 + A * P, u * Y1 + v * Y2 + B * P) for u, v, A, B in rows]
        return pairs, P * L, d

    def contains(self, p: Point, strict: bool = False) -> bool:
        return self._locate(p)[0].sign() >= (1 if strict else 0)

    def on_boundary(self, p: Point) -> bool:
        return self._locate(p)[0].sign() == 0

    def distance_to_boundary(self, p: Point) -> QField:
        """F(p): the minimum edge value; errors when p lies outside."""
        return self._inside(p)[0]

    def _inside(self, p: Point) -> tuple[QField, int]:
        """``_locate`` of a point that must lie in the polygon."""
        best, i = self._locate(p)
        if best.sign() < 0:
            raise ValueError(f"point ({p.x1}, {p.x2}) lies outside the polygon")
        return best, i

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
        prev, cur, nxt = (self.edges[j % n].normal for j in (i - 1, i, i + 1))
        # crossing the relation with n_{i-1} leaves one integer equation;
        # the floor quotient solves the relation only when it is exact
        s = -cross(prev, nxt) // cross(prev, cur)
        if prev + nxt != LatticeVector(-s * cur.u, -s * cur.v):
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
        return _loop_area_twice(self.vertices) / 2

    def perimeter(self) -> QField:
        return self.level_perimeter(ZERO)

    def max_distance(self) -> tuple[QField, Point]:
        """The maximum of F over the polygon and one maximizer.

        Read off the edge-death schedule: max F is the level where fewer
        than three edges are left, and the maximizer is where the first
        edge to die at that level dies.
        """
        _, value, point = self._edge_deaths()
        return value, point

    def level_set(self, h: ScalarLike) -> "Polygon":
        """The inner parallel polygon {F >= h}; h = 0 gives the polygon.

        Requires 0 <= h < max F so the result is two-dimensional.  Its
        vertices are the corners of the level read (``_corners``), and it is
        built through ``Polygon(...)`` with every check of the constructor.
        """
        h = qf(h)
        if not h:
            return self
        (*_, d), corners = self._corners(h)
        return Polygon(_row_point(row, d) for row in corners)

    def _edge_deaths(self) -> tuple[list[QField], QField, Point]:
        """The edge-death schedule of the inward wavefront, built once: the
        lattice-weighted straight skeleton (Aichholzer et al., J.UCS 1995).

        Returns each edge's death level, max F and a maximizer.  An edge
        dies where the shifted lines of its two live neighbours meet on it,
        one ``_meeting`` of their edge rows; a meeting below the current
        level belongs to a growing edge and is never reached.  Deaths leave
        a heap keyed by (level, edge index) until two edges are left, and
        those two die at max F.  Only the maximizer is built as a ``Point``.
        """
        if self._schedule is None:
            (rows, L, d), n = self._rows, len(self.edges)
            prev, nxt = [(i - 1) % n for i in range(n)], [(i + 1) % n for i in range(n)]
            deaths, heap, level, top = [None] * n, [], qf(0), None

            def push(i):  # a meeting at the current level is a simultaneous death
                meet = _meeting(rows[prev[i]], rows[i], rows[nxt[i]], L)
                if meet and (t := _reduced(*meet[0], d)) >= level:
                    heapq.heappush(heap, (t, i, prev[i], nxt[i], *meet[1:]))

            for i in range(n):
                push(i)
            for _ in range(n - 2):
                t, i, p, q, x1, x2 = heapq.heappop(heap)
                while deaths[i] is not None or (prev[i], nxt[i]) != (p, q):
                    t, i, p, q, x1, x2 = heapq.heappop(heap)
                if t != level:
                    level, top = t, (x1, x2)
                deaths[i], nxt[p], prev[q] = t, q, p
                push(p)
                push(q)
            deaths = [level if t is None else t for t in deaths]
            top = _point(_reduced(*top[0], d), _reduced(*top[1], d))
            object.__setattr__(self, "_schedule", (deaths, level, top))
        return self._schedule

    def _level(self, h: QField) -> tuple:
        """Level h of the edge-death schedule, read in one pass:
        ``(alive, base, rows, D, d)``, the indices of the edges alive at h in
        order and the arc origin among them (from the winding scan), then
        every value over one common denominator D, an integer pair (A, B)
        standing for (A + B*sqrt(d)) / D.

        Row k is the k-th alive edge in arc order from the base vertex,
        ``(S, Sb, X1, Y1, X2, Y2, u, v)``: the arc prefix (S, Sb) at its
        start, the start vertex ((X1, Y1), (X2, Y2)) and the direction
        (u, v).  The last row is the perimeter (S, Sb).

        The edges alive at h are those that die above it, so a death level
        belongs to the levels above it.  Each alive edge row, shifted to h,
        is <n, x> = h - k with h - k over L*H for h = (Ah + Bh*sqrt(d))/H;
        the start vertex of alive edge j is corner j, where alive edges
        j - 1 and j meet, one ``_solve`` of their shifted rows over L*H*det,
        and D = lcm(L*H*|det|) puts every corner over one denominator.  An
        edge's length is the difference of its end corners divided by the
        first nonzero entry of its direction.

        The level is checked in the order that building {F >= h} through
        ``Polygon(...)`` checks it, so a refused level gets that build's
        ``ValueError``: a negative level, a level at or above max F, a
        radicand met by the scan for the alive edges (a death level's named
        first), then one differing from the offsets' (h's named first).
        """
        if (sign := h.sign()) < 0:
            raise ValueError("level must be nonnegative")
        alive = range(len(self.edges))
        if sign:
            deaths, top, _ = self._edge_deaths()
            if h >= top:
                raise ValueError(f"level {h} is not below the maximum distance")
            alive = [i for i, t in enumerate(deaths) if t > h]
        (rows, L, d), (Ah, Bh, H, dh), m = self._rows, h._v, len(alive)
        d = _merge_radicand(dh, d)
        shifted = [(u, v, Ah * L - A * H, Bh * L - B * H)
                   for u, v, A, B in (rows[i] for i in alive)]
        solved = [_solve(shifted[j - 1], shifted[j]) for j in range(m)]
        D = lcm(*(z[4] for z in solved))
        corners = [tuple(a * (D // z[4]) for a in z[:4]) for z in solved]
        base = _passes([self.edges[i] for i in alive])[0]
        arcs, S, Sb = [], 0, 0
        for j in (*range(base, m), *range(base)):
            z0, z1, w = corners[j], corners[(j + 1) % m], self.edges[alive[j]].direction
            arcs.append((S, Sb, *z0, w.u, w.v))
            # z1 - z0 is the length times w in each part (value and sqrt(d)
            # part), and w is primitive, so some integer combination of its
            # entries is 1: the length's parts over D are integers, and
            # dividing by one entry of w is exact
            c, s = (0, w.u) if w.u else (2, w.v)
            S, Sb = S + (z1[c] - z0[c]) // s, Sb + (z1[c + 1] - z0[c + 1]) // s
        arcs.append((S, Sb))
        return alive, base, arcs, D * L * H, d

    def _corners(self, h: QField) -> tuple[tuple, list[tuple[int, int, int, int, int]]]:
        """The corners of {F >= h} as point rows, with the view they come
        from: ``(view, corners)`` for ``view = _arc_view(h)``.  Corner j, where
        alive edges j - 1 and j meet, is the start vertex of alive edge j in
        the view's rows, ``(X, Xs, Y, Ys, D)`` for ((X + Xs*sqrt(d))/D,
        (Y + Ys*sqrt(d))/D), all over the view's D: the rows rotated from arc
        order to alive order.  ``level_set``, the map self-check of
        ``atfkit.recurrence`` and the level outlines of ``atfkit.render`` all
        read them here.  Errors are ``_level``'s.
        """
        alive, base, rows, D, _ = view = self._arc_view(h)
        k = len(alive) - base  # row k starts at corner 0
        return view, [(X1, Y1, X2, Y2, D) for _, _, X1, Y1, X2, Y2, _, _ in rows[k:-1] + rows[:k]]

    def level_perimeter(self, h: ScalarLike) -> QField:
        _, _, rows, D, d = self._arc_view(qf(h))
        return _reduced(*rows[-1], D, d)

    # -- boundary arc coordinates ------------------------------------------

    @property
    def base_index(self) -> int:
        """Index of the lexicographically smallest vertex (arc origin)."""
        return self._base

    def _arc_view(self, h: QField) -> tuple:
        """Level h as ``_level`` reads it, ``(alive, base, rows, D, d)``.

        The polygon keeps the last level read in its one slot ``_read``, so
        every read of one level (its corners, its rotations, its level
        polygon) solves it once; another level is read afresh.
        """
        if self._read[0] != h._v:
            object.__setattr__(self, "_read", (h._v, self._level(h)))
        return self._read[1]

    def arc_of_vertex(self, i: int) -> QField:
        _, _, rows, D, d = self._arc_view(ZERO)
        return _reduced(*rows[(i - self._base) % len(self.vertices)][:2], D, d)

    def point_to_arc(self, p: Point) -> QField:
        """Counterclockwise boundary arc coordinate in [0, perimeter).

        Measured in lattice length from the lexicographically smallest
        vertex.  Errors when p is not on the boundary.
        """
        value, i = self._locate(p)
        if value.sign() != 0:
            raise ValueError(f"point ({p.x1}, {p.x2}) is not on the polygon boundary")
        return self._arc_at(ZERO, i, p)

    def arc_to_point(self, s: ScalarLike) -> Point:
        """Inverse of point_to_arc, taking s modulo the perimeter."""
        return self._advance(self._arc_view(ZERO), 0, qf(s), None)

    def _arc_at(self, h: QField, i: int, p: Point) -> QField:
        """The arc coordinate of p, a point of {F = h} on edge i, along the
        level polygon {F >= h}."""
        view = self._arc_view(h)
        return _reduced(*self._arc_pair(view, i, *_row(p, view[4])))

    def _advance(self, view: tuple, i: int, t: ScalarLike, p: Point | None) -> Point:
        """Move p, a point on edge i of this polygon and on the level of the
        view (``_arc_view`` of h, so F(p) = h), by arc length t
        counterclockwise along the level polygon {F >= h}: the one advance
        pass over the level read at h.  With p None the pass starts
        at arc 0, so it returns the point at arc t.

        p goes in as a point row (``plane._row``), ``_arc_pair`` gives its
        arc, ``_arc_point`` moves it by t on integers, and the image row is
        reduced to the one ``Point`` here.
        """
        arc = (0, 0, *view[3:]) if p is None else self._arc_pair(view, i, *_row(p, view[4]))
        return _row_point(*self._arc_point(view, *arc, qf(t)))

    def _arc_pair(self, view: tuple, i: int, row: tuple, d: int | None) -> tuple[int, int, int, int | None]:
        """The arc coordinate of the point row ``row``, its radicand d
        already merged with the view's, a point of the view's level on edge
        i of this polygon, as an integer pair over a multiple M of the view's
        denominator: ``(a, b, M, d)`` for (a + b*sqrt(d)) / M in [0, perimeter).

        The level edge through the point is the first alive edge from i on:
        edge i itself, or, at the death level of edge i, the alive edge that
        starts at the corner where edge i shrank to a point.  With the point
        over P, the offset along that edge is lambda = (p - start) / w for
        the first nonzero entry w of the direction, so the coordinate is
        prefix + lambda over M = P*D*|w|.
        """
        alive, base, rows, D, _ = view
        m = len(alive)
        k = (bisect_left(alive, i) - base) % m
        S, Sb, X1, Y1, X2, Y2, u, v = rows[k]
        A1, B1, A2, B2, P = row
        if u:
            w, a, b = u, A1 * D - X1 * P, B1 * D - Y1 * P
        else:
            w, a, b = v, A2 * D - X2 * P, B2 * D - Y2 * P
        if w < 0:
            w, a, b = -w, -a, -b
        scale = P * w
        a, b = a + S * scale, b + Sb * scale
        # only the end of the edge before the base vertex reaches the perimeter
        if k == m - 1 and (a, b) == (rows[m][0] * scale, rows[m][1] * scale):
            a = b = 0
        return a, b, D * scale, d

    def _arc_point(self, view: tuple, a: int, b: int, M: int, d: int | None,
                   t: QField) -> tuple[tuple[int, int, int, int, int], int | None]:
        """The point of the view's level at arc (a + b*sqrt(d)) / M + t modulo
        its perimeter, for M a multiple of the view's denominator D, as a
        point row and its radicand.

        The arc s = (a + b*sqrt(d)) / M + t is one integer pair, reduced by
        ``_mod``; its edge is the last one whose prefix is at most s, found
        by bisecting the prefix rows with sign tests.  Two radicands are
        refused, named as ``QField`` arithmetic on the arc names them: an
        irrational arc meets t in the sum arc + t; a rational one meets it in
        the quotient s / perimeter when the perimeter is irrational (t's
        radicand first), else at the edge's start vertex plus the offset.
        """
        _, _, rows, D, _ = view
        A, B, Dt, dt = t._v
        n = len(rows) - 1
        d = _merge_radicand(d, dt) if b or not rows[n][1] else _merge_radicand(dt, d)
        a, b, M = a * Dt + A * M, b * Dt + B * M, M * Dt
        scale = M // D
        a, b = _mod(a, b, rows[n][0] * scale, rows[n][1] * scale, d)
        lo, hi = 0, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            at_or_past = _sign(a - rows[mid][0] * scale, b - rows[mid][1] * scale, d) >= 0
            lo, hi = (mid, hi) if at_or_past else (lo, mid)
        S, Sb, X1, Y1, X2, Y2, u, v = rows[lo]
        a, b = a - S * scale, b - Sb * scale
        return (X1 * scale + a * u, Y1 * scale + b * u, X2 * scale + a * v, Y2 * scale + b * v, M), d

    # -- transforms and serialization ---------------------------------------

    def transform(self, m: UnimodularAffineMap) -> "Polygon":
        pts = [m.apply(v) for v in self.vertices]
        if m.det == -1:
            pts.reverse()
        return Polygon(pts)

    def to_json_obj(self) -> dict:
        return {"vertices": [point_to_json(v) for v in self.vertices]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Polygon":
        verts = obj.get("vertices") if isinstance(obj, dict) else None
        if not isinstance(verts, list):
            raise ValueError("polygon object needs a 'vertices' list")
        return cls([point_from_json(v) for v in verts])

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "Polygon":
        return cls.from_json_obj(json_from_text(text))


def solve_equidistant_triple(e1: Edge, e2: Edge, e3: Edge) -> tuple[Point, QField] | None:
    """Solve ``<n_i, x> + k_i = t`` for three edges; None when singular.

    One ``_meeting`` of the three edges' integer rows; offsets in two
    radicands are a ``ValueError``.
    """
    rows, L, d = _line_rows((e1, e2, e3))
    meet = _meeting(*rows, L)
    if meet is None:
        return None
    t, x1, x2 = meet
    return _point(_reduced(*x1, d), _reduced(*x2, d)), _reduced(*t, d)


def clip_halfplane(
    points: Sequence[Point], normal: LatticeVector, offset: QField
) -> list[Point]:
    """Clip a ccw vertex loop against the half-plane <normal, x> + offset >= 0.

    No library code calls it: ``render`` clips its strip regions on integer
    rows.  It stays as the reference that the tests hold the level sets and
    those strip regions to, and because ``bench/tracing.py`` wraps it.
    """
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


def point_to_json(p: Point | tuple[QField, QField]) -> list[str]:
    """The JSON pair ``["p/q", "p/q"]`` of a point, or of any two scalars."""
    x1, x2 = p
    return [str(qf(x1)), str(qf(x2))]


def point_from_json(value: object) -> Point:
    """Read a JSON pair: a list of exactly two scalars (strings or integers)."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected a pair of scalars, got {value!r}")
    return Point(*value)


def json_from_text(text: str) -> object:
    """``json.loads``, with JSON nested too deeply to parse as a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _line_rows(lines: Sequence) -> tuple[tuple[tuple[int, int, int, int], ...], int, int | None]:
    """The integer rows (n_u, n_v, A_k, B_k) of lines with a ``normal`` and an
    ``offset`` (polygon edges, strip shears), every offset
    k = (A_k + B_k*sqrt(d)) / L over one common denominator L; then L and d."""
    L, d, offsets = _over(*(line.offset for line in lines))
    return tuple((e.normal.u, e.normal.v, A, B) for e, (A, B) in zip(lines, offsets)), L, d


def _solve(r0: tuple[int, ...], r1: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    """Cramer's rule for two integer rows (u, v, a, b), each the line
    u*x1 + v*x2 = a + b*sqrt(d): ``(X, Xs, Y, Ys, det)`` for the meeting point
    x1 = (X + Xs*sqrt(d)) / det, x2 = (Y + Ys*sqrt(d)) / det; det is 0 when
    the lines are parallel."""
    (u0, v0, a0, b0), (u1, v1, a1, b1) = r0, r1
    det = u0 * v1 - v0 * u1
    return a0 * v1 - a1 * v0, b0 * v1 - b1 * v0, a1 * u0 - a0 * u1, b1 * u0 - b0 * u1, det


def _meeting(rp: tuple, ri: tuple, rq: tuple, L: int) -> tuple[tuple[int, int, int], ...] | None:
    """Where the lines <n, x> + k = t of three edge rows (n_u, n_v, A, B),
    k = (A + B*sqrt(d)) / L, meet: ``(t, x1, x2)``, each an integer triple
    (A, B, M) for (A + B*sqrt(d)) / M over one M > 0; None when det is 0.

    Row i subtracted from rows p and q leaves a 2x2 system whose solution
    is over L*det, and t is row i's value there.
    """
    ui, vi, Ai, Bi = ri
    X, Xs, Y, Ys, det = _solve(
        (rp[0] - ui, rp[1] - vi, Ai - rp[2], Bi - rp[3]),
        (rq[0] - ui, rq[1] - vi, Ai - rq[2], Bi - rq[3]),
    )
    if not det:
        return None
    if det < 0:
        X, Xs, Y, Ys, det = -X, -Xs, -Y, -Ys, -det
    M = L * det
    t = (ui * X + vi * Y + Ai * det, ui * Xs + vi * Ys + Bi * det, M)
    return t, (X, Xs, M), (Y, Ys, M)


def _mod(a: int, b: int, pa: int, pb: int, d: int | None) -> tuple[int, int]:
    """(a + b*sqrt(d)) modulo (pa + pb*sqrt(d)) > 0, by ``scalars._floor`` of
    the quotient, whose denominator is the norm pa^2 - pb^2*d."""
    if d is None:
        q = a // pa
    else:
        N = pa * pa - pb * pb * d
        s = 1 if N > 0 else -1
        q = _floor(s * (a * pa - b * pb * d), s * (b * pa - a * pb), s * N, d)
    return a - q * pa, b - q * pb


def _loop_area_twice(loop: Sequence[Point]) -> QField:
    """Twice the signed area of a vertex loop, by the shoelace formula."""
    total = qf(0)
    n = len(loop)
    for i in range(n):
        a, b = loop[i], loop[(i + 1) % n]
        total = total + (a.x1 * b.x2 - a.x2 * b.x1)
    return total


def _passes(edges: Sequence[Edge]) -> list[int]:
    """The corners i where the edge directions pass out of the half-turn
    that points left or straight down (u < 0, or u = 0 and v < 0).

    Directions that turn left at every corner pass once per winding.  On
    a strictly convex counterclockwise loop the one pass is at the
    lexicographically smallest vertex, the arc origin: the edge into it
    points left or down, the edge out of it right or up.
    """
    left = [w.u < 0 or (w.u == 0 and w.v < 0) for w in (e.direction for e in edges)]
    return [i for i in range(len(left)) if left[i - 1] and not left[i]]


def check_shape(a: QField, b: QField, c: QField) -> None:
    """The chopped-rectangle shape constraints a >= b > 0 and 0 < c < b/2,
    as a ``ValueError``; ``ConstructionParams`` and ``atfkit mcg`` both
    check them here."""
    if not (a >= b and b.sign() > 0):
        raise ValueError("parameters require a >= b > 0")
    if not (c.sign() > 0 and c < b / 2):
        raise ValueError("parameter c must satisfy 0 < c < b/2")


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
        check_shape(self.a, self.b, self.c)
        bound = min(self.c, self.b / 2 - self.c)
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
    return Polygon(_blowup_corners(params))


def _blowup_corners(params: ConstructionParams) -> tuple[Point, ...]:
    """The five corners of ``build_blowup_polygon`` in closed form, from
    (-a/2, -b/2) counterclockwise."""
    a, b, c = params.a / 2, params.b / 2, params.c
    return tuple(_point(x1, x2) for x1, x2 in ((-a, -b), (a - c, -b), (a, c - b), (a, b), (-a, b)))


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
    "check_shape",
    "clip_halfplane",
    "solve_equidistant_triple",
    "centered_rectangle",
    "build_blowup_polygon",
    "catalog",
    "catalog_names",
]
