"""Shared generators for the test suite.

Everything is seeded and exact: random inputs are built from Fractions so
oracles can be evaluated independently of the library's scalar type.
Random parameters, interior points and unimodular maps come from
``atfkit.verify``, so the tests and the ``verify`` battery share one set
of generators.
"""

import bisect
import copy
import heapq
import json
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from atfkit import ConstructionParams, LatticeVector, Point, QField, qf
from atfkit import orbits, scalars
from atfkit.diagram import build_pi0
from atfkit.plane import _row, _row_point, as_point, cross, delta, dot, lex_less, move, primitive
from atfkit.polygon import Edge, Polygon, _line_rows, _passes
from atfkit.recurrence import VerificationError, apply_rounds


# hypothesis caches the constants of local source files in its home
# directory, even without an example database; keep it out of the checkout
HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[HYPOTHESIS_HOME].cleanup()


def random_triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """A valid (a, b, c) with a >= b > 0 and 0 < c < b/2, all Fractions."""
    b = Fraction(rng.randint(2, 12), rng.randint(1, 3))
    a = b + Fraction(rng.randint(0, 9), rng.randint(1, 3))
    c = b * Fraction(rng.randint(1, 9), 20)
    return a, b, c


def edge_samples(poly: Polygon, per_edge: int) -> list[Point]:
    """Every vertex plus ``per_edge`` interior points of every edge."""
    points = list(poly.vertices)
    for i, edge in enumerate(poly.edges):
        v = poly.vertices[i]
        for k in range(1, per_edge + 1):
            lam = edge.length * Fraction(k, per_edge + 1)
            points.append(
                Point(v.x1 + lam * edge.direction.u, v.x2 + lam * edge.direction.v)
            )
    return points


def convex_hull(points) -> list:
    """Counterclockwise hull of distinct (x, y) Fractions, collinear points dropped."""
    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    pts = sorted(set(points))
    return chain(pts)[:-1] + chain(pts[::-1])[:-1]


def random_hulls(rng: random.Random, count: int) -> list[Polygon]:
    """Hulls with 3 to 14 vertices of rational points r (1 - t^2, 2t) / (1 + t^2)
    near a circle; few are Delzant and most have edges that grow as the
    level rises."""
    hulls = []
    while len(hulls) < count:
        points = []
        for _ in range(rng.randint(3, 20)):
            r, t = rng.randint(21, 24), Fraction(rng.randint(-30, 30), rng.randint(1, 6))
            points.append((r * (1 - t * t) / (1 + t * t), r * 2 * t / (1 + t * t)))
        verts = convex_hull(points)
        if 3 <= len(verts) <= 14:
            hulls.append(Polygon(verts))
    return hulls


# The QField predicates and ``direction_of`` that ``atfkit.plane`` had
# before their integer passes, kept verbatim (only the names differ) as the
# oracle for those passes.


def qfield_orient(o: Point, a: Point, b: Point) -> int:
    """Sign of the turn o -> a -> b: +1 left, -1 right, 0 collinear."""
    ax, ay = delta(o, a)
    bx, by = delta(o, b)
    return (ax * by - ay * bx).sign()


def qfield_on_segment(p: Point, a: Point, b: Point) -> bool:
    """True when p lies on the closed segment [a, b]."""
    if qfield_orient(a, b, p) != 0:
        return False
    lo1, hi1 = sorted((a.x1, b.x1))
    lo2, hi2 = sorted((a.x2, b.x2))
    return lo1 <= p.x1 <= hi1 and lo2 <= p.x2 <= hi2


def qfield_segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when the closed segments [a,b] and [c,d] share any point."""
    o1 = qfield_orient(a, b, c)
    o2 = qfield_orient(a, b, d)
    o3 = qfield_orient(c, d, a)
    o4 = qfield_orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and qfield_on_segment(c, a, b):
        return True
    if o2 == 0 and qfield_on_segment(d, a, b):
        return True
    if o3 == 0 and qfield_on_segment(a, c, d):
        return True
    if o4 == 0 and qfield_on_segment(b, c, d):
        return True
    return False


def qfield_direction_of(a: Point, b: Point) -> tuple[LatticeVector, QField]:
    """Primitive lattice direction and affine length of the segment a -> b.

    Requires ``b - a`` to be a scalar multiple of an integer vector; a
    segment with an irrational direction slope is rejected.
    """
    dx, dy = delta(a, b)
    if dx.sign() == 0 and dy.sign() == 0:
        raise ValueError("degenerate segment has no direction")
    if dx.sign() == 0:
        w = LatticeVector(0, dy.sign())
        return w, abs(dy)
    if dy.sign() == 0:
        w = LatticeVector(dx.sign(), 0)
        return w, abs(dx)
    ratio = dy / dx
    if not ratio.is_rational():
        raise ValueError("segment direction is not rational")
    r = ratio.as_fraction()
    w = primitive(LatticeVector(r.denominator, r.numerator))
    if w.u * dx.sign() < 0 or (w.u == 0 and w.v * dy.sign() < 0):
        w = -w
    length = dx / w.u if w.u != 0 else dy / w.v
    return w, length


# The per-edge loop that ``Polygon.__init__`` had before its one integer
# pass, kept verbatim (only the names differ: it calls the QField direction
# rule above, and it returns what the constructor stores instead of setting
# it) as the oracle for that pass.


def edge_loop_polygon(vertices) -> tuple:
    """``(vertices, edges, rows, base)`` of the polygon on these vertices."""
    verts = tuple(as_point(v) for v in vertices)
    if len(verts) < 3:
        raise ValueError("a polygon needs at least three vertices")
    n = len(verts)
    edges = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        direction, length = qfield_direction_of(a, b)
        normal = direction.perp()  # left of travel points inward for ccw
        offset = -dot(normal, a)
        edges.append(Edge(normal, offset, direction, length))
    # strictly convex and counterclockwise: every corner turns left and
    # the edge directions wind exactly once
    for i in range(n):
        if cross(edges[i - 1].direction, edges[i].direction) <= 0:
            raise ValueError(
                "vertices must be strictly convex in counterclockwise order"
            )
    passes = _passes(edges)
    if len(passes) != 1:
        raise ValueError(
            f"vertices wind {len(passes)} times around the polygon, not once"
        )
    return verts, tuple(edges), _line_rows(edges), passes[0]


# The QField arc path that ``Polygon`` and ``atfkit.recurrence`` had before
# the integer arc rows, kept verbatim (only the names differ, and methods
# became functions of the polygon) as the oracle for the rows and for the
# one advance pass.


def qfield_arcs(self: Polygon) -> tuple[QField, ...]:
    """Arc coordinates of the vertices from the base vertex on, then the
    perimeter."""
    n = len(self.vertices)
    prefix = [qf(0)]
    for k in range(n):
        prefix.append(prefix[-1] + self.edges[(self._base + k) % n].length)
    return tuple(prefix)


def qfield_arc_of_vertex(self: Polygon, i: int) -> QField:
    n = len(self.vertices)
    return qfield_arcs(self)[(i - self._base) % n]


def qfield_point_to_arc(self: Polygon, p: Point) -> QField:
    """Counterclockwise boundary arc coordinate in [0, perimeter).

    Measured in lattice length from the lexicographically smallest
    vertex.  Errors when p is not on the boundary.
    """
    value, i = self._locate(p)[:2]
    if value.sign() != 0:
        raise ValueError(f"point ({p.x1}, {p.x2}) is not on the polygon boundary")
    edge, v = self.edges[i], self.vertices[i]
    if edge.direction.u != 0:
        lam = (p.x1 - v.x1) / edge.direction.u
    else:
        lam = (p.x2 - v.x2) / edge.direction.v
    # the end of the edge before the base vertex has arc = perimeter
    s, per = qfield_arc_of_vertex(self, i) + lam, qfield_arcs(self)[-1]
    return s - per if s >= per else s


def qfield_arc_to_point(self: Polygon, s) -> Point:
    """Inverse of point_to_arc; s is taken modulo the perimeter."""
    s = qf(s)
    prefix = qfield_arcs(self)
    per = prefix[-1]
    s = s - scalars.floor(s / per) * per
    # 0 <= s < per, so the edge is the last one that starts at or before s
    k = bisect.bisect_right(prefix, s) - 1
    i = (self._base + k) % len(self.vertices)
    return move(self.vertices[i], self.edges[i].direction, s - prefix[k])


def qfield_advance(poly: Polygon, h: QField, t: QField, p: Point) -> Point:
    """Move p, known to lie on {F = h}, by arc length t along that level."""
    if not t:
        return p
    level = poly.level_set(h)
    return qfield_arc_to_point(level, qfield_point_to_arc(level, p) + t)


# The QField taper that ``recurrence.rotation_amount`` had before it became
# the reduction of the integer advance, kept verbatim (only the name
# differs) as the oracle for that advance.


def qfield_rotation_amount(params: ConstructionParams, h) -> QField:
    """The smoothed advance r(h): c - h up to c - eps, 0 from c + eps on."""
    h = qf(h)
    if h.sign() < 0:
        raise ValueError("level must be nonnegative")
    # c - h as -(h - c), so a level of another radicand is named first
    g, eps = h - params.c, params.eps
    if (d := -g) >= eps:
        return d
    if g >= eps:
        return qf(0)
    return d * (d + eps) / (2 * eps)


# The level path that ``Polygon.level_set`` had before it read its corners
# from the integer level read, kept verbatim (only the names differ, and the
# memo is left out) as the oracle for that read: the QField vertices of
# {F >= h} pass through the public constructor.


def level_vertices(edges, h: QField) -> list[Point]:
    """Vertices of {F >= h}: where neighbouring shifted edge lines meet."""
    points = []
    for e0, e1 in zip(edges[-1:] + edges[:-1], edges):
        n0, n1 = e0.normal, e1.normal
        r0, r1 = h - e0.offset, h - e1.offset
        det = cross(n0, n1)
        points.append(Point((r0 * n1.v - r1 * n0.v) / det, (r1 * n0.u - r0 * n1.u) / det))
    return points


def constructed_level_set(self: Polygon, h) -> Polygon:
    """The inner parallel polygon {F >= h}; h = 0 gives the polygon."""
    h = qf(h)
    if h.sign() < 0:
        raise ValueError("level must be nonnegative")
    if h.sign() == 0:
        return self
    deaths, top, _ = self._edge_deaths()
    if h >= top:
        raise ValueError(f"level {h} is not below the maximum distance")
    return Polygon(level_vertices([e for e, t in zip(self.edges, deaths) if t > h], h))


# The map self-check that ``atfkit.recurrence`` had before it ran on point
# rows, kept verbatim (only the names differ, and the advance pass now
# takes the level, the sample's point row and the advance's integers) as the
# oracle for that grid: a level polygon per level, its vertices and edge
# midpoints (``edge_samples``), and every sample through ``apply_rounds`` and
# ``Polygon._arc_pair`` and ``Polygon._arc_point`` as a ``Point``.


def point_verify_rounds(rm) -> None:
    poly, c, eps = rm.polygon, rm.params.c, rm.params.eps
    top = poly.max_distance()[0]
    # levels below the taper advance by c - h; the two above it stay fixed
    checks = [(h, c - h) for h in ((c - eps) * k / 4 for k in range(4))]
    checks += [(h, 0) for h in (c + eps, (c + eps + top) / 2)]
    for h, advance in checks:
        level = poly.level_set(h)
        n, (alive, _, d) = len(level.edges), poly._corners(h)
        # sample j is a vertex or an edge midpoint of level edge j mod n,
        # which is edge alive[j mod n] of the polygon
        for j, pt in enumerate(edge_samples(level, 1)):
            if advance:
                arc = poly._arc_pair(h, alive[j % n], *_row(pt, d))
                expected = _row_point(*poly._arc_point(h, arc, advance._v))
            else:
                expected = pt
            got = apply_rounds(rm, pt)
            if got == expected:
                continue
            image = f"({pt.x1}, {pt.x2}) -> ({got.x1}, {got.x2})"
            message = (
                f"round composite missed the arc rotation at level {h}: {image}, "
                f"expected ({expected.x1}, {expected.x2})"
                if advance
                else f"round composite moved a point on level {h}: {image}"
            )
            raise VerificationError(message, level=h, point=pt, got=got, expected=expected)


# The orbit histogram as it was read from one walk before it took the
# standard words of {bins*rho}, kept as the oracle for that change: with
# m = floor(bins*rho), the walk by bins*step - m*per wraps k_i times in its
# first i steps, and position i falls in bin (i*m + k_i) mod bins.


def walk_histogram(params: ConstructionParams, h, n: int, bins: int) -> list[int]:
    rows = orbits._rows(params, h)
    m = scalars.floor(bins * orbits.rotation_number(params, h))
    a1, b1 = bins * rows.a1 - m * rows.a2, bins * rows.b1 - m * rows.b2
    c1, c2 = a1 - rows.a2, b1 - rows.b2
    x = y = wraps = 0
    counts = [0] * bins
    for i in range(n):
        counts[(i * m + wraps) % bins] += 1
        if scalars._sign(x + c1, y + c2, rows.d) >= 0:
            x, y, wraps = x + c1, y + c2, wraps + 1
        else:
            x, y = x + a1, y + b1
    return counts


# An oracle for histograms at any n, from floor sums rather than words: bin
# j holds C((j+1)/bins) - C(j/bins) of the first n positions, where
# C(x) = #{i < n : {i*rho} < x} = S(n, rho, 0) - S(n, rho, 1 - x) + n and
# S(n, alpha, beta) = sum over i < n of floor(alpha*i + beta).  With the
# integer parts of alpha and beta taken out (as k*n(n-1)/2 and k*n),
# counting the same lattice points from the other side gives
# S(n, alpha, beta) = S(M, 1/alpha, {y}/alpha) for y = alpha*n + beta and
# M = floor(y), so n falls like a continued fraction, in QField throughout.


def floor_sum(n: int, alpha: QField, beta: QField) -> int:
    total = 0
    while n:
        k, j = scalars.floor(alpha), scalars.floor(beta)
        total += k * n * (n - 1) // 2 + j * n
        alpha, beta = alpha - k, beta - j
        y = alpha * n + beta
        M = scalars.floor(y)
        n, alpha, beta = M, 1 / alpha, (y - M) / alpha
    return total


def floor_sum_histogram(params: ConstructionParams, h, n: int, bins: int) -> list[int]:
    rho = orbits.rotation_number(params, h)
    total = floor_sum(n, rho, qf(0)) + n
    below = [0] + [total - floor_sum(n, rho, 1 - Fraction(j, bins)) for j in range(1, bins)] + [n]
    return [below[j + 1] - below[j] for j in range(bins)]


# The grid half of ``orbits.rho_monotone_check`` before its sign test alone
# became the proof, kept verbatim (only the name differs, and the grid
# size check is left out) as the oracle for that proof: rho strictly
# decreasing on ``grid_size`` evenly spaced levels of [0, c - eps].


def rho_decreases_on_grid(params: ConstructionParams, grid_size: int) -> bool:
    top = params.c - params.eps
    values = [
        orbits.rotation_number(params, top * i / (grid_size - 1)) for i in range(grid_size)
    ]
    return all(values[i] > values[i + 1] for i in range(grid_size - 1))


# The arc-origin scan that ``Polygon`` had before it took the base vertex
# from its winding scan, kept verbatim (only the name differs, and it
# returns the index) as the oracle for that scan.


def lex_base(poly: Polygon) -> int:
    """Index of the lexicographically smallest vertex."""
    verts = poly.vertices
    base = 0
    for i in range(1, len(verts)):
        if lex_less(verts[i], verts[base]):
            base = i
    return base


# The QField triple solve and edge-death schedule that ``atfkit.polygon``
# had before they moved onto the integer edge rows, kept verbatim (only the
# names differ, and the method became a function of the polygon without its
# memo) as the oracle for the one integer line-meeting solve.


def qfield_solve_equidistant_triple(e1: Edge, e2: Edge, e3: Edge) -> tuple[Point, QField] | None:
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


def qfield_edge_deaths(self: Polygon) -> tuple[list[QField], QField, Point]:
    """The edge-death schedule of the inward wavefront, built once: the
    lattice-weighted straight skeleton (Aichholzer et al., J.UCS 1995).

    Returns each edge's death level, max F and a maximizer.  An edge
    dies where the shifted lines of its two live neighbours meet on it;
    a meeting below the current level belongs to a growing edge and is
    never reached.  Deaths leave a heap keyed by (level, edge index)
    until two edges are left, and those two die at max F.
    """
    edges, n = self.edges, len(self.edges)
    prev, nxt = [(i - 1) % n for i in range(n)], [(i + 1) % n for i in range(n)]
    deaths, heap, level, top = [None] * n, [], qf(0), None

    def push(i):  # a meeting at the current level is a simultaneous death
        meet = qfield_solve_equidistant_triple(edges[prev[i]], edges[i], edges[nxt[i]])
        if meet and meet[1] >= level:
            heapq.heappush(heap, (meet[1], i, prev[i], nxt[i], meet[0]))

    for i in range(n):
        push(i)
    for _ in range(n - 2):
        t, i, p, q, point = heapq.heappop(heap)
        while deaths[i] is not None or (prev[i], nxt[i]) != (p, q):
            t, i, p, q, point = heapq.heappop(heap)
        if t != level:
            level, top = t, point
        deaths[i], nxt[p], prev[q] = t, q, p
        push(p)
        push(q)
    deaths = [level if t is None else t for t in deaths]
    return deaths, level, top


def qfield_decimal20(x) -> str:
    """Fixed 20-digit decimal expansion, round half to even, in QField
    arithmetic: the oracle of ``render._decimal20``."""
    scaled = qf(x) * 10**20
    m = scalars.floor(scaled)
    tie = (2 * (scaled - m) - 1).sign()
    if tie > 0 or (tie == 0 and m % 2 != 0):
        m += 1
    sign = "-" if m < 0 else ""
    whole, frac = divmod(abs(m), 10**20)
    return f"{sign}{whole}.{frac:020d}"


class QFieldScreen:
    """Model-to-screen transform with the y-axis flip, in QField arithmetic:
    the oracle of ``render._Screen``."""

    def __init__(self, diagram, scale):
        xs = [v.x1 for v in diagram.polygon.vertices]
        ys = [v.x2 for v in diagram.polygon.vertices]
        self.minx, self.maxy = min(xs), max(ys)
        self.scale = qf(scale)
        self.pad = qf(1) / 2

    def x(self, value: QField) -> QField:
        return (value - self.minx + self.pad) * self.scale

    def y(self, value: QField) -> QField:
        return (self.maxy + self.pad - value) * self.scale


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return ("value", f(*args))
    except ValueError as exc:
        return ("error", type(exc), str(exc))


def stuck_records(rows, count: int) -> tuple:
    """The ``orbits._records`` of a broken walk that stays at its start, for
    certificate tests: t_1 = 0, and per - t_1 = per."""
    return (1, 0, 0), (1, rows.a2, rows.b2)


# nesting far beyond the JSON parser's recursion limit
DEEP_LIST = "[" * 100_000 + "]" * 100_000

# polygon JSON text that must be refused: strings split into characters, a
# short pair, vertices that are not a list, vertices nested too deeply
HOSTILE_POLYGONS = {
    "string vertices": json.dumps({"vertices": ["00", "40", "04"]}),
    "short vertex": json.dumps({"vertices": [["0", "0"], ["4", "0"], ["1"]]}),
    "vertices not a list": json.dumps({"vertices": 5}),
    "deeply nested vertices": '{"vertices": ' + DEEP_LIST + "}",
    # edge offsets 0, sqrt(2), sqrt(3), 0: no one radicand serves every edge
    "mixed radicands": json.dumps({"vertices": [
        ["0", "0"], ["1*sqrt(2)", "0"], ["1*sqrt(2)", "1*sqrt(3)"], ["0", "1*sqrt(3)"]
    ]}),
}


def staircase_diagram(points: int) -> str:
    """Diagram JSON of one node at the origin, eigendirection (0, 1), on a
    rectangle: its cut goes up the eigenline, climbs unit steps (right,
    then up) through ``points`` path points in all, and ends on the
    boundary, so the diagram is valid and has points - 1 legs."""
    path = [[str(j // 2), str((j + 1) // 2)] for j in range(points)]
    right, top = str(points // 2), str((points + 1) // 2)
    return json.dumps({
        "polygon": {"vertices": [["-1", "-1"], [right, "-1"], [right, top], ["-1", top]]},
        "nodes": [{"position": ["0", "0"], "eigen_dir": [0, 1]}],
        "cuts": [{"node": 0, "path": path}],
    })


def hostile_diagrams() -> dict[str, str]:
    """Diagram JSON text that must be refused, by the way each one is malformed."""
    pi0 = build_pi0(ConstructionParams(4, 2, qf("1/2"), qf("1/8"))).to_json_obj()

    def changed(keys: tuple, value) -> dict:
        obj = copy.deepcopy(pi0)
        target = obj
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return obj

    traded_square = {
        "polygon": {"vertices": [["0", "0"], ["4", "0"], ["4", "4"], ["0", "4"]]},
        "nodes": [{"position": ["1", "1"], "eigen_dir": [1, 1]}],
        "cuts": [{"node": 0, "path": ["11", "00"]}],
    }
    cases = {
        "short node position": changed(("nodes", 0, "position"), ["1"]),
        "short slide point": changed(("provenance", -1, 2), {"point": ["1"]}),
        "object as scalar": changed(("provenance", 0), ["trade", 0, {"x": 1}]),
        "float index and scalar": changed(("provenance", 0), ["trade", 0.5, 1e300]),
        "float scalar": changed(("provenance", 0), ["trade", 0, 1e300]),
        "string record": changed(("provenance", 0), "abc"),
        "unknown tag": changed(("provenance", 0), ["twist", 0]),
        "wrong field count": changed(("provenance", 0), ["cut_transfer", 0, 1]),
        "string cut path": traded_square,
    }
    texts = {name: json.dumps(obj) for name, obj in cases.items()}
    texts["deeply nested document"] = DEEP_LIST
    # 8,000 legs: far above the leg limit, which pair tests cannot reach in time
    texts["staircase cut"] = staircase_diagram(8001)
    texts.update({name: '{"polygon": ' + poly + "}" for name, poly in HOSTILE_POLYGONS.items()})
    return texts
