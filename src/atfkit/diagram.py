"""Base diagrams: polygons decorated with nodes and branch cuts.

A :class:`BaseDiagram` records an almost toric fibration combinatorially:
the moment polygon, the focus-focus nodes in its interior (each with the
primitive eigendirection of its monodromy), and one branch cut per node, a
polyline from the node to the boundary whose first leg follows the
eigenline.  Cuts cross neither each other nor themselves: two consecutive
legs of a cut meet only at their joint, so a cut never folds back over
its previous leg.  Three moves transform diagrams:

* ``nodal_trade``   - smooth a Delzant corner into a node with a short cut;
* ``nodal_slide``   - move a node along its eigenline, keeping the cut;
* ``cut_transfer``  - swing a cut to the other side of its node, which
  re-coordinatizes the swept region by the node's monodromy.  The region
  is a counterclockwise loop out along one cut, along the boundary and
  back along the other; cuts that enclose no area are refused.

Every move validates its result, returns a new diagram, and appends a
provenance record, so a diagram carries its own construction history.
Validation alone decides what makes a diagram valid: a node off the
polygon's interior, a first leg off the eigenline, crossing cuts and a cut
naming another node are refused by it, whichever move made them.  A move
refuses only what its result cannot show: a trade whose parameter is not
positive or whose vertex is not a Delzant corner, a default trade
parameter with no ``params``, a slide to the node's own position, onto
its cut's anchor or past it, a transfer from a bent cut, and a transfer
whose cuts enclose no area or whose every sweep region holds another
node.  ``build_pi0`` trades and slides by the rules the two moves use and
validates its diagram once.  ``params`` is the shape the polygon was built
from, and a default trade parameter is its eps/2; it does not describe the
trades made: nothing checks it against the nodes or the trade records, and
only the recurrence map checks it, against the polygon's corners.
A record is a tuple in memory and a JSON list whose fields one table
fixes: ``["trade", vertex, param]``, ``["slide", node, {"point": old},
{"point": new}, band]`` (band: the range of F swept) and ``["cut_transfer",
node]``.  Points and bands are scalar pairs
``["p/q", "p/q"]``; malformed JSON raises ``ValueError``, and so does a
record that names a polygon vertex or a node the diagram lacks, a trade
whose parameter is not positive or whose vertex is not a Delzant corner,
or a slide whose points are equal or off the node's eigenline, whose band
is not the exact band of its points, or that breaks the node's chain of
slides (each starts where the one before ended, and the last ends at the
node), when it is read or written.  Validation tests every pair of cut
legs for a crossing, so a diagram whose cuts have more than ``LEG_LIMIT``
(256) legs in total is refused before any pair is tested.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from .plane import (
    LatticeVector,
    Point,
    UnimodularAffineMap,
    cross,
    direction_of,
    move,
    on_segment,
    orient,
    segments_intersect,
    unipotent_fixing,
)
from .polygon import (
    ConstructionParams,
    Polygon,
    _loop_area_twice,
    build_blowup_polygon,
    json_from_text,
    point_from_json,
    point_to_json,
)
from .scalars import QField, ScalarLike, qf

# the most cut legs, over all cuts, that a diagram may have: validation
# tests every pair of legs for a crossing
LEG_LIMIT = 256


@dataclass(frozen=True)
class Node:
    """A focus-focus node: interior position, primitive eigendirection."""

    position: Point
    eigen_dir: LatticeVector
    multiplicity: int = 1

    def __post_init__(self):
        if not self.eigen_dir.is_primitive():
            raise ValueError("node eigendirection must be primitive")
        if type(self.multiplicity) is not int or self.multiplicity < 1:
            raise ValueError(f"node multiplicity must be an integer >= 1: {self.multiplicity!r}")


@dataclass(frozen=True)
class BranchCut:
    """A branch cut: polyline from its node to a boundary point."""

    node_index: int
    path: tuple[Point, ...]

    def __post_init__(self):
        if type(self.node_index) is not int:
            raise ValueError(f"branch cut node index must be an integer, got {self.node_index!r}")

    def segments(self) -> list[tuple[Point, Point]]:
        return list(zip(self.path[:-1], self.path[1:]))


@dataclass(frozen=True)
class BaseDiagram:
    """A moment polygon with nodes, branch cuts, and construction history."""

    polygon: Polygon
    nodes: tuple[Node, ...] = ()
    cuts: tuple[BranchCut, ...] = ()
    provenance: tuple = ()
    params: ConstructionParams | None = None

    def __post_init__(self):
        _validate_diagram(self)

    def same_geometry(self, other: "BaseDiagram") -> bool:
        """Equality of polygon, nodes, and cuts, ignoring history."""
        return (
            self.polygon == other.polygon
            and self.nodes == other.nodes
            and self.cuts == other.cuts
        )

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        obj: dict = {
            "polygon": self.polygon.to_json_obj(),
            "nodes": [
                {
                    "position": point_to_json(n.position),
                    "eigen_dir": [n.eigen_dir.u, n.eigen_dir.v],
                    "multiplicity": n.multiplicity,
                }
                for n in self.nodes
            ],
            "cuts": [
                {"node": c.node_index, "path": [point_to_json(p) for p in c.path]}
                for c in self.cuts
            ],
            "provenance": [_move_to_json(record) for record in self.provenance],
        }
        if self.params is not None:
            obj["params"] = {f.name: str(getattr(self.params, f.name)) for f in fields(self.params)}
        # nothing is written that from_json_obj would refuse
        _check_history(self)
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BaseDiagram":
        try:
            poly = Polygon.from_json_obj(obj["polygon"])
            nodes = tuple(
                Node(
                    point_from_json(n["position"]),
                    LatticeVector(*n["eigen_dir"]),
                    n.get("multiplicity", 1),
                )
                for n in obj.get("nodes", ())
            )
            cuts = tuple(
                BranchCut(c["node"], tuple(point_from_json(p) for p in c["path"]))
                for c in obj.get("cuts", ())
            )
            provenance = tuple(_move_from_json(e) for e in obj.get("provenance", ()))
            params = None
            if "params" in obj:
                p = obj["params"]
                params = ConstructionParams(*(p[f.name] for f in fields(ConstructionParams)))
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed diagram JSON: {exc!r}") from None
        diagram = cls(poly, nodes, cuts, provenance, params)
        _check_history(diagram)
        return diagram

    @classmethod
    def from_json(cls, text: str) -> "BaseDiagram":
        return cls.from_json_obj(json_from_text(text))


@dataclass(frozen=True)
class PiecewiseMap:
    """A chart transition: affine on one region, identity outside.

    ``region`` is a simple loop; ``cut_transfer`` returns it
    counterclockwise.  ``apply`` re-coordinatizes a point drawn in the
    source chart: points strictly inside the region get the region map,
    everything else (including region-boundary points) stays put.  Along
    the removed branch cut the two prescriptions agree because the
    monodromy fixes the cut line pointwise; that is what makes the
    transition continuous.

    Transitions over the *same* region compose formally: the composite
    keeps the region and multiplies the affine maps.  A transfer followed
    by the reverse transfer composes to the identity transition.
    """

    region: tuple[Point, ...]
    region_map: UnimodularAffineMap

    def apply(self, p: Point) -> Point:
        if _loop_contains(self.region, p):
            return self.region_map.apply(p)
        return p

    def compose(self, earlier: "PiecewiseMap") -> "PiecewiseMap":
        """The transition ``self after earlier``; regions must be one loop, read any way."""
        if _loop_edges(self.region) != _loop_edges(earlier.region):
            raise ValueError("piecewise maps act on different regions")
        return PiecewiseMap(
            region=earlier.region,
            region_map=self.region_map.compose(earlier.region_map),
        )

    def is_identity(self) -> bool:
        return self.region_map == UnimodularAffineMap.identity()


def _index(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"move index must be an integer, got {value!r}")
    return value


# (write, read) codecs: the tag's, and those of the fields that follow each tag
_TAG = (str, str)
_INDEX = (_index, _index)
_SCALAR = (lambda x: str(qf(x)), qf)
_POINT = (lambda p: {"point": point_to_json(p)}, lambda obj: point_from_json(obj["point"]))
_BAND = (point_to_json, lambda obj: tuple(point_from_json(obj)))
_MOVES = {
    "trade": (_INDEX, _SCALAR),
    "slide": (_INDEX, _POINT, _POINT, _BAND),
    "cut_transfer": (_INDEX,),
}


def _move_codecs(record: object) -> tuple:
    """The codecs of a move record, tag first; ValueError unless it fits the table."""
    tag = record[0] if isinstance(record, (list, tuple)) and record else None
    codecs = _MOVES.get(tag) if isinstance(tag, str) else None
    if codecs is None or len(record) != 1 + len(codecs):
        raise ValueError(f"not a move record: {record!r}")
    return (_TAG,) + codecs


def _move_to_json(record: tuple) -> list:
    return [write(v) for (write, _), v in zip(_move_codecs(record), record)]


def _move_from_json(record: list) -> tuple:
    return tuple(read(v) for (_, read), v in zip(_move_codecs(record), record))


# -- validation -----------------------------------------------------------


def _validate_diagram(diagram: BaseDiagram) -> None:
    if (legs := sum(len(cut.path) - 1 for cut in diagram.cuts)) > LEG_LIMIT:
        raise ValueError(f"cuts have {legs} legs in total, above the limit {LEG_LIMIT}")
    poly = diagram.polygon
    if len(diagram.nodes) != len(diagram.cuts):
        raise ValueError("each node needs exactly one branch cut")
    for idx, (node, cut) in enumerate(zip(diagram.nodes, diagram.cuts)):
        if cut.node_index != idx:
            raise ValueError(f"cut {idx} does not reference its node")
        if not poly.contains(node.position, strict=True):
            raise ValueError(f"node {idx} must lie strictly inside the polygon")
        if len(cut.path) < 2:
            raise ValueError(f"cut {idx} needs at least two path points")
        if cut.path[0] != node.position:
            raise ValueError(f"cut {idx} must start at its node")
        if not poly.on_boundary(cut.path[-1]):
            raise ValueError(f"cut {idx} must end on the polygon boundary")
        for p in cut.path[1:-1]:
            if not poly.contains(p, strict=True):
                raise ValueError(f"cut {idx} leaves the polygon")
    # each pair of legs once; cuts start at their nodes, so a node on another cut is a crossing
    legs = [
        (i, k, a, b)
        for i, cut in enumerate(diagram.cuts)
        for k, (a, b) in enumerate(cut.segments())
    ]
    for m, (i, k, a, b) in enumerate(legs):
        leg_dir, _ = direction_of(a, b)  # raises on irrational or degenerate legs
        if k == 0 and cross(leg_dir, diagram.nodes[i].eigen_dir) != 0:
            raise ValueError(f"cut {i} must leave its node along the eigenline")
        # consecutive legs share their joint; they overlap beyond it only
        # when the cut turns straight back
        if k > 0 and leg_dir == -prev_dir:
            raise ValueError(f"cut {i} self-intersects")
        prev_dir = leg_dir
        for j, l, c, d in legs[m + 1 :]:
            if (i == j and l == k + 1) or not segments_intersect(a, b, c, d):
                continue
            if i == j:
                raise ValueError(f"cut {i} self-intersects")
            raise ValueError(f"cuts {i} and {j} intersect")


def _check_history(diagram: BaseDiagram) -> None:
    """Refuse a move record that no move writes on this diagram: one that
    indexes a polygon vertex or a node the diagram does not have (the
    polygon stays and nodes are only added), a trade that fails the trade's
    own checks (``_checked_trade``), or a slide that ``nodal_slide`` would
    not have recorded (``_check_slide``).  Each node's slides must also form
    a chain, each starting where the one before it ended, and the last must
    end at the node's position.  Each record has passed the move table
    (``_move_codecs``).  A trade's node is not tested against the polygon
    here: that test costs several times the checks made here, and a
    diagram is checked on each read and write."""
    nodes = ("node", len(diagram.nodes))
    sizes = {"trade": ("vertex", len(diagram.polygon.vertices)), "slide": nodes, "cut_transfer": nodes}
    ends: dict[int, tuple[int, Point]] = {}  # node -> (record, end) of its last slide so far
    for k, record in enumerate(diagram.provenance):
        what, n = sizes[record[0]]
        try:
            if not 0 <= record[1] < n:
                raise ValueError(f"{what} index {record[1]} is not in range({n})")
            if record[0] == "trade":
                _checked_trade(diagram.polygon, *record[1:])
            elif record[0] == "slide":
                _check_slide(diagram, *record[1:], ends.get(record[1]))
                ends[record[1]] = (k, record[3])
        except ValueError as exc:
            raise ValueError(f"provenance record {k}: {exc}") from None
    for i, (k, end) in ends.items():
        if end != diagram.nodes[i].position:
            raise ValueError(f"provenance record {k}: slide of node {i} ends at {end}, "
                             f"not at the node's position {diagram.nodes[i].position}")


def _check_slide(diagram: BaseDiagram, i: int, old: Point, new: Point, band: tuple, last: tuple | None) -> None:
    """Refuse a slide record of node i unless its two points differ and lie
    on the node's eigenline, its band is ``_distance_band`` of the two, and
    it starts where the node's previous slide ``last``, ``(record, end)`` or
    None, ended."""
    node = diagram.nodes[i]
    if old == new:
        raise ValueError(f"slide of node {i} starts and ends at {old}")
    ahead = move(node.position, node.eigen_dir, 1)
    for p in (old, new):
        if orient(node.position, ahead, p):
            raise ValueError(f"slide point {p} is not on the eigenline of node {i}")
    if (exact := _distance_band(diagram.polygon, old, new)) != tuple(band):
        raise ValueError(f"slide band ({band[0]}, {band[1]}) is not the distance band ({exact[0]}, {exact[1]})")
    if last is not None and old != last[1]:
        raise ValueError(f"slide of node {i} starts at {old}, not at {last[1]} where record {last[0]} ended")


# -- region bookkeeping for cut transfer -----------------------------------


def _loop_contains(loop: tuple[Point, ...], p: Point) -> bool:
    """Strict interior test for a simple (not necessarily convex) loop."""
    winding = 0
    for a, b in zip(loop, loop[1:] + loop[:1]):
        if on_segment(p, a, b):
            return False
        if a.x2 <= p.x2:
            if b.x2 > p.x2 and orient(a, b, p) > 0:
                winding += 1
        elif b.x2 <= p.x2 and orient(a, b, p) < 0:
            winding -= 1
    return winding != 0


def _loop_simple(loop: tuple[Point, ...]) -> bool:
    n = len(loop)
    segs = [(loop[i], loop[(i + 1) % n]) for i in range(n)]
    # a segment shares an end with the next one, and the last with the first
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if segments_intersect(*segs[i], *segs[j]):
                return False
    return True


def _clean_loop_points(points: list[Point]) -> tuple[Point, ...]:
    """The loop with repeated consecutive points dropped.  A sweep loop starts
    at the node and ends on the trailing cut's first leg, never at the node,
    so it has no closing repeat."""
    out: list[Point] = []
    for p in points:
        if not out or out[-1] != p:
            out.append(p)
    return tuple(out)


def _boundary_walk_ccw(poly: Polygon, start: Point, stop: Point) -> list[Point]:
    """Polygon vertices strictly between two boundary points, going ccw;
    none from a point to itself."""
    s1 = poly.point_to_arc(start)
    s2 = poly.point_to_arc(stop)
    per = poly.perimeter()
    if s2 < s1:
        s2 = s2 + per
    # the vertices in arc order from the base vertex, then once more a perimeter on
    n, base = len(poly.vertices), poly.base_index
    ring = [(base + k) % n for k in range(n)]
    return [
        poly.vertices[i]
        for shift in (0, per)
        for i in ring
        if s1 < poly.arc_of_vertex(i) + shift < s2
    ]


def _canonical_region_key(loop: tuple[Point, ...]) -> tuple:
    return tuple(sorted((str(p.x1), str(p.x2)) for p in loop))


def _loop_edges(loop: tuple[Point, ...]) -> frozenset:
    return frozenset(frozenset(edge) for edge in zip(loop, loop[1:] + loop[:1]))


# -- the moves --------------------------------------------------------------


def nodal_trade(
    diagram: BaseDiagram, vertex_index: int, param: ScalarLike | None = None
) -> BaseDiagram:
    """Replace the Delzant corner at ``vertex_index`` by a node and cut.

    The node sits at ``vertex + param * w`` where w is the primitive sum of
    the two edge directions pointing away from the corner, and the cut runs
    straight back to the (former) corner point.  ``param`` defaults to
    eps/2 when the diagram carries construction parameters.
    """
    if param is None:
        if diagram.params is None:
            raise ValueError("trade needs a distance parameter")
        param = diagram.params.eps / 2
    node, cut, record = _traded_corner(diagram.polygon, vertex_index, param, len(diagram.nodes))
    return replace(
        diagram,
        nodes=diagram.nodes + (node,),
        cuts=diagram.cuts + (cut,),
        provenance=diagram.provenance + (record,),
    )


def _checked_trade(poly: Polygon, vertex_index: int, param: ScalarLike) -> tuple:
    """The parameter of a trade at a vertex and the directions of the edges
    into and out of the corner, refusing a parameter that is not positive and
    a vertex that is not a Delzant corner."""
    param = qf(param)
    if param.sign() <= 0:
        raise ValueError("trade parameter must be positive")
    e_in, e_out = poly.edges[vertex_index - 1].direction, poly.edges[vertex_index].direction
    if abs(cross(e_in, e_out)) != 1:
        raise ValueError(f"vertex {vertex_index} is not a Delzant corner")
    return param, e_in, e_out


def _traded_corner(poly: Polygon, vertex_index: int, param: ScalarLike, node_index: int) -> tuple:
    """The node, cut and provenance record of the trade at one corner."""
    vertex_index %= len(poly.vertices)
    param, e_in, e_out = _checked_trade(poly, vertex_index, param)
    # both pointing away from the corner; primitive, as a common divisor of
    # its entries divides its cross product with e_in, 1 or -1
    direction = -e_in + e_out
    vertex = poly.vertices[vertex_index]
    position = move(vertex, direction, param)
    cut = BranchCut(node_index, (position, vertex))
    return Node(position, direction), cut, ("trade", vertex_index, param)


def nodal_slide(
    diagram: BaseDiagram, node_index: int, new_position: Point
) -> BaseDiagram:
    """Move a node along its eigenline, dragging the near end of its cut.

    The move records the exact band of boundary-distance values swept, a
    certificate that the change is local to that band of level sets.  The
    slid diagram is validated, which refuses a target off the eigenline or
    not strictly inside the polygon and a swept segment that meets another
    cut: sliding toward the anchor sweeps part of the old first leg, which
    the diagram's own validation cleared, and sliding away sweeps part of
    the new first leg, which validation tests against every other leg.
    """
    node, cut, record = _slid_node(
        diagram.polygon, diagram.nodes[node_index], diagram.cuts[node_index], node_index, new_position
    )
    return replace(
        diagram,
        nodes=diagram.nodes[:node_index] + (node,) + diagram.nodes[node_index + 1 :],
        cuts=diagram.cuts[:node_index] + (cut,) + diagram.cuts[node_index + 1 :],
        provenance=diagram.provenance + (record,),
    )


def _slid_node(poly: Polygon, node: Node, cut: BranchCut, node_index: int, new_position: Point) -> tuple:
    """The node, cut and provenance record of a slide of one node, refusing
    the targets that validation of the slid diagram cannot see."""
    old_position = node.position
    if new_position == old_position:
        raise ValueError("slide target equals the current position")
    anchor = cut.path[1]
    if new_position == anchor:
        raise ValueError("slide target collides with the cut anchor")
    # past the anchor the first leg leaves the node the other way along the
    # eigenline, a valid polyline that validation accepts; the anchor is on
    # the eigenline, so it is passed exactly when it lies between
    if on_segment(anchor, old_position, new_position):
        raise ValueError("slide target passes through the cut anchor")
    band = _distance_band(poly, old_position, new_position)
    new_cut = BranchCut(node_index, (new_position,) + cut.path[1:])
    record = ("slide", node_index, old_position, new_position, band)
    return Node(new_position, node.eigen_dir, node.multiplicity), new_cut, record


def _distance_band(poly: Polygon, a: Point, b: Point) -> tuple[QField, QField]:
    """Exact [min, max] of the boundary distance F along the segment [a, b].

    Along the segment F(t) = min_i (va_i + t * s_i) is the lower envelope
    of the n edge values, each affine in t, so F is concave: the minimum
    sits at an endpoint and the maximum at an endpoint or at a breakpoint
    of the envelope.  The envelope is built once, by sorting the lines by
    falling slope and sweeping them with a stack (the convex hull trick),
    in O(n log n) with no pair enumeration.
    """
    # F is the least edge value, so each endpoint's values are read once
    ends = []
    for p in (a, b):
        values = poly.support_values(p)
        if (f := min(values)).sign() < 0:
            raise ValueError(f"point ({p.x1}, {p.x2}) lies outside the polygon")
        ends.append((values, f))
    (va, fa), (vb, fb) = ends
    lo, hi = (fa, fb) if fa <= fb else (fb, fa)
    # (slope, value at a) by falling slope, the lowest line first among equal slopes
    lines = sorted(((y - x, x) for x, y in zip(va, vb)), key=lambda line: (-line[0], line[1]))
    hull: list[tuple[QField, QField]] = []
    for s3, c3 in lines:
        if hull and hull[-1][0] == s3:
            continue
        # the top line is never strictly lowest once the new line meets the
        # one below it no later than the top line does
        while len(hull) >= 2:
            (s1, c1), (s2, c2) = hull[-2], hull[-1]
            if (c3 - c1) * (s1 - s2) > (c2 - c1) * (s1 - s3):
                break
            hull.pop()
        hull.append((s3, c3))
    for (s1, c1), (s2, c2) in zip(hull, hull[1:]):
        t = (c2 - c1) / (s1 - s2)
        if t.sign() > 0 and (t - 1).sign() < 0:
            value = c1 + s1 * t
            if value > hi:
                hi = value
    return (lo, hi)


def cut_transfer(
    diagram: BaseDiagram, node_index: int, new_cut: BranchCut
) -> tuple[BaseDiagram, PiecewiseMap]:
    """Replace a node's branch cut and re-coordinatize the swept region.

    The current cut must be a straight segment on the eigenline (the only
    case where the node's monodromy fixes it pointwise, which keeps the
    transferred coordinates continuous across the removed cut).  The new
    cut may be any valid polyline leaving the node along the eigenline.

    The swept region is one of two counterclockwise loops, each out along
    one cut, counterclockwise along the boundary and back along the other;
    when both cuts end at one boundary point it is the sliver between them.
    The monodromy exponent's sign is +1 when the old cut leads the loop
    and -1 when the new cut does.  Of the simple loops with positive area
    that hold no other node the smaller is swept, ties broken by point set.
    A new cut that retraces the old one, or otherwise encloses no area
    with it, is refused.

    Returns the new diagram and the piecewise map carrying old coordinates
    to new ones: the node's monodromy shear on the swept region, identity
    elsewhere.  Transferring back returns every point unchanged.
    """
    node = diagram.nodes[node_index]
    old_cut = diagram.cuts[node_index]
    poly = diagram.polygon
    # a valid diagram's first leg lies on the eigenline, so a one-leg cut does too
    if len(old_cut.path) != 2:
        raise ValueError("transfer requires the current cut to be a straight segment")
    # install the new cut first so the shared validator vets it fully
    moved = replace(
        diagram,
        cuts=diagram.cuts[:node_index] + (new_cut,) + diagram.cuts[node_index + 1 :],
        provenance=diagram.provenance + (("cut_transfer", node_index),),
    )
    # the sliver between two cuts to one end point walks no boundary
    candidates = []
    for sign_, lead, trail in ((1, old_cut.path, new_cut.path), (-1, new_cut.path, old_cut.path)):
        walk = _boundary_walk_ccw(poly, lead[-1], trail[-1])
        loop = _clean_loop_points(list(lead) + walk + list(reversed(trail))[:-1])
        twice_area = _loop_area_twice(loop)
        if twice_area.sign() > 0 and _loop_simple(loop):
            candidates.append((twice_area, _canonical_region_key(loop), sign_, loop))
    if not candidates:
        raise ValueError("cuts enclose a degenerate sweep region")
    others = [n.position for i, n in enumerate(diagram.nodes) if i != node_index]
    candidates = [c for c in candidates if not any(_loop_contains(c[-1], p) for p in others)]
    if not candidates:
        raise ValueError("every sweep region contains other nodes; transfer blocked")
    # the key breaks ties of area, so a transfer and its reverse pick the same half
    _, _, sweep_sign, loop = min(candidates)
    monodromy = unipotent_fixing(
        node.eigen_dir, sweep_sign * node.multiplicity, base=node.position
    )
    return moved, PiecewiseMap(region=loop, region_map=monodromy)


def build_pi0(params: ConstructionParams) -> BaseDiagram:
    """The initial base diagram of the chopped-rectangle construction.

    Every corner of the five-corner polygon is traded for a node at
    distance eps/2, and the node born at the chopped corner is slid up its
    vertical eigenline to the point at boundary distance c, where the
    recurrence construction needs it.  The moves' own rules build the five
    trades and the slide, and the diagram is validated once.
    """
    poly = build_blowup_polygon(params)
    traded = (_traded_corner(poly, i, params.eps / 2, i) for i in range(len(poly.vertices)))
    nodes, cuts, records = (list(column) for column in zip(*traded))
    # vertex 1 = (a/2 - c, -b/2) trades along (0, 1), and F = c at (0, c) above it: c < b/2 <= a/2
    vertex = poly.vertices[1]
    nodes[1], cuts[1], slide = _slid_node(poly, nodes[1], cuts[1], 1, Point(vertex.x1, vertex.x2 + params.c))
    return BaseDiagram(poly, tuple(nodes), tuple(cuts), (*records, slide), params)


__all__ = [
    "Node",
    "BranchCut",
    "BaseDiagram",
    "PiecewiseMap",
    "nodal_trade",
    "nodal_slide",
    "cut_transfer",
    "build_pi0",
]
