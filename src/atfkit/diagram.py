"""Base diagrams: polygons decorated with nodes and branch cuts.

A :class:`BaseDiagram` records an almost toric fibration combinatorially:
the moment polygon, the focus-focus nodes in its interior (each with the
primitive eigendirection of its monodromy), and one branch cut per node, a
polyline from the node to the boundary whose first leg follows the
eigenline.  Three moves transform diagrams:

* ``nodal_trade``   - smooth a Delzant corner into a node with a short cut;
* ``nodal_slide``   - move a node along its eigenline, keeping the cut;
* ``cut_transfer``  - swing a cut to the other side of its node, which
  re-coordinatizes the swept region by the node's monodromy.

Every move validates its result, returns a new diagram, and appends a
provenance record, so a diagram carries its own construction history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .plane import (
    LatticeVector,
    Point,
    UnimodularAffineMap,
    cross,
    delta,
    direction_of,
    on_segment,
    orient,
    primitive,
    segments_intersect,
    unipotent_fixing,
)
from .polygon import ConstructionParams, Polygon, build_blowup_polygon
from .scalars import QField, ScalarLike, qf


@dataclass(frozen=True)
class Node:
    """A focus-focus node: interior position, primitive eigendirection."""

    position: Point
    eigen_dir: LatticeVector
    multiplicity: int = 1

    def __post_init__(self):
        if not self.eigen_dir.is_primitive():
            raise ValueError("node eigendirection must be primitive")
        if self.multiplicity < 1:
            raise ValueError("node multiplicity must be at least 1")


@dataclass(frozen=True)
class BranchCut:
    """A branch cut: polyline from its node to a boundary point."""

    node_index: int
    path: tuple[Point, ...]

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
                    "position": [str(n.position.x1), str(n.position.x2)],
                    "eigen_dir": [n.eigen_dir.u, n.eigen_dir.v],
                    "multiplicity": n.multiplicity,
                }
                for n in self.nodes
            ],
            "cuts": [
                {
                    "node": c.node_index,
                    "path": [[str(p.x1), str(p.x2)] for p in c.path],
                }
                for c in self.cuts
            ],
            "provenance": [_prov_to_json(entry) for entry in self.provenance],
        }
        if self.params is not None:
            obj["params"] = {
                "a": str(self.params.a),
                "b": str(self.params.b),
                "c": str(self.params.c),
                "eps": str(self.params.eps),
            }
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BaseDiagram":
        poly = Polygon.from_json_obj(obj["polygon"])
        nodes = tuple(
            Node(
                Point(qf(n["position"][0]), qf(n["position"][1])),
                _json_vector(n["eigen_dir"], "eigen_dir"),
                _json_int(n.get("multiplicity", 1), "multiplicity"),
            )
            for n in obj.get("nodes", ())
        )
        cuts = tuple(
            BranchCut(
                _json_int(c["node"], "node"),
                tuple(Point(qf(x), qf(y)) for x, y in c["path"]),
            )
            for c in obj.get("cuts", ())
        )
        provenance = tuple(_prov_from_json(e) for e in obj.get("provenance", ()))
        params = None
        if "params" in obj:
            p = obj["params"]
            params = ConstructionParams(qf(p["a"]), qf(p["b"]), qf(p["c"]), qf(p["eps"]))
        return cls(poly, nodes, cuts, provenance, params)

    @classmethod
    def from_json(cls, text: str) -> "BaseDiagram":
        return cls.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class PiecewiseMap:
    """A chart transition: affine on one region, identity outside.

    ``apply`` re-coordinatizes a point drawn in the source chart: points
    strictly inside the region get the region map, everything else
    (including region-boundary points) stays put.  Along the removed
    branch cut the two prescriptions agree because the monodromy fixes
    the cut line pointwise; that is what makes the transition continuous.

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
        """The transition ``self after earlier``; regions must agree."""
        if _canonical_region_key(self.region) != _canonical_region_key(earlier.region):
            raise ValueError("piecewise maps act on different regions")
        return PiecewiseMap(
            region=earlier.region,
            region_map=self.region_map.compose(earlier.region_map),
        )

    def is_identity(self) -> bool:
        return self.region_map == UnimodularAffineMap.identity()


def _json_int(value: object, field: str) -> int:
    """A JSON integer field; floats and bools are rejected, never truncated."""
    if type(value) is not int:
        raise ValueError(f"diagram field {field!r} needs a JSON integer, got {value!r}")
    return value


def _json_vector(value: object, field: str) -> LatticeVector:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"diagram field {field!r} needs two JSON integers, got {value!r}")
    return LatticeVector(_json_int(value[0], field), _json_int(value[1], field))


def _prov_to_json(entry: tuple) -> list:
    def encode(value):
        if isinstance(value, QField):
            return str(value)
        if isinstance(value, Point):
            return {"point": [str(value.x1), str(value.x2)]}
        if isinstance(value, LatticeVector):
            return {"vec": [value.u, value.v]}
        if isinstance(value, tuple):
            return [encode(v) for v in value]
        return value

    return [encode(v) for v in entry]


def _prov_from_json(entry: list) -> tuple:
    def decode(value):
        if isinstance(value, str):
            try:
                return qf(value)
            except ValueError:
                return value
        if isinstance(value, dict):
            if "point" in value:
                return Point(qf(value["point"][0]), qf(value["point"][1]))
            if "vec" in value:
                return _json_vector(value["vec"], "vec")
        if isinstance(value, list):
            return tuple(decode(v) for v in value)
        return value

    decoded = tuple(decode(v) for v in entry)
    # move tags come back as QField-parseable only if oddly named; first slot is a tag
    if decoded and isinstance(entry[0], str):
        decoded = (entry[0],) + decoded[1:]
    return decoded


# -- validation -----------------------------------------------------------


def _validate_diagram(diagram: BaseDiagram) -> None:
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
        first_dir, _ = direction_of(cut.path[0], cut.path[1])
        if cross(first_dir, node.eigen_dir) != 0:
            raise ValueError(f"cut {idx} must leave its node along the eigenline")
        for a, b in cut.segments():
            direction_of(a, b)  # raises on irrational or degenerate legs
        for i, (a, b) in enumerate(cut.segments()):
            for j, (c, d) in enumerate(cut.segments()):
                if j <= i + 1 and i <= j + 1:
                    continue
                if segments_intersect(a, b, c, d):
                    raise ValueError(f"cut {idx} self-intersects")
    for i, ci in enumerate(diagram.cuts):
        for j, cj in enumerate(diagram.cuts):
            if j <= i:
                continue
            for a, b in ci.segments():
                for c, d in cj.segments():
                    if segments_intersect(a, b, c, d):
                        raise ValueError(f"cuts {i} and {j} intersect")
    for i, node in enumerate(diagram.nodes):
        for j, cut in enumerate(diagram.cuts):
            if i == j:
                continue
            for a, b in cut.segments():
                if on_segment(node.position, a, b):
                    raise ValueError(f"node {i} lies on cut {j}")


# -- region bookkeeping for cut transfer -----------------------------------


def _loop_area_twice(loop: tuple[Point, ...]) -> QField:
    total = qf(0)
    n = len(loop)
    for i in range(n):
        a, b = loop[i], loop[(i + 1) % n]
        total = total + (a.x1 * b.x2 - a.x2 * b.x1)
    return total


def _loop_contains(loop: tuple[Point, ...], p: Point) -> bool:
    """Strict interior test for a simple (not necessarily convex) loop."""
    n = len(loop)
    for i in range(n):
        if on_segment(p, loop[i], loop[(i + 1) % n]):
            return False
    winding = 0
    for i in range(n):
        a, b = loop[i], loop[(i + 1) % n]
        if a.x2 <= p.x2:
            if b.x2 > p.x2 and orient(a, b, p) > 0:
                winding += 1
        elif b.x2 <= p.x2 and orient(a, b, p) < 0:
            winding -= 1
    return winding != 0


def _loop_simple(loop: tuple[Point, ...]) -> bool:
    n = len(loop)
    segs = [(loop[i], loop[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if segments_intersect(*segs[i], *segs[j]):
                return False
    return True


def _clean_loop_points(points: list[Point]) -> tuple[Point, ...]:
    out: list[Point] = []
    for p in points:
        if not out or out[-1] != p:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def _boundary_walk_ccw(poly: Polygon, start: Point, stop: Point) -> list[Point]:
    """Polygon vertices strictly between two boundary points, going ccw."""
    s1 = poly.point_to_arc(start)
    s2 = poly.point_to_arc(stop)
    per = poly.perimeter()
    if s2 <= s1:
        s2 = s2 + per
    hits: list[tuple[QField, Point]] = []
    for i, v in enumerate(poly.vertices):
        pos = poly.arc_of_vertex(i)
        for candidate in (pos, pos + per):
            if s1 < candidate < s2:
                hits.append((candidate, v))
    hits.sort(key=lambda item: item[0])
    return [v for _, v in hits]


def _canonical_region_key(loop: tuple[Point, ...]) -> tuple:
    return tuple(sorted((str(p.x1), str(p.x2)) for p in loop))


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
    poly = diagram.polygon
    n = len(poly.vertices)
    vertex_index %= n
    if param is None:
        if diagram.params is None:
            raise ValueError("trade needs a distance parameter")
        param = diagram.params.eps / 2
    param = qf(param)
    if param.sign() <= 0:
        raise ValueError("trade parameter must be positive")
    e_in = poly.edges[(vertex_index - 1) % n]
    e_out = poly.edges[vertex_index]
    if abs(cross(e_in.direction, e_out.direction)) != 1:
        raise ValueError(f"vertex {vertex_index} is not a Delzant corner")
    away_in = LatticeVector(-e_in.direction.u, -e_in.direction.v)
    direction = primitive(away_in + e_out.direction)
    vertex = poly.vertices[vertex_index]
    position = Point(
        vertex.x1 + param * direction.u, vertex.x2 + param * direction.v
    )
    if not poly.contains(position, strict=True):
        raise ValueError("trade parameter pushes the node out of the polygon")
    node = Node(position, direction)
    cut = BranchCut(len(diagram.nodes), (position, vertex))
    new = BaseDiagram(
        polygon=poly,
        nodes=diagram.nodes + (node,),
        cuts=diagram.cuts + (cut,),
        provenance=diagram.provenance + (("trade", vertex_index, param),),
        params=diagram.params,
    )
    return new


def nodal_slide(
    diagram: BaseDiagram, node_index: int, new_position: Point
) -> BaseDiagram:
    """Move a node along its eigenline, dragging the near end of its cut.

    The swept segment must stay strictly inside the polygon and clear of
    all other nodes and cuts.  The move records the exact band of
    boundary-distance values swept, a certificate that the change is local
    to that band of level sets.
    """
    node = diagram.nodes[node_index]
    cut = diagram.cuts[node_index]
    old_position = node.position
    if new_position == old_position:
        raise ValueError("slide target equals the current position")
    slide_dir, _ = direction_of(old_position, new_position)
    if cross(slide_dir, node.eigen_dir) != 0:
        raise ValueError("slide target must stay on the eigenline")
    poly = diagram.polygon
    if not poly.contains(new_position, strict=True):
        raise ValueError("slide target must stay strictly inside the polygon")
    anchor = cut.path[1]
    if new_position == anchor:
        raise ValueError("slide target collides with the cut anchor")
    new_first_dir, _ = direction_of(new_position, anchor)
    old_first_dir, _ = direction_of(old_position, anchor)
    if new_first_dir != old_first_dir:
        raise ValueError("slide target passes through the cut anchor")
    for j, other in enumerate(diagram.cuts):
        segs = other.segments()
        if j == node_index:
            segs = segs[1:]  # the first leg moves with the node
        for a, b in segs:
            if segments_intersect(old_position, new_position, a, b):
                raise ValueError("slide sweeps across another cut")
    for j, other in enumerate(diagram.nodes):
        if j != node_index and on_segment(other.position, old_position, new_position):
            raise ValueError("slide sweeps across another node")
    band = _distance_band(poly, old_position, new_position)
    new_node = Node(new_position, node.eigen_dir, node.multiplicity)
    new_cut = BranchCut(node_index, (new_position,) + cut.path[1:])
    nodes = list(diagram.nodes)
    cuts = list(diagram.cuts)
    nodes[node_index] = new_node
    cuts[node_index] = new_cut
    return BaseDiagram(
        polygon=poly,
        nodes=tuple(nodes),
        cuts=tuple(cuts),
        provenance=diagram.provenance
        + (("slide", node_index, old_position, new_position, band),),
        params=diagram.params,
    )


def _distance_band(poly: Polygon, a: Point, b: Point) -> tuple[QField, QField]:
    """Exact [min, max] of the boundary distance F along the segment [a, b].

    F is concave along the segment, so the minimum sits at an endpoint.
    The maximum is attained either at an endpoint or where two edge
    functionals cross, and all those parameters are rational.
    """
    fa, fb = poly.distance_to_boundary(a), poly.distance_to_boundary(b)
    lo = fa if fa <= fb else fb
    hi = fa if fa >= fb else fb
    dx, dy = delta(a, b)
    edges = poly.edges
    # edge functional along the segment: f_i(t) = base_i + slope_i * t
    bases = [e.offset + a.x1 * e.normal.u + a.x2 * e.normal.v for e in edges]
    slopes = [dx * e.normal.u + dy * e.normal.v for e in edges]
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            ds = slopes[i] - slopes[j]
            if ds.sign() == 0:
                continue
            t = (bases[j] - bases[i]) / ds
            if t.sign() <= 0 or (t - 1).sign() >= 0:
                continue
            p = Point(a.x1 + t * dx, a.x2 + t * dy)
            value = poly.distance_to_boundary(p)
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

    Returns the new diagram and the piecewise map carrying old coordinates
    to new ones: the node's monodromy shear on the swept region, identity
    elsewhere.  Transferring back returns every point unchanged.
    """
    node = diagram.nodes[node_index]
    old_cut = diagram.cuts[node_index]
    poly = diagram.polygon
    if new_cut.node_index != node_index:
        raise ValueError("replacement cut must reference the same node")
    if new_cut.path == old_cut.path:
        raise ValueError("replacement cut equals the current cut")
    if len(old_cut.path) != 2:
        raise ValueError("transfer requires the current cut to be a straight segment")
    old_dir, _ = direction_of(old_cut.path[0], old_cut.path[1])
    if cross(old_dir, node.eigen_dir) != 0:
        raise ValueError("transfer requires the current cut to lie on the eigenline")
    # install the new cut first so the shared validator vets it fully
    cuts = list(diagram.cuts)
    cuts[node_index] = new_cut
    moved = BaseDiagram(
        polygon=poly,
        nodes=diagram.nodes,
        cuts=tuple(cuts),
        provenance=diagram.provenance + (("cut_transfer", node_index),),
        params=diagram.params,
    )
    p_old = old_cut.path[-1]
    p_new = new_cut.path[-1]
    if p_old == p_new:
        # both cuts reach the same boundary point: the sweep region is the
        # sliver enclosed by the two cuts alone, oriented by its signed area
        loop = _clean_loop_points(
            list(old_cut.path) + list(reversed(new_cut.path))[:-1]
        )
        if len(loop) < 3 or not _loop_simple(loop):
            raise ValueError("cuts enclose a degenerate sweep region")
        sweep_sign = 1 if _loop_area_twice(loop).sign() > 0 else -1
        candidates = [(sweep_sign, loop)]
    else:
        # region swept counterclockwise: out along the old cut, ccw along
        # the boundary, back along the new cut; then the complement
        walk_a = _boundary_walk_ccw(poly, p_old, p_new)
        loop_a = _clean_loop_points(
            list(old_cut.path) + walk_a + list(reversed(new_cut.path))[:-1]
        )
        walk_b = _boundary_walk_ccw(poly, p_new, p_old)
        loop_b = _clean_loop_points(
            list(new_cut.path) + walk_b + list(reversed(old_cut.path))[:-1]
        )
        candidates = [
            (sign_, loop)
            for sign_, loop in ((1, loop_a), (-1, loop_b))
            if len(loop) >= 3 and _loop_simple(loop)
        ]
    candidates = [
        (sign_, loop)
        for sign_, loop in candidates
        if not any(
            _loop_contains(loop, diagram.nodes[i].position)
            for i in range(len(diagram.nodes))
            if i != node_index
        )
    ]
    if not candidates:
        raise ValueError("every sweep region contains other nodes; transfer blocked")
    if len(candidates) == 2:
        area_a = abs(_loop_area_twice(candidates[0][1]))
        area_b = abs(_loop_area_twice(candidates[1][1]))
        if area_b < area_a:
            candidates = candidates[1:]
        elif area_a == area_b and _canonical_region_key(
            candidates[1][1]
        ) < _canonical_region_key(candidates[0][1]):
            candidates = candidates[1:]
    sweep_sign, loop = candidates[0]
    monodromy = unipotent_fixing(
        node.eigen_dir, sweep_sign * node.multiplicity, base=node.position
    )
    return moved, PiecewiseMap(region=loop, region_map=monodromy)


def build_pi0(params: ConstructionParams) -> BaseDiagram:
    """The initial base diagram of the chopped-rectangle construction.

    Every corner of the five-corner polygon is traded for a node at
    distance eps/2, and the node born at the chopped corner is slid up its
    vertical eigenline to the point at boundary distance c, where the
    recurrence construction needs it.
    """
    poly = build_blowup_polygon(params)
    diagram = BaseDiagram(polygon=poly, params=params)
    for vertex_index in range(len(poly.vertices)):
        diagram = nodal_trade(diagram, vertex_index)
    # the node traded at the chopped corner (vertex 1) has eigenline (0, 1)
    slide_index = 1
    node = diagram.nodes[slide_index]
    if node.eigen_dir != LatticeVector(0, 1):
        raise ValueError("unexpected eigenline at the chopped corner")
    vertex = poly.vertices[slide_index]
    target = Point(vertex.x1, vertex.x2 + params.c)
    diagram = nodal_slide(diagram, slide_index, target)
    if diagram.polygon.distance_to_boundary(target) != params.c:
        raise ValueError("slide target missed the distance-c level")
    return diagram


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
