"""Base diagrams and the three moves: trade, slide, cut transfer."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    hostile_diagrams,
    outcome,
    qfield_direction_of,
    qfield_on_segment,
    qfield_orient,
    qfield_segments_intersect,
    staircase_diagram,
)

import atfkit.diagram
from atfkit.diagram import (
    LEG_LIMIT,
    BaseDiagram,
    BranchCut,
    Node,
    PiecewiseMap,
    _boundary_walk_ccw,
    _canonical_region_key,
    _clean_loop_points,
    _loop_contains,
    _loop_simple,
    _move_to_json,
    _traded_corner,
    build_pi0,
    cut_transfer,
    nodal_slide,
    nodal_trade,
)
from atfkit.plane import (
    LatticeVector,
    Point,
    UnimodularAffineMap,
    affine_length,
    move,
    pt,
    unipotent_fixing,
)
from atfkit.polygon import (
    ConstructionParams,
    Polygon,
    _loop_area_twice,
    build_blowup_polygon,
    catalog,
)
from atfkit.scalars import QField, qf
from atfkit.verify import DEFAULT_PARAMS, random_interior_point, random_params, random_unimodular

SQUARE = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])


def traded_square(param="1") -> BaseDiagram:
    """The square with its origin corner traded: node on the diagonal."""
    return nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(param))


# -- component validation -------------------------------------------------------


def test_node_validation():
    with pytest.raises(ValueError):
        Node(pt(1, 1), LatticeVector(2, 2))
    for multiplicity in (0, 1.5, True):
        with pytest.raises(ValueError):
            Node(pt(1, 1), LatticeVector(1, 0), multiplicity=multiplicity)


def test_diagram_validation():
    node = Node(pt(2, 2), LatticeVector(1, 1))
    good = BranchCut(0, (pt(2, 2), pt(0, 0)))
    BaseDiagram(SQUARE, (node,), (good,))
    cases = [
        ((node,), ()),  # missing cut
        ((node,), (BranchCut(1, (pt(2, 2), pt(0, 0))),)),  # wrong back-reference
        ((node,), (BranchCut(0, (pt(2, 2),)),)),  # single-point path
        ((node,), (BranchCut(0, (pt(1, 1), pt(0, 0))),)),  # does not start at node
        ((node,), (BranchCut(0, (pt(2, 2), pt(3, 3))),)),  # ends in the interior
        ((node,), (BranchCut(0, (pt(2, 2), pt(5, 5))),)),  # ends outside
        ((node,), (BranchCut(0, (pt(2, 2), pt(2, 0))),)),  # leaves off the eigenline
        ((Node(pt(0, 2), LatticeVector(1, 1)),), (BranchCut(0, (pt(0, 2), pt(2, 4))),)),
    ]
    for nodes, cuts in cases:
        with pytest.raises(ValueError):
            BaseDiagram(SQUARE, nodes, cuts)
    for index in (0.0, False):
        with pytest.raises(ValueError):
            BranchCut(index, (pt(2, 2), pt(0, 0)))


def test_diagram_rejects_crossing_cuts():
    nodes = (
        Node(pt(1, 2), LatticeVector(1, 0)),
        Node(pt(2, 1), LatticeVector(0, 1)),
    )
    cuts = (
        BranchCut(0, (pt(1, 2), pt(4, 2))),
        BranchCut(1, (pt(2, 1), pt(2, 4))),
    )
    with pytest.raises(ValueError):
        BaseDiagram(SQUARE, nodes, cuts)


def test_diagram_rejects_node_on_other_cut():
    nodes = (
        Node(pt(1, 2), LatticeVector(1, 0)),
        Node(pt(2, 2), LatticeVector(0, 1)),
    )
    cuts = (
        BranchCut(0, (pt(1, 2), pt(4, 2))),
        BranchCut(1, (pt(2, 2), pt(2, 0))),
    )
    with pytest.raises(ValueError):
        BaseDiagram(SQUARE, nodes, cuts)


def test_bent_cut_is_allowed():
    node = Node(pt(2, 2), LatticeVector(1, 1))
    bent = BranchCut(0, (pt(2, 2), pt(3, 3), pt(3, 0)))
    diagram = BaseDiagram(SQUARE, (node,), (bent,))
    assert diagram.cuts[0].segments() == [
        (pt(2, 2), pt(3, 3)),
        (pt(3, 3), pt(3, 0)),
    ]


def test_cut_joint_on_the_boundary_rejected():
    # a joint at a corner or on an edge of the square touches the boundary
    # before the cut ends
    node = Node(pt(2, 2), LatticeVector(1, 1))
    for path in ((pt(2, 2), pt(4, 4), pt(4, 0)), (pt(2, 2), pt(3, 3), pt(4, 3), pt(2, 0))):
        with pytest.raises(ValueError, match="cut 0 leaves the polygon"):
            BaseDiagram(SQUARE, (node,), (BranchCut(0, path),))


def test_self_intersecting_cut_rejected():
    node = Node(pt(2, 2), LatticeVector(1, 1))
    loop = BranchCut(
        0, (pt(2, 2), pt(3, 3), pt(3, 1), pt(1, 3), pt(1, 0))
    )
    with pytest.raises(ValueError):
        BaseDiagram(SQUARE, (node,), (loop,))


@pytest.mark.parametrize(
    "path",
    [
        ((2, 2), (3, 3), (0, 0)),  # the second leg runs back through the node
        ((2, 2), (3, 3), (1, 1), (1, 0)),  # ... and past it before turning
        ((2, 2), (3, 3), ("5/2", "5/2"), ("5/2", 0)),  # the second leg ends on the first
    ],
    ids=["through_node", "past_node", "short_fold"],
)
def test_cut_folding_back_over_its_previous_leg_rejected(path):
    # consecutive legs share their joint and may meet nowhere else
    diagram = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    folded = BranchCut(0, tuple(pt(*xy) for xy in path))
    with pytest.raises(ValueError, match="cut 0 self-intersects"):
        BaseDiagram(SQUARE, diagram.nodes, (folded,))


# -- nodal trade -----------------------------------------------------------------


def test_trade_square_corner():
    diagram = traded_square(param=1)
    node = diagram.nodes[0]
    assert node.position == pt(1, 1)
    assert node.eigen_dir == LatticeVector(1, 1)
    assert diagram.cuts[0].path == (pt(1, 1), pt(0, 0))
    assert diagram.polygon == SQUARE
    assert diagram.provenance[-1] == ("trade", 0, qf(1))


def test_trade_parameter_validation():
    base = BaseDiagram(polygon=SQUARE)
    with pytest.raises(ValueError):
        nodal_trade(base, 0, 0)
    with pytest.raises(ValueError):
        nodal_trade(base, 0, -1)
    with pytest.raises(ValueError):
        nodal_trade(base, 0, 5)  # node would exit the square
    with pytest.raises(ValueError):
        nodal_trade(base, 0)  # no default parameter without params


def test_trade_requires_delzant_corner():
    skew = Polygon([(0, 0), (2, 0), (0, 1)])
    with pytest.raises(ValueError):
        nodal_trade(BaseDiagram(polygon=skew), 2, qf("1/8"))


def test_trade_messages():
    base = BaseDiagram(polygon=SQUARE)
    skew = BaseDiagram(polygon=Polygon([(0, 0), (2, 0), (0, 1)]))
    cases = [
        (base, 0, None, "trade needs a distance parameter"),
        (base, 0, 0, "trade parameter must be positive"),
        (base, 1, -1, "trade parameter must be positive"),
        (base, 0, 5, "node 0 must lie strictly inside the polygon"),
        (skew, 2, qf("1/8"), "vertex 2 is not a Delzant corner"),
        (skew, -1, qf("1/8"), "vertex 2 is not a Delzant corner"),
    ]
    for diagram, vertex, param, message in cases:
        assert outcome(nodal_trade, diagram, vertex, param) == ("error", ValueError, message)


def test_trade_default_uses_half_eps():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    poly = build_blowup_polygon(params)
    diagram = nodal_trade(BaseDiagram(polygon=poly, params=params), 0)
    assert diagram.provenance[-1] == ("trade", 0, qf("1/16"))


# -- nodal slide -----------------------------------------------------------------


def test_slide_moves_node_and_cut():
    diagram = traded_square(param=1)
    slid = nodal_slide(diagram, 0, pt(3, 3))
    assert slid.nodes[0].position == pt(3, 3)
    assert slid.cuts[0].path == (pt(3, 3), pt(0, 0))
    tag, index, old, new, band = slid.provenance[-1]
    assert (tag, index, old, new) == ("slide", 0, pt(1, 1), pt(3, 3))
    # distance along the diagonal peaks at the center of the square
    assert band == (qf(1), qf(2))


def test_slide_band_monotone_case():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    diagram = build_pi0(params)
    slide = next(e for e in diagram.provenance if e[0] == "slide")
    assert slide[4] == (params.eps / 2, params.c)


def test_slide_validation():
    diagram = traded_square(param=1)
    with pytest.raises(ValueError):
        nodal_slide(diagram, 0, pt(1, 1))  # no motion
    with pytest.raises(ValueError):
        nodal_slide(diagram, 0, pt(1, 2))  # off the eigenline
    with pytest.raises(ValueError):
        nodal_slide(diagram, 0, pt(4, 4))  # onto the boundary
    with pytest.raises(ValueError):
        nodal_slide(diagram, 0, pt(-1, -1))  # outside


def test_slide_cannot_pass_the_cut_anchor():
    # bent cut anchored at (3,3); sliding beyond the anchor would fold the
    # first leg back over it
    node = Node(pt(2, 2), LatticeVector(1, 1))
    cut = BranchCut(0, (pt(2, 2), pt(3, 3), pt(3, 0)))
    diagram = BaseDiagram(SQUARE, (node,), (cut,))
    with pytest.raises(ValueError, match="slide target passes through the cut anchor"):
        nodal_slide(diagram, 0, pt("7/2", "7/2"))
    # sliding short of the anchor is fine
    slid = nodal_slide(diagram, 0, pt("5/2", "5/2"))
    assert slid.cuts[0].path == (pt("5/2", "5/2"), pt(3, 3), pt(3, 0))
    # an anchor behind the node, the cut bent up the left side
    behind = BaseDiagram(SQUARE, (node,), (BranchCut(0, (pt(2, 2), pt(1, 1), pt(1, 4))),))
    with pytest.raises(ValueError, match="slide target passes through the cut anchor"):
        nodal_slide(behind, 0, pt("1/2", "1/2"))


def test_slide_target_on_anchor_rejected():
    diagram = traded_square(param=2)
    with pytest.raises(ValueError):
        nodal_slide(diagram, 0, pt(0, 0))


def test_slide_onto_a_bent_cuts_interior_anchor_rejected():
    node = Node(pt(2, 2), LatticeVector(1, 1))
    diagram = BaseDiagram(SQUARE, (node,), (BranchCut(0, (pt(2, 2), pt(3, 3), pt(3, 0))),))
    with pytest.raises(ValueError, match="slide target collides with the cut anchor"):
        nodal_slide(diagram, 0, pt(3, 3))


def test_slide_blocked_by_other_cut():
    # the second node's vertical cut passes through (3,3), which the sweep
    # of the first node along its diagonal eigenline must cross
    diagram = traded_square(param=1)
    blocker = Node(pt(3, 2), LatticeVector(0, 1))
    cut = BranchCut(1, (pt(3, 2), pt(3, 4)))
    diagram = BaseDiagram(
        SQUARE, diagram.nodes + (blocker,), diagram.cuts + (cut,), diagram.provenance
    )
    with pytest.raises(ValueError):
        nodal_slide(diagram, 0, pt("7/2", "7/2"))


def _square_with_a_blocker() -> BaseDiagram:
    """The traded square and a second node whose vertical cut passes (3, 3)."""
    square = traded_square(param=1)
    return BaseDiagram(
        SQUARE,
        square.nodes + (Node(pt(3, 2), LatticeVector(0, 1)),),
        square.cuts + (BranchCut(1, (pt(3, 2), pt(3, 4))),),
        square.provenance,
    )


@pytest.mark.parametrize(
    "move_, message",
    [
        (lambda: nodal_slide(traded_square(param=1), 0, pt(1, 2)),
         "cut 0 must leave its node along the eigenline"),
        (lambda: nodal_slide(traded_square(param=1), 0, pt(4, 4)),
         "node 0 must lie strictly inside the polygon"),
        (lambda: nodal_slide(traded_square(param=1), 0, pt(-1, -1)),
         "slide target passes through the cut anchor"),
        (lambda: nodal_slide(_square_with_a_blocker(), 0, pt("7/2", "7/2")),
         "cuts 0 and 1 intersect"),
        (lambda: nodal_trade(BaseDiagram(polygon=SQUARE), 0, 5),
         "node 0 must lie strictly inside the polygon"),
        (lambda: cut_transfer(traded_square(param=1), 0, BranchCut(1, (pt(1, 1), pt(0, 0)))),
         "cut 0 does not reference its node"),
        (lambda: cut_transfer(traded_square(param=1), 0, traded_square(param=1).cuts[0]),
         "cuts enclose a degenerate sweep region"),
    ],
    ids=["off-eigenline", "onto-boundary", "past-anchor", "across-a-cut",
         "trade-outside", "transfer-other-node", "transfer-same-cut"],
)
def test_moves_leave_to_validation_what_it_refuses(move_, message):
    """Each refusal that validation of a move's result makes, with its
    message; the moves do not make it first."""
    with pytest.raises(ValueError) as exc:
        move_()
    assert str(exc.value) == message


def test_slide_blocked_by_other_node():
    diagram = traded_square(param=1)
    blocker = Node(pt(2, 2), LatticeVector(1, 0))
    cut = BranchCut(1, (pt(2, 2), pt(0, 2)))
    diagram = BaseDiagram(
        SQUARE, diagram.nodes + (blocker,), diagram.cuts + (cut,), diagram.provenance
    )
    with pytest.raises(ValueError):
        nodal_slide(diagram, 0, pt(3, 3))


# -- cut transfer ----------------------------------------------------------------


def test_transfer_swaps_the_cut_and_returns_the_shear():
    diagram = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    node = diagram.nodes[0]
    new_cut = BranchCut(0, (node.position, pt(4, 4)))
    moved, push = cut_transfer(diagram, 0, new_cut)
    assert moved.cuts[0] == new_cut
    assert moved.nodes == diagram.nodes
    assert moved.provenance[-1] == ("cut_transfer", 0)
    lin = push.region_map
    assert lin.det == 1 and lin.trace == 2
    assert lin.apply(node.position) == node.position
    # points on the eigenline are fixed whether or not they sit in the region
    assert push.apply(pt(3, 3)) == pt(3, 3)
    assert push.apply(pt(1, 1)) == pt(1, 1)


def test_transfer_round_trip_is_identity():
    diagram = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    original_cut = diagram.cuts[0]
    new_cut = BranchCut(0, (diagram.nodes[0].position, pt(4, 4)))
    moved, push = cut_transfer(diagram, 0, new_cut)
    back, pull = cut_transfer(moved, 0, original_cut)
    assert back.same_geometry(diagram)
    round_trip = pull.compose(push)
    assert round_trip.is_identity()
    rng = random.Random(31)
    for _ in range(25):
        p = random_interior_point(rng, SQUARE)
        assert round_trip.apply(p) == p


def test_transfer_moves_region_points_by_the_monodromy():
    diagram = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    new_cut = BranchCut(0, (diagram.nodes[0].position, pt(4, 4)))
    _, push = cut_transfer(diagram, 0, new_cut)
    inside = [p for p in (pt(3, 1), pt(1, 3)) if push.apply(p) != p]
    assert len(inside) == 1  # exactly one side of the eigenline was swept
    moved = push.apply(inside[0])
    assert push.region_map.apply(inside[0]) == moved


def test_transfer_shears_by_the_node_multiplicity():
    """Kills the mutant ``sweep_sign * node.multiplicity`` ->
    ``sweep_sign // node.multiplicity`` in ``cut_transfer``: a node of
    multiplicity 2 shears the swept region by its monodromy twice, in a
    transfer and in the transfer back (the two signs)."""
    single = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    double = replace(single, nodes=(replace(single.nodes[0], multiplicity=2),))
    there, back = BranchCut(0, (pt(2, 2), pt(4, 4))), single.cuts[0]

    def shears(diagram):
        moved, push = cut_transfer(diagram, 0, there)
        return push.region_map, cut_transfer(moved, 0, back)[1].region_map

    for once, twice in zip(shears(single), shears(double)):
        assert twice == once.compose(once)


def test_transfer_validation():
    diagram = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    node = diagram.nodes[0]
    with pytest.raises(ValueError):
        cut_transfer(diagram, 0, BranchCut(1, (node.position, pt(4, 4))))
    with pytest.raises(ValueError):
        cut_transfer(diagram, 0, diagram.cuts[0])
    bent = BranchCut(0, (node.position, pt(3, 3), pt(3, 0)))
    moved, _ = cut_transfer(diagram, 0, bent)
    # a bent cut cannot be transferred away again
    with pytest.raises(ValueError):
        cut_transfer(moved, 0, diagram.cuts[0])


def test_transfer_same_boundary_point_sliver():
    # old cut straight to (0,0); the new cut leaves along the opposite
    # eigenray and bends back to the same corner, so the swept region is
    # the sliver enclosed by the two cuts alone
    diagram = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    node = diagram.nodes[0]
    new_cut = BranchCut(0, (node.position, pt(3, 3), pt(2, "7/2"), pt(0, 0)))
    moved, push = cut_transfer(diagram, 0, new_cut)
    assert moved.cuts[0] == new_cut
    assert not push.is_identity()
    lin = push.region_map
    assert lin.det == 1 and lin.trace == 2
    assert lin.apply(node.position) == node.position
    # a point clearly inside the sliver moves, one clearly outside stays
    assert push.apply(pt("3/2", 2)) != pt("3/2", 2)
    assert push.apply(pt(3, 1)) == pt(3, 1)
    assert _loop_area_twice(push.region) > 0


@pytest.mark.parametrize(
    "path",
    [
        ((2, 2), (1, 1), (0, 0)),  # the old cut with a midpoint added
        ((2, 2), (1, 1), (1, 0)),  # leaves along the old cut, then turns off it
    ],
    ids=["retraced", "toward_old_cut"],
)
def test_transfer_refuses_a_cut_that_encloses_no_area(path):
    diagram = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    with pytest.raises(ValueError, match="cuts enclose a degenerate sweep region"):
        cut_transfer(diagram, 0, BranchCut(0, tuple(pt(*xy) for xy in path)))


def test_transfer_blocked_by_foreign_node():
    diagram = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    bystander = Node(pt(3, 1), LatticeVector(1, 0))
    cut = BranchCut(1, (pt(3, 1), pt(4, 1)))
    crowded = BaseDiagram(
        SQUARE,
        diagram.nodes + (bystander,),
        diagram.cuts + (cut,),
        diagram.provenance,
    )
    # sweeping to (0,4) in either direction would engulf the bystander or
    # cross its cut; both candidate regions die
    with pytest.raises(ValueError):
        cut_transfer(crowded, 0, BranchCut(0, (pt(2, 2), pt(1, 4))))


def test_loop_contains_a_peak_at_the_point_height_is_no_crossing():
    """Kills the mutant ``b.x2 > p.x2`` -> ``b.x2 >= p.x2`` in
    ``_loop_contains``: the ray right from (0, 1) grazes the apex (2, 1) of
    the triangle, a local peak of the loop, and crosses no edge."""
    loop = (pt(1, 0), pt(2, 1), pt(3, 0))
    assert not _loop_contains(loop, pt(0, 1))
    assert _loop_contains(loop, pt(2, Fraction(1, 2)))


def test_loop_contains_counts_the_crossings_of_both_ways():
    """Kills the mutants ``winding += 1`` -> ``-= 1`` or ``+= 2``, and
    ``winding -= 1`` -> ``+= 1`` or ``-= 2``, in ``_loop_contains``: the ray
    right from (-1, 2) crosses the square up its right side and down its
    left side, a winding of 0, and the ray from (1, 2) only up its right
    side."""
    assert not _loop_contains(SQUARE.vertices, pt(-1, 2))
    assert _loop_contains(SQUARE.vertices, pt(1, 2))


def _parent_boundary_walk_ccw(poly: Polygon, start: Point, stop: Point) -> list[Point]:
    """The walk before the sliver became the empty walk: a point to itself
    went once round the polygon."""
    s1 = poly.point_to_arc(start)
    s2 = poly.point_to_arc(stop)
    per = poly.perimeter()
    if s2 <= s1:
        s2 = s2 + per
    hits = []
    for i, v in enumerate(poly.vertices):
        pos = poly.arc_of_vertex(i)
        for candidate in (pos, pos + per):
            if s1 < candidate < s2:
                hits.append((candidate, v))
    hits.sort(key=lambda item: item[0])
    return [v for _, v in hits]


def _sorting_boundary_walk_ccw(poly: Polygon, start: Point, stop: Point) -> list[Point]:
    """Oracle: the walk before it read the arc table in order, verbatim: it
    collected the vertices between the two arcs and sorted them."""
    s1 = poly.point_to_arc(start)
    s2 = poly.point_to_arc(stop)
    per = poly.perimeter()
    if s2 < s1:
        s2 = s2 + per
    hits: list[tuple[QField, Point]] = []
    for i, v in enumerate(poly.vertices):
        pos = poly.arc_of_vertex(i)
        for candidate in (pos, pos + per):
            if s1 < candidate < s2:
                hits.append((candidate, v))
    hits.sort(key=lambda item: item[0])
    return [v for _, v in hits]


def _parent_sweep(diagram, node_index, new_cut):
    """Oracle: the two-branch region choice that one loop replaced, verbatim
    but for its walk and for returning the candidates the choice saw.

    Returns (sign, loop, survivors) or raises ValueError.
    """
    poly = diagram.polygon
    old_cut = diagram.cuts[node_index]
    _boundary_walk_ccw = _parent_boundary_walk_ccw
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
    survivors = list(candidates)
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
    return sweep_sign, loop, survivors


TRANSFER_CATALOG = (
    "CP2(3)",
    "S2xS2(2,2)",
    "S2xS2(4,2)",
    "Bl1CP2",
    "Bl2CP2",
    "Bl3CP2",
    "HirzebruchF1(4,1)",
    "Blowup_S2xS2(4,2,1/2)",
    "Blowup2_S2xS2(4,2)",
)


def test_boundary_walk_matches_the_sorting_oracle():
    root2 = QField(0, Fraction(1, 3), 2)
    for name in TRANSFER_CATALOG:
        base = catalog(name)
        top, _ = base.max_distance()
        for poly in (base, base.level_set(top / 2)):
            per = poly.perimeter()
            arcs = [poly.arc_of_vertex(i) for i in range(len(poly.vertices))]
            arcs += [per * Fraction(k, 5) for k in (-2, 1, 3, 5, 7)] + [root2, per - root2]
            points = [poly.arc_to_point(s) for s in arcs]
            for start in points:
                for stop in points:
                    walk = _sorting_boundary_walk_ccw(poly, start, stop)
                    assert _boundary_walk_ccw(poly, start, stop) == walk, (poly, start, stop)


def _ray_exit(poly: Polygon, p: Point, w: LatticeVector):
    """The lattice length from the interior point p to the boundary along w."""
    return min(
        value / -slope
        for value, edge in zip(poly.support_values(p), poly.edges)
        if (slope := edge.normal.u * w.u + edge.normal.v * w.v) < 0
    )


def _random_transfer(rng: random.Random):
    """A traded catalog polygon, one of its nodes and a candidate new cut."""
    poly = catalog(rng.choice(TRANSFER_CATALOG))
    diagram = BaseDiagram(polygon=poly)
    count = rng.randint(1, 3)
    for vertex in rng.sample(range(len(poly.vertices)), count):
        diagram = nodal_trade(diagram, vertex, Fraction(1, rng.randint(3, 5)))
    k = rng.randrange(count)
    node, (q, corner) = diagram.nodes[k], diagram.cuts[k].path
    w = node.eigen_dir
    reach = _ray_exit(poly, q, w)
    ahead = move(q, w, reach * Fraction(rng.randint(1, 3), 4))
    # the old cut runs from q to the corner along -w
    behind = move(q, -w, affine_length(q, corner) / rng.randint(2, 3))
    edge_point = poly.arc_to_point(poly.perimeter() * rng.randint(0, 23) / 24)
    kind = rng.choice(("straight", "bent", "sliver", "toward", "interior"))
    if kind == "straight":
        path = (q, move(q, w, reach))
    elif kind == "bent":
        path = (q, ahead, edge_point)
    elif kind == "sliver":
        path = (q, ahead, random_interior_point(rng, poly), corner)
    elif kind == "toward":
        kind = rng.choice(("toward", "retraced"))
        path = (q, behind, corner if kind == "retraced" else edge_point)
    else:
        path = (q, rng.choice((ahead, behind)), random_interior_point(rng, poly), edge_point)
    return diagram, k, kind, BranchCut(k, path)


def test_transfer_region_matches_the_two_branch_construction():
    rng = random.Random(2003)
    seen = dict.fromkeys(("sliver", "tie", "blocked", "retraced", "round_trip"), 0)
    for _ in range(400):
        diagram, k, kind, new_cut = _random_transfer(rng)
        cuts = diagram.cuts[:k] + (new_cut,) + diagram.cuts[k + 1 :]
        try:
            BaseDiagram(diagram.polygon, diagram.nodes, cuts)
        except ValueError:
            continue  # an invalid cut is the validator's business
        try:
            sign, loop, survivors = _parent_sweep(diagram, k, new_cut)
        except ValueError:
            sign = loop = None
        try:
            moved, push = cut_transfer(diagram, k, new_cut)
        except ValueError as exc:
            assert loop is None or _loop_area_twice(loop) == 0, (kind, new_cut)
            seen["blocked"] += "transfer blocked" in str(exc)
            seen["retraced"] += kind == "retraced" and "degenerate" in str(exc)
            continue
        assert loop is not None and _loop_area_twice(loop) != 0, (kind, new_cut)
        node = diagram.nodes[k]
        assert push.region_map == unipotent_fixing(node.eigen_dir, sign, base=node.position)
        assert _canonical_region_key(push.region) == _canonical_region_key(loop)
        assert _loop_area_twice(push.region) > 0
        seen["sliver"] += new_cut.path[-1] == diagram.cuts[k].path[-1]
        areas = {abs(_loop_area_twice(region)) for _, region in survivors}
        seen["tie"] += len(survivors) == 2 and len(areas) == 1
        if kind == "straight":
            back, pull = cut_transfer(moved, k, diagram.cuts[k])
            assert back.same_geometry(diagram)
            assert pull.compose(push).is_identity()
            seen["round_trip"] += 1
    # every path of the choice ran: slivers, equal-area ties, blocks, retraced cuts
    assert min(seen.values()) >= 5, seen


def _moved(diagram: BaseDiagram, m: UnimodularAffineMap) -> BaseDiagram:
    """The diagram's polygon, nodes and cuts under a det +1 affine map."""
    nodes = tuple(
        Node(m.apply(n.position), m.apply_vector(n.eigen_dir), n.multiplicity)
        for n in diagram.nodes
    )
    cuts = tuple(BranchCut(c.node_index, tuple(m.apply(p) for p in c.path)) for c in diagram.cuts)
    return BaseDiagram(diagram.polygon.transform(m), nodes, cuts)


def _blocked_slide(rng: random.Random):
    """The traded square with a second node whose vertical cut may stand in
    the way of the first node's slide along the diagonal."""
    x, y = Fraction(rng.randint(5, 15), 4), Fraction(rng.randint(4, 15), 4)
    square = traded_square(param=1)
    diagram = BaseDiagram(
        SQUARE,
        square.nodes + (Node(pt(x, y), LatticeVector(0, 1)),),
        square.cuts + (BranchCut(1, (pt(x, y), pt(x, 4))),),
    )
    t = Fraction(rng.randint(5, 15), 4)
    return diagram, 0, diagram.cuts[0], pt(t, t)


def _predicate_oracle_cases(rng: random.Random, count: int) -> list[tuple]:
    """Seeded transfer candidates and blocked slides, each in rational
    coordinates and again moved by a unimodular map whose translation has a
    sqrt(2) or sqrt(3) part."""
    cases = []
    for _ in range(count):
        transfer, k, _, new_cut = _random_transfer(rng)
        node = transfer.nodes[k]
        slide = move(node.position, node.eigen_dir, Fraction(rng.randint(-4, 4), 16))
        for diagram, k, cut, target in ((transfer, k, new_cut, slide), _blocked_slide(rng)):
            d = rng.choice((2, 3))
            shift = UnimodularAffineMap.translation(
                QField(0, Fraction(1, rng.randint(2, 5)), d),
                QField(0, Fraction(-1, rng.randint(2, 5)), d),
            )
            for m in (UnimodularAffineMap.identity(), shift.compose(random_unimodular(rng))):
                moved_cut = BranchCut(k, tuple(m.apply(p) for p in cut.path))
                cases.append((_moved(diagram, m), k, moved_cut, m.apply(target)))
    return cases


def _validation_outcomes(cases: list[tuple]) -> list[tuple]:
    results = [outcome(BaseDiagram.from_json, text) for text in hostile_diagrams().values()]
    for diagram, k, cut, target in cases:
        cuts = diagram.cuts[:k] + (cut,) + diagram.cuts[k + 1 :]
        results.append(outcome(BaseDiagram, diagram.polygon, diagram.nodes, cuts))
        results.append(outcome(cut_transfer, diagram, k, cut))
        results.append(outcome(nodal_slide, diagram, k, target))
    return results


def test_validation_and_moves_match_the_qfield_predicates(monkeypatch):
    cases = _predicate_oracle_cases(random.Random(1976), 80)
    ours = _validation_outcomes(cases)
    slides = [outcome(nodal_slide, diagram, k, target) for diagram, k, _, target in cases]
    monkeypatch.setattr(atfkit.diagram, "direction_of", qfield_direction_of)
    monkeypatch.setattr(atfkit.diagram, "orient", qfield_orient)
    monkeypatch.setattr(atfkit.diagram, "on_segment", qfield_on_segment)
    monkeypatch.setattr(atfkit.diagram, "segments_intersect", qfield_segments_intersect)
    assert _validation_outcomes(cases) == ours
    # the crossing tests decided some of them
    messages = [r[2] for r in ours if r[0] == "error"]
    assert sum("intersect" in m for m in messages) >= 20
    # validation of the slid diagram refuses a sweep that meets another cut
    assert sum(r[0] == "error" and "intersect" in r[2] for r in slides) >= 20
    assert sum(r[0] == "value" for r in ours) >= 100


def test_piecewise_compose_tells_two_loops_on_one_vertex_set_apart():
    shear = UnimodularAffineMap.linear(1, 1, 0, 1)
    # one vertex set, two simple loops: areas 14 and 12
    a = tuple(pt(*xy) for xy in [(0, 0), (2, 1), (4, 0), (4, 4), (0, 4)])
    b = tuple(pt(*xy) for xy in [(0, 0), (4, 0), (2, 1), (4, 4), (0, 4)])
    assert (_loop_area_twice(a), _loop_area_twice(b)) == (28, 24)
    there, back = PiecewiseMap(a, shear), PiecewiseMap(b, shear.inverse())
    # applied in turn, the two maps are no identity
    assert back.apply(there.apply(pt(3, 1))) == pt(4, 1)
    with pytest.raises(ValueError, match="piecewise maps act on different regions"):
        back.compose(there)
    # the same loop from another start or the other way round is one region
    for same in (a[2:] + a[:2], tuple(reversed(a)), tuple(reversed(a[3:] + a[:3]))):
        round_trip = PiecewiseMap(same, shear.inverse()).compose(there)
        assert round_trip.is_identity() and round_trip.region == a


def test_piecewise_compose_requires_matching_regions():
    shear = UnimodularAffineMap.linear(1, 1, 0, 1)
    one = PiecewiseMap(region=(pt(0, 0), pt(2, 0), pt(2, 2)), region_map=shear)
    other = PiecewiseMap(region=(pt(0, 0), pt(3, 0), pt(3, 3)), region_map=shear)
    with pytest.raises(ValueError):
        one.compose(other)
    assert not one.is_identity()


# -- the initial diagram -----------------------------------------------------------


def test_build_pi0_structure():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    diagram = build_pi0(params)
    assert len(diagram.nodes) == 5
    assert len(diagram.cuts) == 5
    assert diagram.params == params
    trades = [e for e in diagram.provenance if e[0] == "trade"]
    slides = [e for e in diagram.provenance if e[0] == "slide"]
    assert len(trades) == 5 and len(slides) == 1


def stepwise_build_pi0(params: ConstructionParams) -> BaseDiagram:
    """``build_pi0`` as it was before it traded all five corners in one
    diagram: five public trades and a slide, each validated."""
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


IRRATIONAL_PARAMS = [
    ConstructionParams(QField(4, 1, 2), QField(2, Fraction(1, 2), 2),
                       QField(Fraction(1, 2), Fraction(1, 8), 2), Fraction(1, 8)),
    ConstructionParams(QField(0, 3, 2), QField(0, 2, 2), QField(0, Fraction(1, 2), 2),
                       QField(0, Fraction(1, 8), 2)),
    ConstructionParams(4, QField(Fraction(5, 2), Fraction(1, 3), 3), Fraction(3, 4),
                       QField(0, Fraction(1, 9), 3)),
    ConstructionParams(QField(0, 2, 3), QField(0, 2, 3), Fraction(1, 2),
                       QField(0, Fraction(1, 7), 3)),
]


def test_build_pi0_matches_the_stepwise_construction():
    rng = random.Random(2024)
    for params in [DEFAULT_PARAMS, *IRRATIONAL_PARAMS] + [random_params(rng) for _ in range(200)]:
        ours, theirs = build_pi0(params), stepwise_build_pi0(params)
        assert ours == theirs
        assert ours.to_json() == theirs.to_json()


def test_build_pi0_validates_its_diagram_once(monkeypatch):
    calls = {"validate": 0, "trade": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    validate = atfkit.diagram._validate_diagram
    monkeypatch.setattr(atfkit.diagram, "_validate_diagram", counted("validate", validate))
    monkeypatch.setattr(atfkit.diagram, "_traded_corner", counted("trade", _traded_corner))
    build_pi0(DEFAULT_PARAMS)
    assert calls == {"validate": 1, "trade": 5}
    # the public move trades by the same rule
    nodal_trade(BaseDiagram(polygon=SQUARE), 0, 1)
    assert calls == {"validate": 3, "trade": 6}


def test_build_pi0_frozen_nodes():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    diagram = build_pi0(params)
    positions = [tuple(n.position) for n in diagram.nodes]
    assert positions == [
        (qf("-31/16"), qf("-15/16")),
        (qf("3/2"), qf("-1/2")),  # slid up to the distance-c level
        (qf("31/16"), qf("-1/2")),
        (qf("31/16"), qf("15/16")),
        (qf("-31/16"), qf("15/16")),
    ]
    eigens = [n.eigen_dir for n in diagram.nodes]
    assert eigens == [
        LatticeVector(1, 1),
        LatticeVector(0, 1),
        LatticeVector(-1, 0),
        LatticeVector(-1, -1),
        LatticeVector(1, -1),
    ]
    slid = diagram.nodes[1]
    assert diagram.polygon.distance_to_boundary(slid.position) == params.c


def test_build_pi0_scales_with_parameters():
    params = ConstructionParams(6, 3, qf("3/4"), qf("1/4"))
    diagram = build_pi0(params)
    assert len(diagram.nodes) == 5
    slid = diagram.nodes[1]
    assert diagram.polygon.distance_to_boundary(slid.position) == params.c
    assert slid.eigen_dir == LatticeVector(0, 1)


# -- serialization -------------------------------------------------------------------


def test_diagram_json_round_trip():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    diagram = build_pi0(params)
    again = BaseDiagram.from_json(diagram.to_json())
    assert again.same_geometry(diagram)
    assert again.params == params
    assert again.provenance == diagram.provenance


def test_json_rejects_self_intersecting_polygon():
    obj = BaseDiagram(polygon=SQUARE).to_json_obj()
    obj["polygon"]["vertices"] = [[0, 0], [5, 3], [-1, 3], [4, 0], [2, 5]]
    with pytest.raises(ValueError):
        BaseDiagram.from_json(json.dumps(obj))


@pytest.mark.parametrize(
    "field, value",
    [("eigen_dir", [1.9, 1.2]), ("eigen_dir", [True, 0]), ("eigen_dir", [1, 0, 0]),
     ("multiplicity", 1.7),
     ("multiplicity", True), ("node", 0.0), ("position", [0.5, 1])],
)
def test_json_rejects_inexact_numbers(field, value):
    # int() used to truncate: [1.9, 1.2] became (1, 1) and 1.7 became 1
    obj = traded_square().to_json_obj()
    BaseDiagram.from_json(json.dumps(obj))
    (obj["cuts"] if field == "node" else obj["nodes"])[0][field] = value
    with pytest.raises(ValueError):
        BaseDiagram.from_json(json.dumps(obj))


def test_cut_legs_up_to_the_limit_are_validated():
    diagram = BaseDiagram.from_json(staircase_diagram(LEG_LIMIT + 1))
    assert sum(len(cut.segments()) for cut in diagram.cuts) == LEG_LIMIT == 256
    with pytest.raises(ValueError, match=f"257 legs in total, above the limit {LEG_LIMIT}"):
        BaseDiagram.from_json(staircase_diagram(LEG_LIMIT + 2))


@pytest.mark.parametrize("name", sorted(hostile_diagrams()))
def test_json_rejects_hostile_input(name):
    with pytest.raises(ValueError):
        BaseDiagram.from_json(hostile_diagrams()[name])


@pytest.mark.parametrize(
    "record",
    [("noted",), ("trade", 0), ("trade", 0.5, qf(1)), ("trade", True, qf(1)),
     ("trade", 0, 0.5), ("cut_transfer", 0, 1), ("recurrence_loop", 0), (), "trade",
     ("trade", 4, qf(1)), ("trade", -1, qf(1)), ("cut_transfer", 0),
     ("slide", 0, pt(1, 1), pt(2, 2), (qf(1), qf(2))), ("recurrence_loop",)],
)
def test_json_writer_refuses_records_outside_the_move_table(record):
    # whatever the writer emits reads back, so it refuses what would not:
    # a record outside the table (the recurrence_loop record left it), or
    # one naming a vertex or node SQUARE lacks
    diagram = BaseDiagram(polygon=SQUARE, provenance=(record,))
    with pytest.raises(ValueError):
        diagram.to_json_obj()


@pytest.mark.parametrize(
    "polygon, record, refusal",
    [
        (SQUARE, ("trade", 0, qf(-5)), "trade parameter must be positive"),
        (SQUARE, ("trade", 3, qf(0)), "trade parameter must be positive"),
        (Polygon([(0, 0), (2, 0), (0, 1)]), ("trade", 2, qf("1/8")), "vertex 2 is not a Delzant corner"),
    ],
    ids=["minus-5", "zero", "skew-corner"],
)
def test_json_refuses_a_trade_record_that_no_trade_writes(polygon, record, refusal):
    # the trade's own checks, run on each record when it is written and read,
    # after a trade at vertex 0 that passes them
    message = f"provenance record 1: {refusal}"
    diagram = BaseDiagram(polygon=polygon, provenance=(("trade", 0, qf("1/8")), record))
    with pytest.raises(ValueError) as caught:
        diagram.to_json_obj()
    assert str(caught.value) == message
    obj = BaseDiagram(polygon=polygon).to_json_obj()
    obj["provenance"] = [["trade", 0, "1/8"], ["trade", record[1], str(record[2])]]
    with pytest.raises(ValueError) as caught:
        BaseDiagram.from_json_obj(obj)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "forge, refusal",
    [
        (
            lambda trade, first, second: (trade, first, ("slide", 0, second[3], second[3], (second[3].x1,) * 2)),
            "provenance record 2: slide of node 0 starts and ends at (3/2, 3/2)",
        ),
        (
            lambda trade, first, second: (trade, second, first),
            "provenance record 2: slide of node 0 starts at (1/1, 1/1), not at (3/2, 3/2) where record 1 ended",
        ),
        (
            lambda trade, first, second: (trade, first),
            "provenance record 1: slide of node 0 ends at (2/1, 2/1), not at the node's position (3/2, 3/2)",
        ),
    ],
    ids=["old-equals-new", "broken-chain", "ends-off-the-node"],
)
def test_json_refuses_a_slide_record_that_no_slide_writes(forge, refusal):
    # node 0 of the traded square slides (1, 1) -> (2, 2) -> (3/2, 3/2) on its
    # diagonal; that history reads back, and each forged one is refused when
    # it is written and when it is read
    diagram = nodal_slide(nodal_slide(traded_square(), 0, pt(2, 2)), 0, pt("3/2", "3/2"))
    assert BaseDiagram.from_json(diagram.to_json()).provenance == diagram.provenance
    forged = replace(diagram, provenance=forge(*diagram.provenance))
    with pytest.raises(ValueError) as caught:
        forged.to_json_obj()
    assert str(caught.value) == refusal
    obj = diagram.to_json_obj()
    obj["provenance"] = [_move_to_json(record) for record in forged.provenance]
    with pytest.raises(ValueError) as caught:
        BaseDiagram.from_json_obj(obj)
    assert str(caught.value) == refusal


def test_json_node_without_a_multiplicity_reads_as_one():
    """Kills the mutant ``n.get("multiplicity", 1)`` -> ``2`` in
    ``BaseDiagram.from_json_obj``: the field may be left out."""
    obj = traded_square().to_json_obj()
    del obj["nodes"][0]["multiplicity"]
    assert BaseDiagram.from_json_obj(obj).nodes == traded_square().nodes


def test_diagram_json_text_indents_by_two_spaces():
    """Kills the mutant ``indent=2`` -> ``indent=3`` in ``BaseDiagram.to_json``:
    the text that ``atfkit build`` writes keeps its layout."""
    head = build_pi0(DEFAULT_PARAMS).to_json().splitlines()[:5]
    assert head == ["{", '  "polygon": {', '    "vertices": [', "      [", '        "-2/1",']


def test_json_round_trip_after_transfer():
    diagram = nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(2))
    moved, _ = cut_transfer(
        diagram, 0, BranchCut(0, (diagram.nodes[0].position, pt(4, 4)))
    )
    again = BaseDiagram.from_json(moved.to_json())
    assert again.same_geometry(moved)
    assert again.provenance == moved.provenance


def test_same_geometry_ignores_history():
    plain = BaseDiagram(polygon=SQUARE)
    tagged = BaseDiagram(polygon=SQUARE, provenance=(("noted",),))
    assert plain.same_geometry(tagged)
    other = BaseDiagram(polygon=Polygon([(0, 0), (5, 0), (5, 5), (0, 5)]))
    assert not plain.same_geometry(other)
