"""Base diagrams and the three moves: trade, slide, cut transfer."""

import json
import random
from fractions import Fraction

import pytest


from atfkit.diagram import (
    BaseDiagram,
    BranchCut,
    Node,
    PiecewiseMap,
    build_pi0,
    cut_transfer,
    nodal_slide,
    nodal_trade,
)
from atfkit.plane import LatticeVector, Point, UnimodularAffineMap, pt
from atfkit.polygon import ConstructionParams, Polygon, build_blowup_polygon
from atfkit.scalars import qf
from atfkit.verify import random_interior_point

SQUARE = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])


def traded_square(param="1") -> BaseDiagram:
    """The square with its origin corner traded: node on the diagonal."""
    return nodal_trade(BaseDiagram(polygon=SQUARE), 0, qf(param))


# -- component validation -------------------------------------------------------


def test_node_validation():
    with pytest.raises(ValueError):
        Node(pt(1, 1), LatticeVector(2, 2))
    with pytest.raises(ValueError):
        Node(pt(1, 1), LatticeVector(1, 0), multiplicity=0)


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


def test_self_intersecting_cut_rejected():
    node = Node(pt(2, 2), LatticeVector(1, 1))
    loop = BranchCut(
        0, (pt(2, 2), pt(3, 3), pt(3, 1), pt(1, 3), pt(1, 0))
    )
    with pytest.raises(ValueError):
        BaseDiagram(SQUARE, (node,), (loop,))


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
    with pytest.raises(ValueError):
        nodal_slide(diagram, 0, pt("7/2", "7/2"))
    # sliding short of the anchor is fine
    slid = nodal_slide(diagram, 0, pt("5/2", "5/2"))
    assert slid.cuts[0].path == (pt("5/2", "5/2"), pt(3, 3), pt(3, 0))


def test_slide_target_on_anchor_rejected():
    diagram = traded_square(param=2)
    with pytest.raises(ValueError):
        nodal_slide(diagram, 0, pt(0, 0))


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
