"""Applicability screening for Delzant polygons.

A polygon passes the screen when some edge has self-intersection -1 and
lattice length strictly below the maximum distance to the boundary: such
an edge certifies a small exceptional sphere, the geometric input the
displacement construction needs.  Polygons that fail the screen are
matched against the known exceptional families and labelled accordingly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .plane import Point
from .polygon import Polygon
from .scalars import QField


@dataclass(frozen=True)
class ApplicabilityReport:
    """Outcome of the screen.

    ``witness_edge``/``witness_length`` identify the smallest qualifying
    edge when applicable.  ``exception_tag`` explains a negative outcome:
    ``monotone``, ``product_unequal``, ``half-size-blowup-1``,
    ``half-size-blowup-2``, or ``none`` when the polygon simply fails the
    screen without matching a known family.
    """

    applicable: bool
    witness_edge: int | None
    witness_length: QField | None
    max_F: QField
    exception_tag: str | None

    def to_json_obj(self) -> dict:
        return {
            "applicable": self.applicable,
            "witness_edge": self.witness_edge,
            "witness_length": (
                None if self.witness_length is None else str(self.witness_length)
            ),
            "max_F": str(self.max_F),
            "exception_tag": self.exception_tag,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def monotone_test(poly: Polygon) -> bool:
    """True when some interior point is equidistant from every edge line.

    The inward normals of a polygon positively span the plane, so such a
    point is the unique maximizer of F: it suffices to test whether the
    maximizer from ``max_distance`` is equidistant from every edge.
    """
    if not poly.is_delzant():
        raise ValueError("monotone test expects a Delzant polygon")
    return _equidistant(poly, *poly.max_distance())


def _equidistant(poly: Polygon, value: QField, point: Point) -> bool:
    """Whether ``point`` is at distance ``value`` from every edge line."""
    return all(v == value for v in poly.support_values(point))


def check_applicable(poly: Polygon) -> ApplicabilityReport:
    """Screen a Delzant polygon and label the failure family if any.

    The witness is the shortest qualifying edge, one of self-intersection
    -1 and length below max F; a tie goes to the lower index.
    """
    if not poly.is_delzant():
        raise ValueError("applicability screen expects a Delzant polygon")
    max_f, point = poly.max_distance()
    self_ints = [poly.self_intersection(i) for i in range(len(poly.edges))]
    qualifying = [(e.length, i) for i, e in enumerate(poly.edges) if self_ints[i] == -1 and e.length < max_f]
    witness_length, witness_edge = min(qualifying, default=(None, None))
    if qualifying:
        tag = None
    elif _equidistant(poly, max_f, point):
        tag = "monotone"
    elif len(self_ints) == 4 and all(s == 0 for s in self_ints):
        tag = "product_unequal"
    elif len(self_ints) == 5 and -1 in self_ints:
        tag = "half-size-blowup-1"
    elif len(self_ints) == 6 and -1 in self_ints:
        tag = "half-size-blowup-2"
    else:
        tag = "none"
    return ApplicabilityReport(bool(qualifying), witness_edge, witness_length, max_f, tag)


__all__ = ["ApplicabilityReport", "monotone_test", "check_applicable"]
