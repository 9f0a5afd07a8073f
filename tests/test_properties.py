"""Property tests: the scalar text format and the polygon and diagram JSON readers.

Hypothesis runs derandomized and without an example database, so each run
draws the same examples; ``conftest.py`` keeps its cache out of the checkout.
"""

import copy
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from atfkit.diagram import BaseDiagram, build_pi0
from atfkit.polygon import ConstructionParams, Polygon, catalog
from atfkit.scalars import QField, format_scalar, parse_scalar, qf

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 97, 101, 65521]
RADICANDS = st.sets(st.sampled_from(PRIMES), min_size=1, max_size=3).map(math.prod)

PI0 = build_pi0(ConstructionParams(4, 2, qf("1/2"), qf("1/8"))).to_json_obj()
POLYGONS = [PI0["polygon"], catalog("Bl3CP2").to_json_obj()]

# short strings over the scalar alphabet, so some of them parse
TEXT = st.text("0123456789/+-*sqrt()", max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def walk(obj, data) -> tuple:
    """A (container, key) pair of a JSON document, drawn from the top down."""
    parent, key = obj, data.draw(st.sampled_from(list(obj)))
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
        parent = parent[key]
        keys = list(parent) if isinstance(parent, dict) else range(len(parent))
        key = data.draw(st.sampled_from(keys))
    return parent, key


def mutate(obj, data) -> None:
    """Drop a key, shorten a list, or replace a value by any JSON or by a
    copy of another value of the document, in place."""
    parent, key = walk(obj, data)
    value = parent[key]
    action = data.draw(st.sampled_from(["drop", "shorten", "replace", "copy"]))
    if action == "drop":
        del parent[key]
    elif action == "shorten" and isinstance(value, list) and value:
        del value[data.draw(st.integers(0, len(value) - 1)) :]
    elif action == "copy":
        source, source_key = walk(obj, data)
        parent[key] = copy.deepcopy(source[source_key])
    else:
        parent[key] = data.draw(JSON_VALUES)


@DETERMINISTIC
@given(st.fractions(), st.fractions(), RADICANDS)
def test_parse_inverts_format(a, b, d):
    x = QField(a, b, d)
    assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar(format_scalar(a)) == a


@settings(DETERMINISTIC, max_examples=150)
@given(st.data())
def test_mutated_diagram_json_is_refused_or_reads_back(data):
    obj = copy.deepcopy(PI0)
    for _ in range(data.draw(st.integers(1, 3))):
        if not obj:
            break
        mutate(obj, data)
    try:
        diagram = BaseDiagram.from_json(json.dumps(obj))
    except ValueError:
        return
    again = BaseDiagram.from_json(diagram.to_json())
    assert again == diagram
    assert again.to_json() == diagram.to_json()


@settings(DETERMINISTIC, max_examples=150)
@given(st.data())
def test_mutated_polygon_json_is_refused_or_valid(data):
    obj = copy.deepcopy(data.draw(st.sampled_from(POLYGONS)))
    for _ in range(data.draw(st.integers(1, 3))):
        if not obj:
            break
        mutate(obj, data)
    try:
        poly = Polygon.from_json(json.dumps(obj))
    except ValueError:
        return
    # a polygon that was let in keeps its invariants: it rebuilds from its
    # own vertices, reads back, encloses area and has every vertex on its
    # boundary at its own arc coordinate
    assert Polygon(poly.vertices) == poly
    assert Polygon.from_json(poly.to_json()) == poly
    assert poly.area().sign() > 0
    for i, v in enumerate(poly.vertices):
        assert poly.on_boundary(v)
        assert poly.point_to_arc(v) == poly.arc_of_vertex(i)
