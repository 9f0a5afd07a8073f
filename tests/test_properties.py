"""Property tests: the scalar text format, the polygon and diagram JSON
readers, and random command lines.

Hypothesis runs derandomized and without an example database, so each run
draws the same examples; ``conftest.py`` keeps its cache out of the checkout.
"""

import contextlib
import copy
import io
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atfkit.cli import ORBIT_LIMIT, main
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


# -- random command lines -------------------------------------------------------------

SCALARS = st.sampled_from(
    ["4", "2", "1/2", "1/8", "3/2", "-1", "0", "1/1000003", "0/1+1/8*sqrt(2)",
     "1/0", "abc", "1.5", "", "1/2+1/3*sqrt(4)", "1/2+1/3*sqrt(99999999999)", "1e300"]
)
COUNTS = st.sampled_from(
    ["-1", "0", "1", "7", "10000", str(ORBIT_LIMIT + 1), str(10**12), "x", "1/2"]
)
PARAM_FLAGS = ["--a", "--b", "--c", "--eps"]


def draw_argv(data, inputs: list[str], outputs: list[str]) -> list[str]:
    """One command line: a subcommand, some of its flags with good and bad
    values, input files that exist, are malformed or are missing, output
    paths that can or cannot be written, and now and then a stray token."""
    command = data.draw(st.sampled_from(["build", "verify", "orbit", "classify", "mcg", "render"]))
    flags = {
        "build": PARAM_FLAGS + ["-o"],
        "verify": ["--seed"],
        "orbit": PARAM_FLAGS + ["--h", "--n", "--bins", "--dump", "--dump-format"],
        "classify": ["--name"],
        "mcg": ["--a", "--b", "--c", "--bound"],
        "render": ["--levels", "--scale", "--no-cuts", "--no-nodes", "--eigenlines",
                   "--strips", "-o"],
    }[command]
    values = {
        "--seed": COUNTS, "--n": COUNTS, "--bins": COUNTS, "--bound": COUNTS,
        "--h": st.sampled_from(["1/4", "1/1000003", "0/1+1/8*sqrt(2)", "3/8", "7", "-1/4", "x"]),
        "--dump": st.sampled_from(outputs), "-o": st.sampled_from(outputs),
        "--dump-format": st.sampled_from(["csv", "json", "xml"]),
        "--name": st.sampled_from(["CP2(3)", "Bl3CP2", "Blowup_S2xS2(4,2,1/2)", "CP2(-1)",
                                   "CP2(1/0)", "nothing", "CP2(", ""]),
        "--levels": st.sampled_from(["1/4", "1/4,1/2", "1/4,,1/2", "0/1+1/8*sqrt(2)", "a,b", "9"]),
        "--no-cuts": None, "--no-nodes": None, "--eigenlines": None, "--strips": None,
    }
    argv = [command]
    if command in ("classify", "render") and data.draw(st.integers(0, 3)):
        argv.append(data.draw(st.sampled_from(inputs)))
    if command == "orbit" and data.draw(st.booleans()):
        argv += ["--h", data.draw(values["--h"])]
    for flag in data.draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)):
        argv.append(flag)
        strategy = values.get(flag, SCALARS)
        if strategy is not None:
            argv.append(data.draw(strategy))
    if data.draw(st.integers(0, 9)) == 0:
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(st.sampled_from(
            ["--unknown", "-x", "--h", "1/2", "extra", "--help"])))
    return argv


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory) -> tuple[list[str], list[str]]:
    """Input files (a diagram, a polygon, malformed JSON, a missing file, a
    directory) and output paths (a file, one in a missing directory, a directory)."""
    directory = tmp_path_factory.mktemp("argv")
    (directory / "pi0.json").write_text(json.dumps(PI0))
    (directory / "polygon.json").write_text(json.dumps(POLYGONS[1]))
    (directory / "malformed.json").write_text('{"vertices": [["0", "0"], ["1"]')
    inputs = ["pi0.json", "polygon.json", "malformed.json", "missing.json", "."]
    outputs = ["out.txt", "absent/out.txt", "."]
    return [str(directory / name) for name in inputs], [str(directory / name) for name in outputs]


@settings(DETERMINISTIC, max_examples=150)
@given(st.data())
def test_random_command_lines_exit_0_1_or_2_without_a_traceback(cli_paths, data):
    argv = draw_argv(data, *cli_paths)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
