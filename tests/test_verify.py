"""The randomized property battery passes end to end, prints the frozen
report at seed 2026, and fails each row of each check on a fault planted in
the library code that row reads."""

import ast
import inspect
import io
import itertools
from dataclasses import replace
from pathlib import Path

import pytest

from atfkit import scalars, verify
from atfkit.homology import H2Class
from atfkit.plane import Point, UnimodularAffineMap
from atfkit.polygon import Polygon, centered_rectangle
from atfkit.recurrence import StripShear
from atfkit.scalars import QField, qf
from atfkit.verify import CHECKS, run_all

GOLDEN = Path(__file__).parent / "golden" / "verify_2026.txt"
SHIFT = UnimodularAffineMap.translation(1, 0)


def test_run_all_passes():
    buffer = io.StringIO()
    assert run_all(seed=2026, out=buffer) == 0
    lines = buffer.getvalue().strip().splitlines()
    assert len(lines) == len(CHECKS) + 1
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == f"{len(CHECKS)}/{len(CHECKS)} properties passed"
    assert buffer.getvalue() == GOLDEN.read_text()


@pytest.mark.parametrize("seed", [99, 12])
def test_every_check_passes_at_seed(seed):
    # seed 12 draws y = 0 once in scalar-field-axioms, which skips its (x/y)y row
    buffer = io.StringIO()
    assert run_all(seed=seed, out=buffer) == 0, buffer.getvalue()


def test_a_check_that_raises_fails(monkeypatch):
    # a crashed check is a failed check: a raise, not a value fault
    def planted(name):
        raise ValueError("planted")

    monkeypatch.setattr(verify, "catalog", planted)
    monkeypatch.setattr(verify, "CHECKS", [row for row in CHECKS if row[0] == "catalog-labels"])
    buffer = io.StringIO()
    assert run_all(seed=2026, out=buffer) == 1
    assert buffer.getvalue().splitlines() == [
        "FAIL  catalog-labels: raised ValueError: planted",
        "0/1 properties passed",
    ]


def _plus_one(method):
    return lambda self, other: method(self, other) + 1


def _noisy_render(render_svg):
    calls = itertools.count()
    return lambda diagram, style=None: render_svg(diagram, style) + f"<!-- {next(calls)} -->"


def _swapped_tags(check_applicable):
    swap = {"half-size-blowup-1": "half-size-blowup-2", "half-size-blowup-2": "half-size-blowup-1"}

    def fault(poly):
        report = check_applicable(poly)
        return replace(report, exception_tag=swap.get(report.exception_tag, report.exception_tag))

    return fault


def _shifted_maximizer(max_distance):
    def fault(poly):
        value, point = max_distance(poly)
        return value, Point(point.x1, point.x2 + value / 2)

    return fault


def _moved_fixed_points(apply_rounds):
    def fault(rm, p):
        q = apply_rounds(rm, p)
        return q if q != p else Point(p.x1 + 1, p.x2)

    return fault


def _four_nodes(build_pi0):
    def fault(params):
        diagram = build_pi0(params)
        return replace(diagram, nodes=diagram.nodes[:4], cuts=diagram.cuts[:4])

    return fault


def _transfer_fault(change):
    # cut_transfer with ``change`` applied to the diagram and transition it returns
    def wrap(cut_transfer):
        return lambda diagram, node_index, new_cut: change(*cut_transfer(diagram, node_index, new_cut))

    return wrap


# One fault per row of every check, in row order: (check, owner, attribute,
# fault built from the original, start of the FAIL detail).  The owner is
# where the row looks the name up, ``atfkit.verify`` for an imported name; a
# class is patched only when nothing earlier on the check's path reads that
# attribute.
FAULTS = [
    ("scalar-field-axioms", QField, "__mul__", _plus_one, "(x + y)z at "),
    (
        "scalar-field-axioms",
        QField, "__add__",
        lambda add: lambda self, other: add(self, other * 2),
        "xy and x + y at ",
    ),
    ("scalar-field-axioms", QField, "__truediv__", _plus_one, "(x/y)y at "),
    ("scalar-field-axioms", QField, "__rsub__", _plus_one, "int "),
    ("scalar-field-axioms", QField, "__rtruediv__", _plus_one, "Fraction "),
    (
        "scalar-field-axioms",
        verify, "parse_scalar",
        lambda parse_scalar: lambda text: parse_scalar(text) + 1,
        "parse of '",
    ),
    ("scalar-field-axioms", scalars, "floor", lambda floor: lambda x: floor(x) + 1, "n <= x < n + 1 at x = "),
    (
        "affine-invariance",
        verify, "affine_length",
        lambda affine_length: lambda p, q: affine_length(p, q) + abs(q.x1 - p.x1),
        "affine length from ",
    ),
    (
        "affine-invariance",
        UnimodularAffineMap, "inverse",
        lambda inverse: lambda self: SHIFT.compose(inverse(self)),
        "inverse after ",
    ),
    (
        "affine-invariance",
        verify, "unipotent_fixing",
        lambda fixing: lambda *args, **kwargs: fixing(*args, **kwargs).compose(SHIFT),
        "unipotent shear of ",
    ),
    (
        "distance-closed-form",
        verify, "build_blowup_polygon",
        lambda build: lambda params: build(replace(params, c=params.c + params.c / 1000)),
        "distance at ",
    ),
    (
        "max-distance-b-half",
        Polygon, "max_distance",
        lambda max_distance: lambda poly: (max_distance(poly)[0] * 1001 / 1000, max_distance(poly)[1]),
        "max distance at b = ",
    ),
    ("max-distance-b-half", Polygon, "max_distance", _shifted_maximizer, "distance at the maximizer "),
    (
        "level-perimeter-formula",
        verify, "build_blowup_polygon",
        lambda build: lambda params: centered_rectangle(params.a, params.b),
        "edges at level 0/1: got 4, expected 5",
    ),
    (
        "level-perimeter-formula",
        verify, "perimeter_value",
        lambda perimeter_value: lambda params, h: perimeter_value(params, h) + h,
        "perimeter at level ",
    ),
    (
        "recurrence-rotation",
        verify, "apply_rounds",
        lambda apply_rounds: lambda rm, p: apply_rounds(replace(rm, rounds=rm.rounds[::-1]), p),
        "four rounds below c at level ",
    ),
    ("recurrence-rotation", verify, "apply_rounds", _moved_fixed_points, "four rounds above c at level "),
    (
        "round-one-form",
        verify, "build_recurrence_map",
        lambda build: lambda diagram, verify=True: replace(
            build(diagram, verify), rounds=build(diagram, verify).rounds[::-1]
        ),
        "round one strip normal and offset: got (LatticeVector(u=1, v=0), ",
    ),
    (
        "round-one-form",
        StripShear, "shear_map",
        lambda shear_map: property(lambda self: shear_map.fget(self).inverse()),
        "round one map: got ",
    ),
    (
        "rotation-equivariance",
        verify, "rotate_on_level",
        lambda rotate: lambda poly, h, t, p: rotate(poly, h, t + p.x1, p),
        "det=+1 map of the rotated ",
    ),
    (
        "rotation-equivariance",
        verify, "rotate_on_level",
        lambda rotate: lambda poly, h, t, p: rotate(poly, h, abs(t), p),
        "det=-1 map of the rotated ",
    ),
    (
        "periodic-level-39",
        verify, "classify_level",
        lambda classify: lambda params, h, **kw: replace(
            classify(params, h, **kw), period=classify(params, h, **kw).period + 1
        ),
        "level 1/4 rho, kind and period: got (QField('1/39'), 'periodic', 40), ",
    ),
    (
        "periodic-level-39",
        verify, "apply_phi_iter",
        lambda iterate: lambda rm, p, n: iterate(rm, p, n + 1),
        "iterate 39 of ",
    ),
    (
        "periodic-level-39",
        verify, "apply_phi_iter",
        lambda iterate: lambda rm, p, n: p if n % 3 == 0 else iterate(rm, p, n),
        "proper divisors n of 39 with iterate n of (0/1, -3/4) at the start: got [3], expected []",
    ),
    (
        "irrational-level-sqrt2",
        verify, "classify_level",
        lambda classify: lambda params, h, **kw: replace(classify(params, h, **kw), kind="periodic"),
        "kind of level ",
    ),
    (
        "irrational-level-sqrt2",
        verify, "rotation_number",
        lambda rho: lambda params, h: rho(params, qf("1/4")),
        "rotation number 1/39 is rational: got True, expected False",
    ),
    (
        "irrational-level-sqrt2",
        verify, "gap_values",
        lambda gap_values: lambda params, h, count: [*gap_values(params, h, count), qf(1)],
        "gaps past the third at N=100: got [",
    ),
    (
        "irrational-level-sqrt2",
        verify, "equidistribution_stats",
        lambda stats: lambda params, h, n, bins: [0, *stats(params, h, n, bins)[1:]],
        "sum and empty bins of histogram [0, ",
    ),
    (
        "rho-strictly-decreasing",
        verify, "rho_monotone_check",
        lambda check: lambda params: (params.b - 4 * params.c).sign() > 0,
        "rho_monotone_check at a=4/1, b=2/1, c=1/2: got False, expected True",
    ),
    (
        "rho-strictly-decreasing",
        verify, "rotation_number",
        lambda rho: lambda params, h: rho(params, h) + h,
        "levels k with rho((c - eps)k/10) <= rho((c - eps)(k + 1)/10) at a=4/1, b=2/1, c=1/2, eps=1/8: "
        "got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], expected []",
    ),
    (
        "twist-classes",
        verify, "find_twist_classes",
        lambda find: lambda bound: [*find(bound), H2Class(2, -2, 0)],
        "closed form at bound 20: got ",
    ),
    (
        "twist-classes",
        H2Class, "as_tuple",
        lambda as_tuple: lambda self: as_tuple(self)[::-1],
        "closed form at bound 12, against the brute-force cube: got ",
    ),
    (
        "twist-classes",
        verify, "intersection",
        lambda intersection: lambda x, y: intersection(x, y) + 1,
        "square and c1 of the brute-force classes: got [(-1, 0), (-1, 0)]",
    ),
    (
        "catalog-labels",
        verify, "check_applicable",
        _swapped_tags,
        "applicable and tag of Blowup_S2xS2(4,2,1): got (False, 'half-size-blowup-2'), ",
    ),
    (
        "catalog-labels",
        verify, "monotone_test",
        lambda monotone_test: lambda poly: not monotone_test(poly),
        "monotone test of Bl3CP2 and S2xS2(4,2): got (False, True)",
    ),
    ("diagram-moves", verify, "build_pi0", _four_nodes, "initial nodes and cuts: got (4, 4)"),
    (
        "diagram-moves",
        verify, "build_pi0",
        lambda build: lambda params: build(replace(params, eps=params.eps / 2)),
        "slide band: got ",
    ),
    (
        "diagram-moves",
        verify, "cut_transfer",
        _transfer_fault(lambda moved, push: (
            replace(moved, nodes=tuple(replace(node, multiplicity=2) for node in moved.nodes)), push
        )),
        "transfer round trip geometry: got ",
    ),
    (
        "diagram-moves",
        verify, "cut_transfer",
        _transfer_fault(lambda moved, push: (moved, replace(push, region_map=push.region_map.compose(SHIFT)))),
        "transfer round trip transition: got ",
    ),
    (
        "diagram-moves",
        verify, "cut_transfer",
        _transfer_fault(lambda moved, push: (moved, replace(push, region_map=push.region_map.inverse()))),
        "transfer monodromy: got UnimodularAffineMap(m11=0, m12=1, m21=-1, m22=2, ",
    ),
    ("render-deterministic", verify, "render_svg", _noisy_render, "second render at character "),
    (
        "render-deterministic",
        verify, "RenderStyle",
        lambda style: lambda **kwargs: style(**{**kwargs, "show_levels": ()}),
        "nodes, cuts and levels drawn: got (5, 5, 0)",
    ),
]


def _row_heads(check):
    """The start of each row label ``check`` yields, up to its first field."""
    tree = ast.parse(inspect.getsource(check))
    return [node.value.elts[0].value.split("{")[0] for node in ast.walk(tree) if isinstance(node, ast.Yield)]


def test_every_row_has_a_planted_fault():
    for name, check, _ in CHECKS:
        heads = _row_heads(check)
        assert all(heads) and len(set(heads)) == len(heads), (name, heads)
        hit = [
            [head for head in heads if detail.startswith(head)]
            for check_name, *_, detail in FAULTS
            if check_name == name
        ]
        assert sorted(hit) == sorted([head] for head in heads), name


def _fault_id(index):
    name = FAULTS[index][0]
    k = [row[0] for row in FAULTS[: index + 1]].count(name)
    return name if k == 1 else f"{name}-{k}"


@pytest.mark.parametrize(
    "name, owner, attr, fault, detail",
    [pytest.param(*row, id=_fault_id(i)) for i, row in enumerate(FAULTS)],
)
def test_planted_fault_fails_its_check(monkeypatch, name, owner, attr, fault, detail):
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    monkeypatch.setattr(verify, "CHECKS", [row for row in CHECKS if row[0] == name])
    buffer = io.StringIO()
    assert run_all(seed=2026, out=buffer) == 1
    lines = buffer.getvalue().splitlines()
    failed = [line for line in lines if line.startswith(f"FAIL  {name}: ")]
    assert len(failed) == 1, lines
    got = failed[0].removeprefix(f"FAIL  {name}: ")
    assert not got.startswith("raised"), got
    assert got.startswith(detail), got
    assert lines[-1] == "0/1 properties passed"
