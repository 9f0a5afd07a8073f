"""The randomized property battery passes end to end, prints the frozen
report at seed 2026, and fails each check on a fault planted in the
library code that check reads."""

import io
import itertools
import random
from dataclasses import replace
from pathlib import Path

import pytest

from atfkit import verify
from atfkit.homology import H2Class
from atfkit.plane import UnimodularAffineMap
from atfkit.polygon import Polygon
from atfkit.scalars import qf
from atfkit.verify import CHECKS, run_all

GOLDEN = Path(__file__).parent / "golden" / "verify_2026.txt"


def test_run_all_passes():
    buffer = io.StringIO()
    assert run_all(seed=2026, out=buffer) == 0
    lines = buffer.getvalue().strip().splitlines()
    assert len(lines) == len(CHECKS) + 1
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == f"{len(CHECKS)}/{len(CHECKS)} properties passed"
    assert buffer.getvalue() == GOLDEN.read_text()


def test_every_check_reports_detail():
    for name, fn in CHECKS:
        ok, detail = fn(random.Random(f"99:{name}"))
        assert ok, f"{name}: {detail}"
        assert detail


def _noisy_render(render_svg):
    calls = itertools.count()
    return lambda diagram, style=None: render_svg(diagram, style) + f"<!-- {next(calls)} -->"


def _swapped_tags(check_applicable):
    swap = {"half-size-blowup-1": "half-size-blowup-2", "half-size-blowup-2": "half-size-blowup-1"}

    def fault(poly):
        report = check_applicable(poly)
        return replace(report, exception_tag=swap.get(report.exception_tag, report.exception_tag))

    return fault


def _shifted_transfer(cut_transfer):
    shift = UnimodularAffineMap.translation(1, 0)

    def fault(diagram, node_index, new_cut):
        moved, push = cut_transfer(diagram, node_index, new_cut)
        return moved, replace(push, region_map=push.region_map.compose(shift))

    return fault


# One fault per check: (check, owner, attribute, fault built from the
# original, start of the FAIL detail).  The owner is where the check looks
# the name up, ``atfkit.verify`` for an imported name; a class is patched
# only when nothing else on the check's path calls that method.
FAULTS = [
    (
        "scalar-field-axioms",
        verify, "parse_scalar",
        lambda parse_scalar: lambda text: parse_scalar(text) + 1,
        "text ",
    ),
    (
        "affine-invariance",
        verify, "affine_length",
        lambda affine_length: lambda p, q: affine_length(p, q) + abs(q.x1 - p.x1),
        "affine length ",
    ),
    (
        "distance-closed-form",
        verify, "build_blowup_polygon",
        lambda build: lambda params: build(replace(params, c=params.c + params.c / 1000)),
        "distance ",
    ),
    (
        "max-distance-b-half",
        Polygon, "max_distance",
        lambda max_distance: lambda poly: (max_distance(poly)[0] * 1001 / 1000, max_distance(poly)[1]),
        "max distance ",
    ),
    (
        "level-perimeter-formula",
        verify, "perimeter_value",
        lambda perimeter_value: lambda params, h: perimeter_value(params, h) + h,
        "perimeter ",
    ),
    (
        "recurrence-rotation",
        verify, "apply_rounds",
        lambda apply_rounds: lambda rm, p: apply_rounds(replace(rm, rounds=rm.rounds[::-1]), p),
        "composite sent ",
    ),
    (
        "round-one-form",
        verify, "build_recurrence_map",
        lambda build: lambda diagram, verify=True: replace(
            build(diagram, verify), rounds=build(diagram, verify).rounds[::-1]
        ),
        "round one strip is (1, 0), ",
    ),
    (
        "rotation-equivariance",
        verify, "rotate_on_level",
        lambda rotate: lambda poly, h, t, p: rotate(poly, h, abs(t), p),
        "det=-1 map ",
    ),
    (
        "periodic-level-39",
        verify, "classify_level",
        lambda classify: lambda params, h, **kw: replace(
            classify(params, h, **kw), period=classify(params, h, **kw).period + 1
        ),
        "expected rho 1/39 period 39, got 1/39 40",
    ),
    (
        "irrational-level-sqrt2",
        verify, "gap_values",
        lambda gap_values: lambda params, h, count: [*gap_values(params, h, count), qf(1)],
        "gap values ",
    ),
    (
        "rho-strictly-decreasing",
        verify, "rho_monotone_check",
        lambda check: lambda params: (params.b - 4 * params.c).sign() > 0,
        "rho_monotone_check is False at a=4/1, b=2/1, c=1/2",
    ),
    (
        "twist-classes",
        verify, "find_twist_classes",
        lambda find: lambda bound: [*find(bound), H2Class(2, -2, 0)],
        "closed form gave ",
    ),
    (
        "catalog-labels",
        verify, "check_applicable",
        _swapped_tags,
        "Blowup_S2xS2(4,2,1): got applicable=False tag=half-size-blowup-2, ",
    ),
    (
        "diagram-moves",
        verify, "cut_transfer",
        _shifted_transfer,
        "transfer round trip transition is ",
    ),
    (
        "render-deterministic",
        verify, "render_svg",
        _noisy_render,
        "second render has ",
    ),
]


def test_every_check_has_a_planted_fault():
    assert [row[0] for row in FAULTS] == [name for name, _ in CHECKS]


@pytest.mark.parametrize(
    "name, owner, attr, fault, detail", [pytest.param(*row, id=row[0]) for row in FAULTS]
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
