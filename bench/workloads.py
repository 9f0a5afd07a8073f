"""The three benchmark workloads.

A workload turns a seeded ``random.Random`` into an endless stream of item
specs (plain data: Fractions and ints), runs one item through atfkit's
public functions, converts the result back to plain data, and hands it to
an oracle from ``oracles``.  Only ``run`` is timed; spec generation,
extraction and checking happen outside the timed region.

atfkit functions are always looked up on their module at call time, so
the traced run can replace them with timing wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import oracles
from atfkit import cli, diagram, orbits, plane, polygon, recurrence, scalars


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path], object]
    inputs: Callable[[random.Random], Iterator[dict]]
    run: Callable[[object, dict], object]
    extract: Callable[[object, dict, object], dict]
    check: Callable[[dict, dict], None]
    block: int = 1  # items come in blocks of this many with a fixed mix


def text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def construction(rng: random.Random) -> dict:
    """Random valid (a, b, c, eps): a >= b > 0, 0 < c < b/2, 0 < eps < min(c, b/2 - c)."""
    b = Fraction(rng.randint(2, 12), rng.randint(1, 3))
    a = b + Fraction(rng.randint(0, 9), rng.randint(1, 3))
    c = b * Fraction(rng.randint(1, 9), 20)
    eps = min(c, b / 2 - c) * Fraction(rng.randint(1, 9), 10)
    return {"a": a, "b": b, "c": c, "eps": eps}


def plain_point(p) -> tuple[Fraction, Fraction]:
    return oracles.rational(str(p.x1)), oracles.rational(str(p.x2))


# -- orbit: level-by-level dynamics on the base parameters --------------------

ORBIT_N = 2000
ORBIT_BINS = 10
RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)
ORBIT_BLOCK = 10


def _orbit_setup(workdir: Path):
    return polygon.ConstructionParams(*oracles.BASE)


def _rational_levels_by_period() -> list[list[int]]:
    """The rational levels k/128 in [0, c - eps], split into period terciles."""
    a, b, c, _ = oracles.BASE

    def period(k):
        h = Fraction(k, 128)
        return ((c - h) / (2 * (a + b) - c - 7 * h)).denominator

    ks = sorted(range(49), key=lambda k: (period(k), k))
    return [ks[:16], ks[16:33], ks[33:]]


def _above(p: int, d: int, k: int, bound: Fraction) -> bool:
    """Whether p/64 + sqrt(d)/k >= bound, decided exactly."""
    rest = bound - Fraction(p, 64)
    return rest <= 0 or Fraction(d, k * k) >= rest * rest


def _irrational_level(rng: random.Random, lo: Fraction, hi: Fraction) -> dict:
    """p/64 + sqrt(d)/k in [lo, hi), with hi <= 3/8 = c - eps."""
    while True:
        d = rng.choice(RADICANDS)
        k = rng.randint(10, 40)
        ps = [p for p in range(25) if _above(p, d, k, lo) and not _above(p, d, k, hi)]
        if ps:
            return {"d": d, "k": k, "p": rng.choice(ps)}


def _orbit_inputs(rng: random.Random) -> Iterator[dict]:
    """Blocks of ten levels, shuffled within the block: one rational level
    from each period tercile, and seven quadratic irrationals, one from each
    seventh of [0, c - eps].  The cost of an irrational level depends on h
    (through the sorting in gap_values), so every block spans the range."""
    terciles = _rational_levels_by_period()
    strata = ORBIT_BLOCK - len(terciles)
    top = Fraction(3, 8)
    while True:
        block = [{"d": 0, "k": rng.choice(t)} for t in terciles]
        block += [_irrational_level(rng, top * j / strata, top * (j + 1) / strata)
                  for j in range(strata)]
        rng.shuffle(block)
        yield from block


def _orbit_run(params, spec: dict):
    if spec["d"] == 0:
        h = scalars.QField(Fraction(spec["k"], 128))
    else:
        h = scalars.QField(Fraction(spec["p"], 64), Fraction(1, spec["k"]), spec["d"])
    report = orbits.classify_level(params, h, n_checked=ORBIT_N)
    if spec["d"] == 0:
        return report, None, None
    gaps = orbits.gap_values(params, h, ORBIT_N)
    hist = orbits.equidistribution_stats(params, h, ORBIT_N, ORBIT_BINS)
    return report, gaps, hist


def _orbit_extract(params, spec: dict, raw) -> dict:
    report, gaps, hist = raw
    return {
        "kind": report.kind,
        "period": report.period,
        "rho": str(report.rho),
        "distinct": report.distinct_checked,
        "gaps": None if gaps is None else [str(g) for g in gaps],
        "hist": hist,
    }


def _orbit_check(spec: dict, out: dict) -> None:
    oracles.check_orbit(spec, out, ORBIT_N, ORBIT_BINS)


# -- recurrence: the four-round map on random chopped rectangles -------------

LEVELS = 6
PER_EDGE = 2
FIXED_LEVELS = 2
QUERIES = 40


def _interior_point(rng: random.Random, spec: dict) -> tuple[Fraction, Fraction]:
    a, b, c = spec["a"], spec["b"], spec["c"]
    while True:
        x1 = a * Fraction(rng.randint(-127, 127), 256)
        x2 = b * Fraction(rng.randint(-127, 127), 256)
        if oracles.boundary_distance(a, b, c, x1, x2) > 0:
            return x1, x2


def _recurrence_inputs(rng: random.Random) -> Iterator[dict]:
    while True:
        spec = construction(rng)
        spec["queries"] = [_interior_point(rng, spec) for _ in range(QUERIES)]
        yield spec


def _edge_samples(level) -> list:
    """Every vertex and PER_EDGE evenly spaced points inside every edge."""
    points = list(level.vertices)
    for v, edge in zip(level.vertices, level.edges):
        for j in range(1, PER_EDGE + 1):
            points.append(plane.move(v, edge.direction, edge.length * Fraction(j, PER_EDGE + 1)))
    return points


def _recurrence_run(ctx, spec: dict):
    params = polygon.ConstructionParams(spec["a"], spec["b"], spec["c"], spec["eps"])
    rm = recurrence.build_recurrence_map(diagram.build_pi0(params), verify=True)
    poly = rm.polygon
    moved = []
    for k in range(LEVELS):
        h = (params.c - params.eps) * k / LEVELS
        for p in _edge_samples(poly.level_set(h)):
            moved.append((h, p, recurrence.apply_rounds(rm, p), recurrence.apply_phi(rm, p)))
    fixed = []
    low, top = params.c + params.eps, params.b / 2
    for j in range(1, FIXED_LEVELS + 1):
        h = low + (top - low) * j / (FIXED_LEVELS + 1)
        for p in poly.level_set(h).vertices:
            fixed.append((h, p, recurrence.apply_rounds(rm, p), recurrence.apply_phi(rm, p)))
    distance = []
    for x1, x2 in spec["queries"]:
        p = plane.Point(x1, x2)
        distance.append((p, poly.distance_to_boundary(p)))
    return moved, fixed, distance


def _recurrence_extract(ctx, spec: dict, raw) -> dict:
    moved, fixed, distance = raw

    def rows(records):
        return [
            (oracles.rational(str(h)), plain_point(p), plain_point(r), plain_point(f))
            for h, p, r, f in records
        ]

    return {
        "moved": rows(moved),
        "fixed": rows(fixed),
        "distance": [(plain_point(p), oracles.rational(str(v))) for p, v in distance],
    }


# -- diagram_io: one CLI session on fresh parameters -------------------------

MCG_BOUND = 6


def _session_setup(workdir: Path) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def _session_inputs(rng: random.Random) -> Iterator[dict]:
    while True:
        spec = construction(rng)
        spec["levels"] = [spec["b"] / 2 * Fraction(rng.randint(1, 255), 256) for _ in range(2)]
        spec["bound"] = MCG_BOUND
        yield spec


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _session_run(workdir: Path, spec: dict):
    shape = [x for k in ("a", "b", "c") for x in (f"--{k}", text(spec[k]))]
    built, svg, poly = workdir / "pi0.json", workdir / "pi0.svg", workdir / "polygon.json"
    codes = [_cli(["build", *shape, "--eps", text(spec["eps"]), "-o", str(built)])[0]]
    levels = ",".join(text(h) for h in spec["levels"])
    codes.append(
        _cli(["render", str(built), "--levels", levels, "--eigenlines", "--strips", "-o", str(svg)])[0]
    )
    poly.write_text(json.dumps(json.loads(built.read_text())["polygon"]))
    code, screen = _cli(["classify", str(poly)])
    codes.append(code)
    code, twists = _cli(["mcg", *shape, "--bound", str(spec["bound"])])
    codes.append(code)
    return codes, screen, twists


def _session_extract(workdir: Path, spec: dict, raw) -> dict:
    codes, screen, twists = raw
    built = (workdir / "pi0.json").read_text()
    reloaded = diagram.BaseDiagram.from_json(built).to_json()
    (workdir / "pi0b.json").write_text(reloaded)
    levels = ",".join(text(h) for h in spec["levels"])
    code, _ = _cli(
        ["render", str(workdir / "pi0b.json"), "--levels", levels, "--eigenlines", "--strips",
         "-o", str(workdir / "pi0b.svg")]
    )
    svg = (workdir / "pi0.svg").read_text()
    return {
        "codes": codes + [code],
        "diagram": built,
        "reloaded": reloaded,
        "svg": svg,
        "rerender": (workdir / "pi0b.svg").read_text(),
        "classify": screen,
        "mcg": twists,
        "cli_bytes": len(built) + len(svg) + len(screen) + len(twists),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("orbit", _orbit_setup, _orbit_inputs, _orbit_run, _orbit_extract,
                 _orbit_check, block=ORBIT_BLOCK),
        Workload("recurrence", lambda workdir: None, _recurrence_inputs, _recurrence_run,
                 _recurrence_extract, oracles.check_recurrence),
        Workload("diagram_io", _session_setup, _session_inputs, _session_run,
                 _session_extract, oracles.check_session),
    )
}
