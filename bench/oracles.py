"""Output oracles for the benchmark, written with ``fractions`` alone.

Nothing here imports atfkit.  Results reach the oracles as plain data:
scalars as canonical text (``p/q`` or ``p/q+r/s*sqrt(d)``), points as
pairs of such texts, exit codes as ints and files as strings.  A value
``a + b*sqrt(d)`` is held as the triple ``(a, b, d)`` of two Fractions
and an int (``d = 0`` for a rational value).  Every check raises
:class:`OracleError` with a message naming what disagreed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_TEXT = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)\*sqrt\((\d+)\))?$")


class OracleError(AssertionError):
    """An output of the library disagrees with the benchmark's oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


# -- exact quadratic numbers ------------------------------------------------


def parse(text: str) -> tuple[Fraction, Fraction, int]:
    m = _TEXT.match(text)
    expect(m is not None, f"unparseable scalar {text!r}")
    a = Fraction(m.group(1))
    if m.group(3) is None:
        return a, Fraction(0), 0
    b = Fraction(m.group(3)) * (-1 if m.group(2) == "-" else 1)
    return a, b, int(m.group(4))


def rational(text: str) -> Fraction:
    a, b, _ = parse(text)
    expect(b == 0, f"expected a rational value, got {text!r}")
    return a


def _field(x, y) -> int:
    d = x[2] or y[2]
    expect(not (x[2] and y[2] and x[2] != y[2]), "mixed radicands")
    return d


def q_add(x, y):
    return x[0] + y[0], x[1] + y[1], _field(x, y)


def q_sub(x, y):
    return x[0] - y[0], x[1] - y[1], _field(x, y)


def q_mul(x, y):
    d = _field(x, y)
    return x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d


def q_div(x, y):
    d = _field(x, y)
    norm = y[0] * y[0] - y[1] * y[1] * d
    expect(norm != 0, "division by zero")
    num = q_mul(x, (y[0], -y[1], d))
    return num[0] / norm, num[1] / norm, d


def q_sign(x) -> int:
    a, b, d = x
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    # opposite signs: |a| against |b|*sqrt(d), compared through squares
    return sa if a * a > b * b * d else sb


def q_eq(x, y) -> bool:
    return x[0] == y[0] and (x[1] == y[1] == 0 or x[1:] == y[1:])


def q(value) -> tuple[Fraction, Fraction, int]:
    return Fraction(value), Fraction(0), 0


# -- the chopped rectangle, in closed form -----------------------------------


def boundary_distance(a, b, c, x1, x2) -> Fraction:
    """F on the a-by-b rectangle chopped at its bottom-right corner."""
    return min(a / 2 - abs(x1), b / 2 - abs(x2), x2 - x1 + (a + b) / 2 - c)


def level_vertices(a, b, c, h) -> list[tuple[Fraction, Fraction]]:
    """Counterclockwise vertices of {F = h} for 0 <= h < c, from the
    lexicographically smallest one."""
    return [
        (-a / 2 + h, -b / 2 + h),
        (a / 2 - c, -b / 2 + h),
        (a / 2 - h, -b / 2 + c),
        (a / 2 - h, b / 2 - h),
        (-a / 2 + h, b / 2 - h),
    ]


def level_arc(a, b, c, h, p) -> Fraction:
    """Lattice arc length from the first level vertex to boundary point p."""
    verts = level_vertices(a, b, c, h)
    arc = Fraction(0)
    for i, (u, w) in enumerate(verts):
        nu, nw = verts[(i + 1) % len(verts)]
        du, dw = nu - u, nw - w
        # edge directions are (1,0), (1,1), (0,1), (-1,0) and (0,-1), so the
        # lattice length of a step along an edge is its larger coordinate
        step = max(abs(du), abs(dw))
        su, sw = p[0] - u, p[1] - w
        if su * dw == sw * du and su * du >= 0 and sw * dw >= 0:
            lam = max(abs(su), abs(sw))
            if lam < step:
                return arc + lam
        arc += step
    raise OracleError(f"point {p} is not on level {h}")


# -- orbit workload ----------------------------------------------------------

BASE = (Fraction(4), Fraction(2), Fraction(1, 2), Fraction(1, 8))


def level_value(spec: dict):
    """The level h of an orbit item as a quadratic triple."""
    if spec["d"] == 0:
        return Fraction(spec["k"], 128), Fraction(0), 0
    return Fraction(spec["p"], 64), Fraction(1, spec["k"]), spec["d"]


def check_orbit(spec: dict, out: dict, n: int, bins: int) -> None:
    a, b, c, _ = BASE
    h = level_value(spec)
    advance = q_sub(q(c), h)
    perimeter = q_sub(q(2 * (a + b) - c), q_mul(q(7), h))
    rho = q_div(advance, perimeter)
    expect(q_eq(parse(out["rho"]), rho), f"rho {out['rho']} for level {spec}")
    if spec["d"] == 0:
        period = rho[0].denominator
        expect(out["kind"] == "periodic", f"rational level reported {out['kind']}")
        expect(out["period"] == period, f"period {out['period']}, expected {period}")
        expect(out["distinct"] == period, "distinct count differs from the period")
        return
    expect(out["kind"] == "irrational-certified", f"irrational level reported {out['kind']}")
    expect(out["period"] is None, "irrational level reported a period")
    expect(out["distinct"] == n, "irrational level checked the wrong number of iterates")
    gaps = [parse(g) for g in out["gaps"]]
    expect(1 <= len(gaps) <= 3, f"{len(gaps)} distinct gaps break the three-gap theorem")
    expect(all(q_sign(g) > 0 for g in gaps), "a gap is not positive")
    expect(
        all(not q_eq(x, y) for i, x in enumerate(gaps) for y in gaps[i + 1 :]),
        "gap values repeat",
    )
    if len(gaps) == 3:
        expect(
            any(q_eq(g, q_add(*(o for o in gaps if o is not g))) for g in gaps),
            "the largest of three gaps is not the sum of the other two",
        )
    hist = out["hist"]
    expect(len(hist) == bins and all(x >= 0 for x in hist), "malformed histogram")
    expect(sum(hist) == n, f"histogram sums to {sum(hist)}, expected {n}")


# -- recurrence workload -----------------------------------------------------


def check_recurrence(spec: dict, out: dict) -> None:
    a, b, c, eps = (spec[k] for k in ("a", "b", "c", "eps"))
    for h, p, rounds, phi in out["moved"]:
        per = 2 * (a + b) - c - 7 * h
        expect(h <= c - eps, f"level {h} is not in the full-advance range")
        start = level_arc(a, b, c, h, p)
        for name, image in (("rounds", rounds), ("phi", phi)):
            got = boundary_distance(a, b, c, *image)
            expect(got == h, f"{name} moved {p} from level {h} to {got}")
            step = (level_arc(a, b, c, h, image) - start) % per
            expect(step == c - h, f"{name} advanced {p} by {step}, expected {c - h}")
    for h, p, rounds, phi in out["fixed"]:
        expect(h > c + eps, f"level {h} is not above the taper band")
        expect(boundary_distance(a, b, c, *p) == h, f"sample {p} is not on level {h}")
        expect(rounds == p and phi == p, f"point {p} on level {h} moved")
    for p, got in out["distance"]:
        want = boundary_distance(a, b, c, *p)
        expect(got == want, f"distance at {p} is {got}, expected {want}")


# -- diagram_io workload -----------------------------------------------------


def twist_classes(bound: int) -> list[tuple[int, int, int]]:
    """Brute force: classes of square -2 with c1 = 0 in the (A, B, E) basis."""
    r = range(-bound, bound + 1)
    return [
        (x, y, z)
        for x in r
        for y in r
        for z in r
        if 2 * x * y - z * z == -2 and 2 * x + 2 * y + z == 0
    ]


def check_session(spec: dict, out: dict) -> None:
    a, b, c = spec["a"], spec["b"], spec["c"]
    expect(out["codes"] == [0] * len(out["codes"]), f"exit codes {out['codes']}")
    built = json.loads(out["diagram"])
    verts = [(rational(x), rational(y)) for x, y in built["polygon"]["vertices"]]
    corners = [(-a / 2, -b / 2), (a / 2 - c, -b / 2), (a / 2, -b / 2 + c), (a / 2, b / 2), (-a / 2, b / 2)]
    expect(verts == corners, f"built polygon {verts}, expected {corners}")
    expect(out["reloaded"] == out["diagram"], "diagram JSON does not round-trip")
    expect(out["rerender"] == out["svg"], "re-rendering the reloaded diagram changed the SVG")
    svg = out["svg"]
    for cls, count in (("node", 5), ("cut", 5), ("level", 2), ("eigenline", 5)):
        found = svg.count(f'class="{cls}"')
        expect(found == count, f"SVG has {found} {cls} elements, expected {count}")
    screen = json.loads(out["classify"])
    expect(screen["applicable"] is True, "chopped rectangle failed the screen")
    expect(screen["witness_edge"] == 1, f"witness edge {screen['witness_edge']}, expected 1")
    expect(rational(screen["witness_length"]) == c, "witness length is not c")
    expect(rational(screen["max_F"]) == b / 2, "max F is not b/2")
    twists = json.loads(out["mcg"])
    classes = [tuple(entry["class"]) for entry in twists["classes"]]
    want = twist_classes(spec["bound"])
    expect(sorted(classes) == want, f"twist classes {classes}, expected {want}")
    for entry in twists["classes"]:
        x, y, z = entry["class"]
        expect(rational(entry["area"]) == a * x + b * y + c * z, f"area of {entry['class']}")
