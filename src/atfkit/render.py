"""Deterministic SVG rendering of base diagrams.

Output is byte-for-byte reproducible: every coordinate is an exact scalar
pushed through one fixed decimal rule (20 fractional digits, round half
to even), elements are emitted in a fixed order (strips, level sets,
outline, cuts, eigenlines, nodes), and nothing depends on hashing or
float formatting.  The vertical axis is flipped at serialization time
only, so all geometry stays in model coordinates until the last moment.

The screen transform, the strip clipping and the rounding run as one
integer pass: a model coordinate (A + B*sqrt(d))/D goes through the
transform as integers over an unreduced denominator, and ``_decimal20``
reads its digits without a ``QField`` operation.  A level outline is the
corner rows of ``Polygon._corners``, read from the edge-death schedule at
the level, all over one denominator, with no level polygon built.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .diagram import BaseDiagram
from .plane import Point
from .polygon import Polygon, _line_rows, _solve
from .recurrence import StripShear
from .scalars import QField, ScalarLike, _floor, _merge_radicand, _over, _sign, qf


_TEN20 = 10**20

# a model or screen coordinate (A + B*sqrt(d)) / D as (A, B, D, d), D > 0
Coord = tuple[int, int, int, int | None]


def decimal20(x: ScalarLike) -> str:
    """Fixed 20-digit decimal expansion, round half to even, exact."""
    return _decimal20(*qf(x)._v)


def _decimal20(A: int, B: int, D: int, d: int | None) -> str:
    """``decimal20`` of (A + B*sqrt(d)) / D for integers with D > 0.

    The triple need not be reduced: the floor and the tie test do not
    change when A, B and D are all multiplied by the same k > 0.
    """
    A *= _TEN20
    if B:
        B *= _TEN20
        m = _floor(A, B, D, d)
        # the sign of 2*(x*10^20 - m) - 1 over D; with a sqrt term it is
        # never 0, so there is no tie
        up = _sign(2 * (A - m * D) - D, 2 * B, d) > 0
    else:
        m, r = divmod(A, D)
        r = 2 * r - D
        up = r > 0 or (r == 0 and m & 1)
    if up:
        m += 1
    digits = str(abs(m)).rjust(21, "0")
    return f"{'-' if m < 0 else ''}{digits[:-20]}.{digits[-20:]}"


@dataclass(frozen=True)
class RenderStyle:
    """Rendering options; all geometric knobs are exact scalars."""

    scale: QField = qf(40)
    show_levels: tuple[QField, ...] = ()
    show_cuts: bool = True
    show_nodes: bool = True
    show_eigenlines: bool = False
    strips: tuple[StripShear, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "scale", qf(self.scale))
        object.__setattr__(
            self, "show_levels", tuple(qf(h) for h in self.show_levels)
        )
        if self.scale.sign() <= 0:
            raise ValueError("scale must be positive")


class _Screen:
    """Model-to-screen transform with the y-axis flip, as an integer affine map.

    Screen x is x*scale + (pad - minx)*scale and screen y is
    (maxy + pad)*scale - y*scale.  The scale and the two offsets are integer
    pairs over one denominator S in the radicand ``d``, so a model
    coordinate over D comes out over D*S with no gcd.
    """

    def __init__(self, diagram: BaseDiagram, style: RenderStyle):
        xs = [v.x1 for v in diagram.polygon.vertices]
        ys = [v.x2 for v in diagram.polygon.vertices]
        minx, maxx = min(xs), max(xs)
        miny, maxy = min(ys), max(ys)
        scale = style.scale
        pad = qf(1) / 2
        self.width = (maxx - minx + 2 * pad) * scale
        self.height = (maxy - miny + 2 * pad) * scale
        S, self.d, ((sa, sb), (xa, xb), (ya, yb)) = _over(
            scale, (pad - minx) * scale, (maxy + pad) * scale
        )
        # per axis: the factor (ka + kb*sqrt(d))/S and the offset (oa + ob*sqrt(d))/S
        self.rows = ((sa, sb, xa, xb, S), (-sa, -sb, ya, yb, S))

    def map(self, axis: int, A: int, B: int, D: int, d: int | None) -> Coord:
        """Screen coordinate ``axis`` (0 for x, 1 for y) of the model value
        (A + B*sqrt(d))/D; a radicand other than the transform's is a
        ``ValueError``."""
        ka, kb, oa, ob, S = self.rows[axis]
        if d != self.d:
            # the value's radicand first, as in value - minx, so that a clash
            # names the two radicands in the order the QField rule did
            d = _merge_radicand(d, self.d)
        if kb:
            return A * ka + B * kb * d + D * oa, A * kb + B * ka + D * ob, D * S, d
        return A * ka + D * oa, B * ka + D * ob, D * S, d

    def point(self, x: Coord, y: Coord) -> tuple[str, str]:
        return _decimal20(*self.map(0, *x)), _decimal20(*self.map(1, *y))

    def points_attr(self, pts: Iterable[tuple[Coord, Coord]]) -> str:
        return " ".join(",".join(self.point(x, y)) for x, y in pts)

    def cross(self, p: Point) -> list[str]:
        """x - arm, x + arm, y - arm and y + arm of the node cross at p,
        arm = scale/10: over 10*Dc*S for a coordinate over Dc, the arm is
        Dc times the scale's pair."""
        sa, sb = self.rows[0][:2]
        ends = []
        for axis, c in enumerate(p):
            Dc = c._v[2]
            a, b, M, d = self.map(axis, *c._v)
            for k in (-Dc, Dc):
                ends.append(_decimal20(10 * a + k * sa, 10 * b + k * sb, 10 * M, d))
        return ends


def _coords(points: Iterable[Point]) -> list[tuple[Coord, Coord]]:
    return [(p.x1._v, p.x2._v) for p in points]


def _quarter_step(c: QField, w: int) -> Coord:
    """c + w/4, over 4*D."""
    A, B, D, d = c._v
    return 4 * A + w * D, 4 * B, 4 * D, d


def _strip_region(poly: Polygon, strip: StripShear) -> list[tuple[Coord, Coord]]:
    """The part of ``poly`` where <normal, x> >= offset, as the points of a
    ccw loop in integer coordinates; ``clip_halfplane`` is the reference.

    The edge and strip rows share one denominator L and the vertices one
    denominator P, so each vertex's excess <n, x> - offset is one integer
    pair over P*L with one exact sign.  Where the sign changes strictly
    along edge i, the crossing is one ``_solve`` of the edge's line
    <n_i, x> = -k_i with the strip's line, over L*det.
    """
    rows, L, d = _line_rows((*poly.edges, strip))
    u, v, A, B = rows[-1]
    P, d, coords = _over(*(c for p in poly.vertices for c in p), d=d)
    pts = list(zip(coords[::2], coords[1::2]))
    signs = [
        _sign(L * (u * X1 + v * X2) - P * A, L * (u * Y1 + v * Y2) - P * B, d)
        for (X1, Y1), (X2, Y2) in pts
    ]
    out = []
    for i, ((X1, Y1), (X2, Y2)) in enumerate(pts):
        if signs[i] >= 0:
            out.append(((X1, Y1, P, d), (X2, Y2, P, d)))
        if signs[i] * signs[(i + 1) % len(pts)] < 0:
            eu, ev, EA, EB = rows[i]
            X, Xs, Y, Ys, det = _solve((eu, ev, -EA, -EB), (u, v, A, B))
            if det < 0:
                X, Xs, Y, Ys, det = -X, -Xs, -Y, -Ys, -det
            out.append(((X, Xs, L * det, d), (Y, Ys, L * det, d)))
    return out


def render_svg(diagram: BaseDiagram, style: RenderStyle | None = None) -> str:
    """Render a base diagram to a self-contained SVG string."""
    if style is None:
        style = RenderStyle()
    screen = _Screen(diagram, style)
    lines = [
        (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{decimal20(screen.width)}" height="{decimal20(screen.height)}" '
            f'viewBox="0 0 {decimal20(screen.width)} {decimal20(screen.height)}">'
        )
    ]
    poly = diagram.polygon
    for strip in style.strips:
        region = _strip_region(poly, strip)
        if len(region) < 3:
            continue
        lines.append(
            f'<polygon class="strip" points="{screen.points_attr(region)}" '
            'fill="#7f7fbf" fill-opacity="0.25" stroke="none"/>'
        )
    for h in style.show_levels:
        (*_, d), corners = poly._corners(h)
        level = [((X, Xs, D, d), (Y, Ys, D, d)) for X, Xs, Y, Ys, D in corners]
        lines.append(
            f'<polygon class="level" points="{screen.points_attr(level)}" '
            'fill="none" stroke="#448" stroke-width="1" stroke-dasharray="2,3"/>'
        )
    lines.append(
        f'<polygon class="outline" points="{screen.points_attr(_coords(poly.vertices))}" '
        'fill="none" stroke="#222" stroke-width="1.5"/>'
    )
    if style.show_cuts:
        for cut in diagram.cuts:
            lines.append(
                f'<polyline class="cut" points="{screen.points_attr(_coords(cut.path))}" '
                'fill="none" stroke="#a33" stroke-width="1" stroke-dasharray="6,4"/>'
            )
    if style.show_eigenlines:
        for node in diagram.nodes:
            (x1, x2), (u, v) = node.position, (node.eigen_dir.u, node.eigen_dir.v)
            x_tail, y_tail = screen.point(_quarter_step(x1, -u), _quarter_step(x2, -v))
            x_head, y_head = screen.point(_quarter_step(x1, u), _quarter_step(x2, v))
            lines.append(
                f'<line class="eigenline" x1="{x_tail}" y1="{y_tail}" x2="{x_head}" y2="{y_head}" '
                'stroke="#3a3" stroke-width="0.8" stroke-dasharray="1,2"/>'
            )
    if style.show_nodes:
        for node in diagram.nodes:
            x_lo, x_hi, y_lo, y_hi = screen.cross(node.position)
            lines.append(
                f'<path class="node" d="M {x_lo} {y_lo} L {x_hi} {y_hi} '
                f'M {x_lo} {y_hi} L {x_hi} {y_lo}" '
                'stroke="#a33" stroke-width="1.4" fill="none"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


__all__ = ["RenderStyle", "render_svg", "decimal20"]
