"""Deterministic SVG rendering of base diagrams.

Output is byte-for-byte reproducible: every coordinate is an exact scalar
pushed through one fixed decimal rule (20 fractional digits, round half
to even), elements are emitted in a fixed order (strips, level sets,
outline, cuts, eigenlines, nodes), and nothing depends on hashing or
float formatting.  The vertical axis is flipped at serialization time
only, so all geometry stays in model coordinates until the last moment.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars
from .diagram import BaseDiagram
from .plane import Point, move
from .polygon import clip_halfplane
from .recurrence import StripShear
from .scalars import QField, ScalarLike, qf


_TEN20 = 10**20


def decimal20(x: ScalarLike) -> str:
    """Fixed 20-digit decimal expansion, round half to even, exact."""
    scaled = qf(x) * _TEN20
    m = scalars.floor(scaled)
    tie = (2 * (scaled - m) - 1).sign()
    if tie > 0 or (tie == 0 and m % 2 != 0):
        m += 1
    sign = "-" if m < 0 else ""
    whole, frac = divmod(abs(m), _TEN20)
    return f"{sign}{whole}.{frac:020d}"


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
    """Model-to-screen transform with the y-axis flip."""

    def __init__(self, diagram: BaseDiagram, style: RenderStyle):
        xs = [v.x1 for v in diagram.polygon.vertices]
        ys = [v.x2 for v in diagram.polygon.vertices]
        self.minx, self.maxx = min(xs), max(xs)
        self.miny, self.maxy = min(ys), max(ys)
        self.scale = style.scale
        self.pad = qf(1) / 2
        self.width = (self.maxx - self.minx + 2 * self.pad) * self.scale
        self.height = (self.maxy - self.miny + 2 * self.pad) * self.scale

    def x(self, value: QField) -> QField:
        return (value - self.minx + self.pad) * self.scale

    def y(self, value: QField) -> QField:
        return (self.maxy + self.pad - value) * self.scale

    def point(self, p: Point) -> tuple[str, str]:
        return decimal20(self.x(p.x1)), decimal20(self.y(p.x2))

    def points_attr(self, pts) -> str:
        return " ".join(",".join(self.point(p)) for p in pts)


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
        region = clip_halfplane(list(poly.vertices), strip.normal, -strip.offset)
        if len(region) < 3:
            continue
        lines.append(
            f'<polygon class="strip" points="{screen.points_attr(region)}" '
            'fill="#7f7fbf" fill-opacity="0.25" stroke="none"/>'
        )
    for h in style.show_levels:
        level = poly.level_set(h)
        lines.append(
            f'<polygon class="level" points="{screen.points_attr(level.vertices)}" '
            'fill="none" stroke="#448" stroke-width="1" stroke-dasharray="2,3"/>'
        )
    lines.append(
        f'<polygon class="outline" points="{screen.points_attr(poly.vertices)}" '
        'fill="none" stroke="#222" stroke-width="1.5"/>'
    )
    if style.show_cuts:
        for cut in diagram.cuts:
            lines.append(
                f'<polyline class="cut" points="{screen.points_attr(cut.path)}" '
                'fill="none" stroke="#a33" stroke-width="1" stroke-dasharray="6,4"/>'
            )
    if style.show_eigenlines:
        quarter = qf(1) / 4
        for node in diagram.nodes:
            tail = move(node.position, node.eigen_dir, -quarter)
            head = move(node.position, node.eigen_dir, quarter)
            x1, y1 = screen.point(tail)
            x2, y2 = screen.point(head)
            lines.append(
                f'<line class="eigenline" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                'stroke="#3a3" stroke-width="0.8" stroke-dasharray="1,2"/>'
            )
    if style.show_nodes:
        arm = style.scale / 10
        for node in diagram.nodes:
            cx = screen.x(node.position.x1)
            cy = screen.y(node.position.x2)
            x_lo, x_hi = decimal20(cx - arm), decimal20(cx + arm)
            y_lo, y_hi = decimal20(cy - arm), decimal20(cy + arm)
            lines.append(
                f'<path class="node" d="M {x_lo} {y_lo} L {x_hi} {y_hi} '
                f'M {x_lo} {y_hi} L {x_hi} {y_lo}" '
                'stroke="#a33" stroke-width="1.4" fill="none"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


__all__ = ["RenderStyle", "render_svg", "decimal20"]
