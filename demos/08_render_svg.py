"""Rendering base diagrams to deterministic SVG.

Coordinates are printed with 20 exact decimal digits (round half to
even), so the same diagram always produces byte-identical output.  The
style controls overlays: level pentagons, branch cuts, node markers,
eigenlines, and the four shear strips.
"""

from pathlib import Path

from atfkit import (
    ConstructionParams,
    QField,
    RenderStyle,
    build_pi0,
    build_recurrence_map,
    decimal20,
    qf,
    render_svg,
)

demo_dir = Path(__file__).parent
out_dir = demo_dir / "out"
out_dir.mkdir(exist_ok=True)

params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
diagram = build_pi0(params)

plain = render_svg(diagram)
annotated = render_svg(
    diagram,
    RenderStyle(
        show_levels=(qf("1/4"), qf("1/2"), qf("3/4")),
        show_eigenlines=True,
        strips=build_recurrence_map(diagram).rounds,
    ),
)

for name, svg in (("pi0.svg", plain), ("pi0_annotated.svg", annotated)):
    path = out_dir / name
    path.write_text(svg)
    print(f"wrote {path.relative_to(demo_dir)} ({len(svg)} bytes)")
print()

print("determinism: rendering twice gives identical bytes:", plain == render_svg(diagram))
print()

print("the fixed-decimal rule behind it:")
for x in (qf("1/3"), qf("2/3"), QField.sqrt(2)):
    print(f"    {x} -> {decimal20(x)}")
