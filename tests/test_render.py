"""Deterministic SVG output and the fixed decimal emission rule."""

import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import mpmath
import pytest

from conftest import QFieldScreen, qfield_decimal20, random_hulls

from atfkit.cli import main
from atfkit.diagram import BaseDiagram, build_pi0
from atfkit.plane import LatticeVector, dot
from atfkit.polygon import ConstructionParams, Polygon, clip_halfplane
from atfkit.recurrence import StripShear, build_recurrence_map
from atfkit.render import RenderStyle, _decimal20, _Screen, _strip_region, decimal20, render_svg
from atfkit.scalars import QField, _reduced, qf

mpmath.mp.dps = 60

PARAMS = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
SQRT2_PARAMS = ConstructionParams(
    qf("3/1+1/1*sqrt(2)"), qf(3), qf("1/2+1/8*sqrt(2)"), qf("1/8")
)
ULP = Fraction(1, 10**20)


def reference_decimal(num: int, den: int) -> str:
    """Independent fixed-point rendering of a rational, round half to even."""
    negative = num < 0
    num = abs(num)
    scaled, rem = divmod(num * 10**20, den)
    if 2 * rem > den or (2 * rem == den and scaled % 2 == 1):
        scaled += 1
    whole, frac = divmod(scaled, 10**20)
    sign = "-" if negative and scaled else ""
    return f"{sign}{whole}.{frac:020d}"


# -- the decimal rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "value, expected",
    [
        (qf(0), "0.00000000000000000000"),
        (qf(3), "3.00000000000000000000"),
        (qf("1/2"), "0.50000000000000000000"),
        (qf("-1/2"), "-0.50000000000000000000"),
        (qf("1/3"), "0.33333333333333333333"),
        (qf("2/3"), "0.66666666666666666667"),
        (QField.sqrt(2), "1.41421356237309504880"),
        (QField(0, 1, 3), "1.73205080756887729353"),
    ],
)
def test_decimal20_frozen(value, expected):
    assert decimal20(value) == expected


def test_decimal20_ties_round_to_even():
    unit = Fraction(1, 2 * 10**20)
    assert decimal20(qf(1 * unit)) == "0." + "0" * 20  # 0.5 ulp down to 0
    assert decimal20(qf(3 * unit)) == "0." + "0" * 19 + "2"  # 1.5 ulp up to 2
    assert decimal20(qf(5 * unit)) == "0." + "0" * 19 + "2"  # 2.5 ulp down to 2
    assert decimal20(qf(-1 * unit)) == "0." + "0" * 20
    assert decimal20(qf(-3 * unit)) == "-0." + "0" * 19 + "2"


def test_decimal20_matches_rational_reference():
    rng = random.Random(71)
    for _ in range(200):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**4)
        assert decimal20(qf(Fraction(num, den))) == reference_decimal(num, den)


def test_decimal20_error_within_half_ulp():
    rng = random.Random(72)
    half_ulp = mpmath.mpf(1) / (2 * mpmath.mpf(10) ** 20)
    for _ in range(60):
        x = QField(
            Fraction(rng.randint(-400, 400), rng.randint(1, 16)),
            Fraction(rng.randint(-400, 400), rng.randint(1, 16)),
            rng.choice([2, 3, 5]),
        )
        rendered = mpmath.mpf(decimal20(x).replace("-", "")) * (1 if float(x) >= 0 else -1)
        true = mpmath.mpf(x.a.numerator) / x.a.denominator + mpmath.mpf(
            x.b.numerator
        ) / x.b.denominator * mpmath.sqrt(x.d)
        assert abs(rendered - true) <= half_ulp * (1 + mpmath.mpf(10) ** -30)


def near_sqrt(d: int) -> QField:
    """sqrt(d) - p/q with q = 10^30 and p = isqrt(d*q^2): in (0, 10^-30)."""
    q = 10**30
    return QField(Fraction(-isqrt(d * q * q), q), 1, d)


def assert_decimal20_matches_the_qfield_rule(x: QField) -> None:
    assert _decimal20(*x._v) == qfield_decimal20(x) == decimal20(x), x


def test_decimal20_exact_ties_and_negatives_match_the_qfield_rule():
    half = ULP / 2
    for k in range(-41, 42):
        assert_decimal20_matches_the_qfield_rule(qf(k * half))
    for whole in (0, 1, 7, -1, -7, 10**20, -(10**20)):
        for k in (-3, -1, 1, 3):
            assert_decimal20_matches_the_qfield_rule(qf(whole + k * half))
    rng = random.Random(73)
    for _ in range(200):
        x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert_decimal20_matches_the_qfield_rule(qf(x))
        assert_decimal20_matches_the_qfield_rule(qf(-x))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_decimal20_sqrt_values_beside_a_tie_match_the_qfield_rule(d):
    # within 10^-25 of a tie, on either side, positive and negative
    tiny = near_sqrt(d)
    rng = random.Random(74 + d)
    for _ in range(60):
        tie = qf((2 * rng.randint(-10**6, 10**6) + 1) * ULP / 2)
        scale = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**3))
        for x in (tie + tiny * scale, tie - tiny * scale):
            assert abs(x - tie) < Fraction(1, 10**25)
            assert_decimal20_matches_the_qfield_rule(x)


@pytest.mark.parametrize("d", [None, 2, 3, 5])
def test_decimal20_at_digit_and_integer_boundaries_matches_the_qfield_rule(d):
    # just below and just above an integer, and where rounding carries into
    # the integer digits
    offsets = [ULP / 10, ULP / 2, ULP, ULP * 3 / 2, ULP * 9 / 10]
    if d is not None:
        offsets += [near_sqrt(d), near_sqrt(d) * 10**9]
    for whole in (0, 1, 2, -1, -2, 10**20, 10**25 + 3):
        for off in offsets:
            for x in (qf(whole) - off, qf(whole) + off):
                assert_decimal20_matches_the_qfield_rule(x)
    assert decimal20(1 - ULP / 10) == "1." + "0" * 20
    assert decimal20(-1 + ULP / 10) == "-1." + "0" * 20


def test_decimal20_of_an_unreduced_triple_is_that_of_the_reduced_one():
    rng = random.Random(75)
    for _ in range(300):
        d = rng.choice([None, 2, 3, 5])
        x = QField(
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) if d else 0,
            d,
        )
        A, B, D, dx = x._v
        expected = qfield_decimal20(x)
        for k in (2, 3, 10**20, rng.randint(2, 10**30)):
            assert _decimal20(k * A, k * B, k * D, dx) == expected


# -- style ----------------------------------------------------------------------


def test_style_validation_and_coercion():
    style = RenderStyle(scale="30", show_levels=("1/4", qf("1/8")))
    assert style.scale == 30
    assert style.show_levels == (qf("1/4"), qf("1/8"))
    with pytest.raises(ValueError):
        RenderStyle(scale=0)
    with pytest.raises(ValueError):
        RenderStyle(scale=-1)


# -- rendering -------------------------------------------------------------------


def pi0_svg(**kwargs) -> str:
    return render_svg(build_pi0(PARAMS), RenderStyle(**kwargs))


def test_output_is_identical_across_calls():
    style = RenderStyle(show_levels=(qf("1/4"),), show_eigenlines=True)
    diagram = build_pi0(PARAMS)
    assert render_svg(diagram, style) == render_svg(diagram, style)


def test_output_is_well_formed_xml():
    svg = pi0_svg(show_levels=(qf("1/4"),), show_eigenlines=True)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_element_counts_follow_the_style():
    everything = pi0_svg(show_levels=(qf("1/4"), qf("3/4")), show_eigenlines=True)
    assert everything.count('class="node"') == 5
    assert everything.count('class="cut"') == 5
    assert everything.count('class="level"') == 2
    assert everything.count('class="eigenline"') == 5
    assert everything.count('class="outline"') == 1

    bare = render_svg(
        build_pi0(PARAMS),
        RenderStyle(show_cuts=False, show_nodes=False),
    )
    assert bare.count('class="outline"') == 1
    for marker in ("node", "cut", "level", "eigenline", "strip"):
        assert f'class="{marker}"' not in bare


def test_plain_polygon_outline_only():
    diagram = BaseDiagram(polygon=Polygon([(0, 0), (2, 0), (2, 2), (0, 2)]))
    svg = render_svg(diagram)
    assert svg.count("<polygon") == 1
    assert 'class="outline"' in svg
    assert "cut" not in svg and "node" not in svg


def test_strips_are_drawn_when_requested():
    rm = build_recurrence_map(build_pi0(PARAMS))
    svg = render_svg(rm.source_diagram, RenderStyle(strips=rm.rounds))
    assert svg.count('class="strip"') == 4


def test_default_render_via_cli_entry():
    svg = pi0_svg()
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")


def test_y_axis_is_flipped():
    # the top edge of the polygon must come out with the smallest y
    diagram = BaseDiagram(polygon=Polygon([(0, 0), (2, 0), (2, 2), (0, 2)]))
    svg = render_svg(diagram, RenderStyle(scale=10))
    outline = next(line for line in svg.splitlines() if "outline" in line)
    pairs = [
        tuple(map(float, chunk.split(",")))
        for chunk in outline.split('points="')[1].split('"')[0].split()
    ]
    lowest_model = min(pairs, key=lambda xy: xy[1])
    assert lowest_model[1] == 5.0  # model (0,2)/(2,2) map to the smallest y


# -- the integer pass against the QField rule -------------------------------------


def screen_cases():
    """Diagrams with rational and sqrt(2) coordinates under rational and
    sqrt(2) scales."""
    for params in (PARAMS, SQRT2_PARAMS):
        for scale in (qf(40), qf("7/3"), qf("10/1+20/1*sqrt(2)")):
            yield build_pi0(params), scale


def test_screen_transform_matches_the_qfield_transform():
    rng = random.Random(76)
    for diagram, scale in screen_cases():
        screen, oracle = _Screen(diagram, RenderStyle(scale=scale)), QFieldScreen(diagram, scale)
        values = [c for p in diagram.polygon.vertices for c in p]
        values += [
            qf(Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
            + QField(0, Fraction(rng.randint(-99, 99), rng.randint(1, 30)), 2)
            for _ in range(20)
        ]
        for value in values:
            assert _reduced(*screen.map(0, *value._v)) == oracle.x(value)
            assert _reduced(*screen.map(1, *value._v)) == oracle.y(value)


def test_node_crosses_and_eigenlines_match_the_qfield_transform():
    for diagram, scale in screen_cases():
        svg = render_svg(diagram, RenderStyle(scale=scale, show_eigenlines=True))
        oracle, arm, quarter = QFieldScreen(diagram, scale), scale / 10, qf(1) / 4
        for node in diagram.nodes:
            (x, y), (u, v) = node.position, (node.eigen_dir.u, node.eigen_dir.v)
            cx, cy = oracle.x(x), oracle.y(y)
            lo_x, hi_x = qfield_decimal20(cx - arm), qfield_decimal20(cx + arm)
            lo_y, hi_y = qfield_decimal20(cy - arm), qfield_decimal20(cy + arm)
            assert f'd="M {lo_x} {lo_y} L {hi_x} {hi_y} M {lo_x} {hi_y} L {hi_x} {lo_y}"' in svg
            ends = [
                (qfield_decimal20(oracle.x(x + k * u)), qfield_decimal20(oracle.y(y + k * v)))
                for k in (-quarter, quarter)
            ]
            (x1, y1), (x2, y2) = ends
            assert f'x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"' in svg


def clipped(poly: Polygon, strip: StripShear) -> list[tuple[QField, QField]]:
    return [(_reduced(*x), _reduced(*y)) for x, y in _strip_region(poly, strip)]


NORMALS = [LatticeVector(u, v) for u in range(-3, 4) for v in range(-3, 4) if gcd(u, v) == 1]


def test_strip_regions_match_clip_halfplane():
    rng = random.Random(77)
    polys = random_hulls(rng, 12) + [build_pi0(SQRT2_PARAMS).polygon, build_pi0(PARAMS).polygon]
    for poly in polys:
        for _ in range(8):
            normal = rng.choice(NORMALS)
            # lines through a vertex, between vertices, and missing the polygon
            through = dot(normal, rng.choice(poly.vertices))
            for offset in (through, through + Fraction(1, rng.randint(2, 9)), through - 100, through + 100):
                strip = StripShear(normal, offset)
                expected = clip_halfplane(list(poly.vertices), normal, -offset)
                assert clipped(poly, strip) == [(p.x1, p.x2) for p in expected], (poly, strip)


def test_strip_region_of_another_radicand_is_refused():
    poly = build_pi0(SQRT2_PARAMS).polygon
    with pytest.raises(ValueError, match="mixed radicands"):
        _strip_region(poly, StripShear(LatticeVector(1, 0), QField(0, 1, 3)))


# -- golden renders and radicand refusals -------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
SQRT2_BUILD = ["--a", "3/1+1/1*sqrt(2)", "--b", "3", "--c", "1/2+1/8*sqrt(2)", "--eps", "1/8"]
# golden file: the build flags, then the render flags besides --strips --eigenlines
GOLDEN_RENDERS = {
    "pi0_sqrt2.svg": (SQRT2_BUILD, ["--levels", "1/4,0/1+1/8*sqrt(2)"]),
    "pi0_sqrt3.svg": (
        ["--a", "5", "--b", "2/1+1/2*sqrt(3)", "--c", "1/2+1/4*sqrt(3)", "--eps", "1/4"],
        ["--levels", "1/3,0/1+1/5*sqrt(3)"],
    ),
    "pi0_sqrt2_scale.svg": ([], ["--levels", "1/4,0/1+1/8*sqrt(2)", "--scale", "10/1+20/1*sqrt(2)"]),
}


def build_file(tmp_path, capsys, flags) -> str:
    path = tmp_path / "diagram.json"
    assert main(["build", *flags, "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize("name", sorted(GOLDEN_RENDERS))
def test_golden_render_through_the_cli_is_byte_identical(tmp_path, capsys, name):
    build_flags, render_flags = GOLDEN_RENDERS[name]
    svg = tmp_path / name
    argv = ["render", build_file(tmp_path, capsys, build_flags), "--strips", "--eigenlines", *render_flags]
    assert main([*argv, "-o", str(svg)]) == 0
    assert svg.read_bytes() == (GOLDEN / name).read_bytes()


def test_cli_refuses_a_scale_of_another_radicand(tmp_path, capsys):
    diagram = build_file(tmp_path, capsys, SQRT2_BUILD)
    code = main(["render", diagram, "--scale", "0/1+1/1*sqrt(3)"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "mixed radicands" in captured.err
    assert "Traceback" not in captured.err


def test_render_refuses_a_level_of_another_radicand():
    with pytest.raises(ValueError, match="mixed radicands"):
        render_svg(build_pi0(SQRT2_PARAMS), RenderStyle(show_levels=(QField(0, 1, 3) / 8,)))
