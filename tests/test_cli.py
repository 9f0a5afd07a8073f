"""End-to-end runs of the command line entry point, in process."""

import json
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conftest import HOSTILE_POLYGONS, hostile_diagrams, stuck_records

import atfkit
from atfkit import cli, orbits
from atfkit.cli import ORBIT_LIMIT, main
from atfkit.diagram import BaseDiagram, build_pi0
from atfkit.polygon import ConstructionParams, catalog
from atfkit.scalars import DIGIT_BOUND, qf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- build ------------------------------------------------------------------


def test_build_writes_the_initial_diagram(tmp_path, capsys):
    out = tmp_path / "pi0.json"
    code, stdout, stderr = run(capsys, "build", "-o", str(out))
    assert code == 0 and stderr == ""
    diagram = BaseDiagram.from_json(out.read_text())
    assert diagram.same_geometry(build_pi0(ConstructionParams(4, 2, qf("1/2"), qf("1/8"))))


def test_build_to_stdout_with_custom_parameters(capsys):
    code, stdout, _ = run(capsys, "build", "--a", "6", "--b", "3", "--c", "3/4", "--eps", "1/4")
    assert code == 0
    diagram = BaseDiagram.from_json(stdout)
    assert len(diagram.nodes) == 5
    assert diagram.params.a == 6


def test_build_rejects_bad_parameters(capsys):
    code, _, stderr = run(capsys, "build", "--c", "2")
    assert code == 2
    assert stderr.startswith("error:")


def test_build_refuses_integers_that_render_could_not_read_back(tmp_path, capsys):
    # a = 4,300 nines is in the scalar grammar, but the node positions of
    # pi0 then carry integers of 4,301 digits (x-coordinates over 16)
    out = tmp_path / "big.json"
    for argv in (["-o", str(out)], []):
        code, stdout, stderr = run(capsys, "build", "--a", "9" * DIGIT_BOUND, *argv)
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr == f"error: scalar has an integer of more than {DIGIT_BOUND} digits\n"


@pytest.mark.parametrize("digits", [4290, DIGIT_BOUND - 1, DIGIT_BOUND])
def test_what_build_writes_render_reads(tmp_path, capsys, digits):
    built, svg = tmp_path / "big.json", tmp_path / "big.svg"
    code, _, _ = run(capsys, "build", "--a", "9" * digits, "--b", "3", "-o", str(built))
    if code == 0:
        code, _, stderr = run(capsys, "render", str(built), "--levels", "1/4", "-o", str(svg))
        assert code == 0 and stderr == ""
        assert ET.fromstring(svg.read_text()).tag.endswith("svg")
    else:
        assert code == 2 and not built.exists()
    assert (code == 0) == (digits < DIGIT_BOUND)


# -- verify -----------------------------------------------------------------


def test_verify_runs_the_battery(capsys):
    code, stdout, _ = run(capsys, "verify", "--seed", "7")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("properties passed")


# -- orbit ------------------------------------------------------------------


def test_orbit_rational_level(capsys):
    code, stdout, _ = run(capsys, "orbit", "--h", "1/4")
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "periodic"
    assert report["period"] == 39


def test_orbit_irrational_level_with_histogram(capsys):
    code, stdout, _ = run(
        capsys, "orbit", "--h", "0/1+1/8*sqrt(2)", "--n", "200", "--bins", "10"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "irrational-certified"
    assert report["histogram"] == [22, 23, 22, 18, 19, 20, 18, 20, 19, 19]


def test_orbit_requires_the_level_flag(capsys):
    code = main(["orbit"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "level",
    [
        "0/1+1/1000000000000*sqrt(1000000000000000003)",  # radicand above the 2**32 cap
        "1/0",
        pytest.param("1/" + "9" * 4301, id="an-integer-above-the-digit-bound"),
    ],
)
def test_orbit_rejects_hostile_levels_fast(capsys, level):
    start = time.perf_counter()
    code = main(["orbit", "--h", level])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0


def test_orbit_prints_scalars_past_the_int_to_str_limit(capsys):
    # a = 111...1 (4,000 digits): rho's integers are past the 4,300 digits
    # that str() of an int converts by default
    code, stdout, stderr = run(
        capsys, "orbit", "--a", "1" * 4000 + "/1", "--b", "3", "--c", "1/2", "--eps", "1/8",
        "--h", "0/1+1/8*sqrt(2)", "--n", "10",
    )
    assert code == 0 and stderr == ""
    report = json.loads(stdout)
    params = ConstructionParams(qf("1" * 4000), 3, qf("1/2"), qf("1/8"))
    assert report["rho"] == str(orbits.rotation_number(params, qf("0/1+1/8*sqrt(2)")))
    assert len(report["rho"]) > 8000 and report["kind"] == "irrational-certified"


def test_orbit_prints_a_period_past_the_int_to_str_limit(capsys):
    # a = 4,300 nines: the period, the denominator of rho, has 4,301 digits
    code, stdout, stderr = run(capsys, "orbit", "--a", "9" * DIGIT_BOUND, "--h", "1/4", "--n", "10")
    assert code == 0 and stderr == ""
    report = json.loads(stdout, parse_int=str)
    assert report["kind"] == "periodic" and report["distinct_checked"] == "10"
    assert report["rho"].split("/")[1] == report["period"] and len(report["period"]) > DIGIT_BOUND


def test_orbit_long_period_exits_quickly():
    # rho = 1000001/23000055: the period is proved, not walked
    env = dict(os.environ, PYTHONPATH=str(Path(atfkit.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "atfkit.cli", "orbit", "--h", "1/1000003"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["period"] == 23000055
    assert report["distinct_checked"] == 10000
    assert elapsed < 1.0


def test_orbit_failed_certificate_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(orbits, "_records", stuck_records)
    for level in ("1/4", "0/1+1/8*sqrt(2)"):
        code, stdout, stderr = run(capsys, "orbit", "--h", level)
        assert code == 1 and stdout == ""
        assert stderr.startswith("verification failed:") and len(stderr.splitlines()) == 1
    assert stderr == "verification failed: irrational level 0/1+1/8*sqrt(2) produced a repeat\n"


def test_orbit_dump_csv(tmp_path, capsys):
    dump = tmp_path / "orbit.csv"
    code, _, _ = run(
        capsys, "orbit", "--h", "1/4", "--n", "5", "--dump", str(dump), "--dump-format", "csv"
    )
    assert code == 0
    rows = dump.read_text().strip().splitlines()
    assert rows[0] == "n,s"
    assert rows[1] == "0,0/1"
    assert len(rows) == 6


def test_orbit_dump_json(tmp_path, capsys):
    dump = tmp_path / "orbit.json"
    code, _, _ = run(
        capsys, "orbit", "--h", "1/4", "--n", "4", "--dump", str(dump), "--dump-format", "json"
    )
    assert code == 0
    positions = json.loads(dump.read_text())
    assert positions[0] == "0/1"
    assert len(positions) == 4


def test_the_streamed_dump_is_the_text_of_orbit_positions(tmp_path, capsys):
    # the dump is written row by row; its bytes must be those of the text
    # built whole from orbit_positions, in both formats
    h = "0/1+1/8*sqrt(2)"
    positions = orbits.orbit_positions(ConstructionParams(4, 2, qf("1/2"), qf("1/8")), qf(h), 5000)
    texts = {
        "csv": "n,s\n" + "\n".join(f"{i},{s}" for i, s in enumerate(positions)) + "\n",
        "json": json.dumps([str(s) for s in positions]),
    }
    for fmt, text in texts.items():
        dump = tmp_path / f"orbit.{fmt}"
        code, _, _ = run(capsys, "orbit", "--h", h, "--n", "5000", "--dump", str(dump), "--dump-format", fmt)
        assert code == 0
        assert dump.read_bytes() == text.encode()


@pytest.mark.parametrize("flag", ["--n", "--bins"])
def test_orbit_refuses_counts_above_the_cap_before_any_work(tmp_path, capsys, monkeypatch, flag):
    def ran(*args, **kwargs):
        raise AssertionError("the orbit ran")

    for name in ("classify_level", "equidistribution_stats", "_positions"):
        monkeypatch.setattr(cli, name, ran)
    dump = tmp_path / "orbit.csv"
    code, stdout, stderr = run(
        capsys, "orbit", "--h", "0/1+1/8*sqrt(2)", flag, str(ORBIT_LIMIT + 1), "--dump", str(dump)
    )
    assert code == 2 and stdout == "" and not dump.exists()
    assert stderr == f"error: {flag} {ORBIT_LIMIT + 1} is above the limit {ORBIT_LIMIT}\n"


def test_orbit_help_states_the_cap(capsys):
    code, stdout, _ = run(capsys, "orbit", "--help")
    assert code == 0
    assert stdout.count(str(ORBIT_LIMIT)) == 2


# -- classify -----------------------------------------------------------------


def test_classify_from_file(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(catalog("HirzebruchF1(4,1)").to_json())
    code, stdout, _ = run(capsys, "classify", str(path))
    assert code == 0
    report = json.loads(stdout)
    assert report["applicable"] is True
    assert report["witness_length"] == "1/1"


def test_classify_by_catalog_name(capsys):
    code, stdout, _ = run(capsys, "classify", "--name", "CP2(3)")
    assert code == 0
    report = json.loads(stdout)
    assert report["applicable"] is False
    assert report["exception_tag"] == "monotone"


def test_classify_needs_exactly_one_source(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(catalog("Bl1CP2").to_json())

    code, _, stderr = run(capsys, "classify")
    assert code == 2 and "exactly one" in stderr

    code, _, stderr = run(capsys, "classify", str(path), "--name", "Bl1CP2")
    assert code == 2 and "exactly one" in stderr


def test_classify_unknown_name(capsys):
    code, _, stderr = run(capsys, "classify", "--name", "Nonsense(1)")
    assert code == 2
    assert stderr.startswith("error:")


def test_classify_rejects_self_intersecting_polygon(tmp_path, capsys):
    path = tmp_path / "pentagram.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [5, 3], [-1, 3], [4, 0], [2, 5]]}))
    code, stdout, stderr = run(capsys, "classify", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:")


@pytest.mark.parametrize("name", sorted(HOSTILE_POLYGONS))
def test_classify_rejects_hostile_json(tmp_path, capsys, name):
    path = tmp_path / "hostile.json"
    path.write_text(HOSTILE_POLYGONS[name])
    code, stdout, stderr = run(capsys, "classify", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


def test_classify_missing_file(tmp_path, capsys):
    code, _, stderr = run(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 2
    assert stderr.startswith("error:")


# -- mcg ----------------------------------------------------------------------


def test_mcg_lists_the_twist_pair(capsys):
    code, stdout, _ = run(capsys, "mcg")
    assert code == 0
    report = json.loads(stdout)
    classes = [tuple(entry["class"]) for entry in report["classes"]]
    assert classes == [(-1, 1, 0), (1, -1, 0)]
    areas = [entry["area"] for entry in report["classes"]]
    assert areas == ["-2/1", "2/1"]


def test_mcg_huge_bound_is_instant(capsys):
    # the form 2a^2 + 3ab + 2b^2 = 1 is positive definite: |alpha| <= 1
    start = time.perf_counter()
    code, stdout, _ = run(capsys, "mcg", "--bound", str(10**18))
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(stdout)
    assert [tuple(entry["class"]) for entry in report["classes"]] == [(-1, 1, 0), (1, -1, 0)]
    assert elapsed < 1.0


def test_mcg_equal_factors_kill_the_areas(capsys):
    code, stdout, _ = run(capsys, "mcg", "--a", "2", "--b", "2")
    assert code == 0
    report = json.loads(stdout)
    assert [entry["area"] for entry in report["classes"]] == ["0/1", "0/1"]


# -- render --------------------------------------------------------------------


def write_pi0(tmp_path) -> str:
    path = tmp_path / "pi0.json"
    diagram = build_pi0(ConstructionParams(4, 2, qf("1/2"), qf("1/8")))
    path.write_text(diagram.to_json())
    return str(path)


def test_render_to_file(tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    code, _, _ = run(
        capsys, "render", write_pi0(tmp_path), "--levels", "1/4,3/4", "-o", str(svg_path)
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count('class="level"') == 2
    assert svg.count('class="node"') == 5


def test_render_of_a_level_above_an_edge_death(tmp_path, capsys):
    # the command line the CI verify job runs: for a=4, b=2, c=1/2 the
    # slanted edge dies at 1/2 and max F is 1, so the level at 3/4 has four
    # vertices
    pi0, svg_path = tmp_path / "quarter.json", tmp_path / "dead.svg"
    args = ["--a", "4", "--b", "2", "--c", "1/2", "--eps", "1/4"]
    assert run(capsys, "build", *args, "-o", str(pi0))[0] == 0
    assert run(capsys, "render", str(pi0), "--levels", "3/4", "-o", str(svg_path))[0] == 0
    (level,) = [line for line in svg_path.read_text().splitlines() if 'class="level"' in line]
    points = level.split('points="')[1].split('"')[0].split()
    assert len(points) == 4


def test_render_to_stdout_with_toggles(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "render", write_pi0(tmp_path), "--no-cuts", "--no-nodes", "--eigenlines"
    )
    assert code == 0
    assert 'class="cut"' not in stdout
    assert 'class="node"' not in stdout
    assert stdout.count('class="eigenline"') == 5


def test_render_strips(tmp_path, capsys):
    code, stdout, _ = run(capsys, "render", write_pi0(tmp_path), "--strips")
    assert code == 0
    assert stdout.count('class="strip"') == 4


def test_render_rejects_broken_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"polygon": []}')
    code, _, stderr = run(capsys, "render", str(path))
    assert code == 2
    assert stderr.startswith("error:")


@pytest.mark.parametrize("levels", ["1/4,,1/2", "a,b", "1/4,"])
def test_render_rejects_malformed_levels(tmp_path, capsys, levels):
    code, stdout, stderr = run(capsys, "render", write_pi0(tmp_path), "--levels", levels)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: malformed scalar") and len(stderr.splitlines()) == 1


@pytest.mark.parametrize("field, value", [("eigen_dir", [1.9, 1.2]), ("position", [0.1, 0])])
def test_render_rejects_float_fields(tmp_path, capsys, field, value):
    write_pi0(tmp_path)
    obj = json.loads((tmp_path / "pi0.json").read_text())
    obj["nodes"][0][field] = value
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(obj))
    code, stdout, stderr = run(capsys, "render", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:")


@pytest.mark.parametrize("name", sorted(hostile_diagrams()))
def test_render_rejects_hostile_json(tmp_path, capsys, name):
    path = tmp_path / "hostile.json"
    path.write_text(hostile_diagrams()[name])
    code, stdout, stderr = run(capsys, "render", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


def test_render_many_vertex_polygon_quickly(tmp_path, capsys):
    # a hostile-size input: the parabola y = x^2 for x = -500..500, no nodes
    path = tmp_path / "parabola.json"
    vertices = [[str(x), str(x * x)] for x in range(-500, 501)]
    path.write_text(json.dumps({"polygon": {"vertices": vertices}, "nodes": [], "cuts": []}))
    start = time.perf_counter()
    code, stdout, _ = run(capsys, "render", str(path), "--levels", "1/2")
    assert code == 0 and stdout.count('class="level"') == 1
    assert time.perf_counter() - start < 5.0


# -- top level ------------------------------------------------------------------


def test_mcg_refuses_the_shapes_build_refuses(capsys):
    for shape, message in (
        (["--a", "-3"], "parameters require a >= b > 0"),
        (["--a", "1", "--b", "2"], "parameters require a >= b > 0"),
        (["--b", "0"], "parameters require a >= b > 0"),
        (["--c", "0"], "parameter c must satisfy 0 < c < b/2"),
        (["--c", "5"], "parameter c must satisfy 0 < c < b/2"),
    ):
        for command in ("build", "mcg"):
            code, stdout, stderr = run(capsys, command, *shape)
            assert (code, stdout, stderr) == (2, "", f"error: {message}\n"), (command, shape)


def test_one_parser_answers_like_a_fresh_parser_per_call(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    pi0, svg = str(tmp_path / "pi0.json"), str(tmp_path / "pi0.svg")
    main(["build", "-o", pi0])
    pool = (
        [[command, "-h"] for command in ("build", "verify", "orbit", "classify", "mcg", "render")]
        + [["--help"], [], ["frobnicate"], ["Build"], ["orbit"], ["render"], ["orbit", "--n", "5"]]
        + [["build", "--a", "4/0"], ["build", "--c", "1/2+1*sqrt(4)"], ["orbit", "--h", "x"],
           ["orbit", "--h", "-1/4"], ["orbit", "--h=-1/4"], ["mcg", "--bound", "two"],
           ["render", pi0, "--scale", "0.5"], ["verify", "--seed", "x"], ["build", "--eps"]]
        + [["build", "--a", "6", "--b", "3", "--c", "3/4", "--eps", "1/4"], ["mcg", "--bound", "3"],
           ["orbit", "--h", "1/4", "--n", "20"], ["classify", "--name", "CP2(3)"],
           ["render", pi0, "--levels", "1/4", "-o", svg], ["mcg", "--a", "2", "--b", "2"],
           ["mcg", "--c", "5"], ["classify", pi0, "--name", "CP2(3)"]]
    )
    argvs = random.Random(12).choices(pool, k=120)
    assert {tuple(argv) for argv in argvs} == {tuple(argv) for argv in pool}
    ours = [run(capsys, *argv) for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run(capsys, *argv) for argv in argvs] == ours
    assert {code for code, _, _ in ours} == {0, 2}


def test_help_wraps_at_the_current_terminal_width(capsys, monkeypatch):
    helps = {}
    for width in (60, 140, 60):
        monkeypatch.setenv("COLUMNS", str(width))
        code, stdout, _ = run(capsys, "orbit", "-h")
        assert code == 0
        assert max(len(line) for line in stdout.splitlines()) <= width - 2
        assert helps.setdefault(width, stdout) == stdout
    assert max(len(line) for line in helps[140].splitlines()) > 60
    fresh = cli.build_parser.__wrapped__().format_help
    for width, text in helps.items():
        monkeypatch.setenv("COLUMNS", str(width))
        assert run(capsys, "-h")[1] == fresh()


def test_no_arguments_is_a_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_unknown_subcommand(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
