"""End-to-end runs of the command line entry point: in process, and in a
child interpreter where a run must meet a timeout or a memory cap."""

import hashlib
import json
import os
import random
import resource
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


GOLDEN = Path(__file__).parent / "golden"
SQRT2_LEVEL = "0/1+1/8*sqrt(2)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_within(seconds, capsys, *argv):
    """``run``, failing if the command takes ``seconds`` or longer."""
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < seconds, argv
    return result


def run_child(*argv, timeout, memory=None):
    """Run the command line in a fresh ``python -W error``, killed after
    ``timeout`` seconds and, if ``memory`` is given, with its address space
    capped at that many bytes; return the finished process (stdout and
    stderr as bytes) and its wall time."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    env = dict(os.environ, PYTHONPATH=str(Path(atfkit.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "atfkit.cli", *argv],
        capture_output=True, env=env, timeout=timeout, preexec_fn=None if memory is None else cap,
    )
    return done, time.perf_counter() - start


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
        code, stdout, stderr = run_within(10, capsys, "build", "--a", "9" * DIGIT_BOUND, *argv)
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr == f"error: scalar has an integer of more than {DIGIT_BOUND} digits\n"


@pytest.mark.parametrize("digits", [4290, DIGIT_BOUND - 1, DIGIT_BOUND])
def test_what_build_writes_render_reads(tmp_path, capsys, digits):
    built, svg = tmp_path / "big.json", tmp_path / "big.svg"
    code, _, _ = run_within(10, capsys, "build", "--a", "9" * digits, "--b", "3", "-o", str(built))
    if code == 0:
        code, _, stderr = run_within(10, capsys, "render", str(built), "--levels", "1/4", "-o", str(svg))
        assert code == 0 and stderr == ""
        assert ET.fromstring(svg.read_text()).tag.endswith("svg")
    else:
        assert code == 2 and not built.exists()
    assert (code == 0) == (digits < DIGIT_BOUND)


def test_one_diagram_through_build_render_classify_and_mcg(tmp_path, capsys):
    pi0, svg, polygon = tmp_path / "pi0.json", tmp_path / "pi0.svg", tmp_path / "polygon.json"
    shape = ["--a", "6", "--b", "3", "--c", "3/4"]
    assert run(capsys, "build", *shape, "--eps", "1/4", "-o", str(pi0)) == (0, "", "")
    assert run(capsys, "render", str(pi0), "--strips", "--levels", "1/4", "-o", str(svg)) == (0, "", "")
    polygon.write_text(json.dumps(json.loads(pi0.read_text())["polygon"]))
    code, stdout, _ = run(capsys, "classify", str(polygon))
    assert code == 0 and json.loads(stdout)["witness_length"] == "3/4"
    code, stdout, _ = run(capsys, "mcg", *shape, "--bound", "5")
    assert code == 0 and [entry["area"] for entry in json.loads(stdout)["classes"]] == ["-3/1", "3/1"]


# -- verify -----------------------------------------------------------------


def test_verify_runs_the_battery(capsys):
    code, stdout, _ = run(capsys, "verify", "--seed", "7")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("properties passed")
    assert run(capsys, "verify") == (0, (GOLDEN / "verify_2026.txt").read_text(), "")


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
    code, _, _ = run_within(1.0, capsys, "orbit", "--h", level)
    assert code == 2


def test_orbit_refuses_a_parameter_above_the_digit_bound(capsys):
    code, stdout, stderr = run(capsys, "orbit", "--a", "1" * (DIGIT_BOUND + 1), "--h", "1/4")
    assert code == 2 and stdout == ""
    assert stderr.endswith(f"argument --a: scalar has an integer of more than {DIGIT_BOUND} digits\n")


def test_orbit_refuses_a_shape_in_two_radicands(capsys):
    # a in sqrt(2) and eps in sqrt(3): refused as parameters, before any level is read
    shape = ["--a", "3/1+1/1*sqrt(2)", "--b", "3", "--c", "1/2", "--eps", "0/1+1/16*sqrt(3)"]
    code, stdout, stderr = run(capsys, "orbit", *shape, "--h", "1/4")
    assert (code, stdout, stderr) == (2, "", "error: mixed radicands sqrt(2) and sqrt(3)\n")


def test_orbit_prints_scalars_past_the_int_to_str_limit(capsys):
    # a = 111...1 (4,000 digits): rho's integers are past the 4,300 digits
    # that str() of an int converts by default
    code, stdout, stderr = run_within(
        10, capsys, "orbit", "--a", "1" * 4000 + "/1", "--b", "3", "--c", "1/2", "--eps", "1/8",
        "--h", SQRT2_LEVEL, "--n", "10",
    )
    assert code == 0 and stderr == ""
    report = json.loads(stdout)
    params = ConstructionParams(qf("1" * 4000), 3, qf("1/2"), qf("1/8"))
    assert report["rho"] == str(orbits.rotation_number(params, qf("0/1+1/8*sqrt(2)")))
    assert len(report["rho"]) > 8000 and report["kind"] == "irrational-certified"


def test_orbit_prints_a_period_past_the_int_to_str_limit(capsys):
    # a = 4,300 nines: the period, the denominator of rho, has 4,301 digits
    code, stdout, stderr = run_within(
        10, capsys, "orbit", "--a", "9" * DIGIT_BOUND, "--h", "1/4", "--n", "10"
    )
    assert code == 0 and stderr == ""
    report = json.loads(stdout, parse_int=str)
    assert report["kind"] == "periodic" and report["distinct_checked"] == "10"
    assert report["rho"].split("/")[1] == report["period"] and len(report["period"]) > DIGIT_BOUND


def test_orbit_long_period_exits_quickly():
    # rho = 1000001/23000055: the period is proved, not walked
    done, elapsed = run_child("orbit", "--h", "1/1000003", timeout=30)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["period"] == 23000055
    assert report["distinct_checked"] == 10000
    assert elapsed < 1.0


# The histogram packs its counts into one integer of --bins fields and joins
# words by adding and rotating it, so neither its time nor its memory grows
# with --n beyond the field width; each step on the packed counts costs time
# and memory in proportion to --bins.


def test_orbit_of_the_largest_n_in_ten_bins_matches_its_golden():
    # within 10 s in 100 MB of address space (100,000 KiB); the run fits in 40 MB
    done, _ = run_child(
        "orbit", "--h", SQRT2_LEVEL, "--n", str(ORBIT_LIMIT), "--bins", "10",
        timeout=10, memory=100_000 * 1024,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "orbit_sqrt2_1e6.json").read_bytes()


def test_orbit_of_the_largest_bins_at_the_default_n():
    done, _ = run_child("orbit", "--h", SQRT2_LEVEL, "--n", "10000", "--bins", str(ORBIT_LIMIT), timeout=10)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["kind"] == "irrational-certified"


def test_orbit_of_the_largest_n_and_bins_matches_its_digest():
    # frozen from the output before the counts were packed and the histogram
    # rows went through json's C encoder
    done, _ = run_child(
        "orbit", "--h", SQRT2_LEVEL, "--n", str(ORBIT_LIMIT), "--bins", str(ORBIT_LIMIT), timeout=10
    )
    assert done.returncode == 0, done.stderr
    digest, _ = (GOLDEN / "orbit_sqrt2_1e6_bins1e6.sha256").read_text().split()
    assert hashlib.sha256(done.stdout).hexdigest() == digest


def test_streamed_dump_of_the_largest_n_matches_its_digest(tmp_path):
    # frozen, as sha256sum writes it, from the dump built in memory before it streamed
    digest, file_name = (GOLDEN / "orbit_sqrt2_1e6_dump.sha256").read_text().split()
    dump = tmp_path / file_name
    done, _ = run_child("orbit", "--h", SQRT2_LEVEL, "--n", str(ORBIT_LIMIT), "--dump", str(dump), timeout=15)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("fmt, text", [("csv", "n,s\n\n"), ("json", "[]")], ids=["csv", "json"])
def test_orbit_dump_of_no_positions(tmp_path, capsys, fmt, text):
    """Kills the mutant ``count < 0`` -> ``count <= 0`` in ``orbits._positions``,
    which would refuse ``--n 0``."""
    dump = tmp_path / f"orbit.{fmt}"
    code, _, stderr = run(capsys, "orbit", "--h", "1/4", "--n", "0", "--dump", str(dump), "--dump-format", fmt)
    assert (code, stderr) == (0, "")
    assert dump.read_text() == text


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


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_orbit_dump_to_a_path_it_cannot_open_prints_nothing(tmp_path, capsys, where):
    # the dump file is opened before the report is printed, as the limit
    # refusals above leave stdout empty
    path = tmp_path / "missing" / "orbit.csv" if where == "missing directory" else tmp_path
    code, stdout, stderr = run(capsys, "orbit", "--h", "0/1+1/8*sqrt(2)", "--n", "3", "--bins", "10", "--dump", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: [Errno ") and str(path) in stderr


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
    code, stdout, _ = run_within(1.0, capsys, "mcg", "--bound", str(10**18))
    assert code == 0
    report = json.loads(stdout)
    assert [tuple(entry["class"]) for entry in report["classes"]] == [(-1, 1, 0), (1, -1, 0)]


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
    # for a=4, b=2, c=1/2 the slanted edge dies at 1/2 and max F is 1, so
    # the level at 3/4 has four vertices
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
    code, stdout, stderr = run_within(10, capsys, "render", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "forge, refusal",
    [
        (lambda slide: ["cut_transfer", 42], "node index 42 is not in range(5)"),
        (lambda slide: ["cut_transfer", -1], "node index -1 is not in range(5)"),
        (lambda slide: ["slide", 9, *slide[2:]], "node index 9 is not in range(5)"),
        (lambda slide: ["trade", 7, "1/16"], "vertex index 7 is not in range(5)"),
        # a trade's own checks run on its record too
        (lambda slide: ["trade", 0, "-5/1"], "trade parameter must be positive"),
        (lambda slide: ["trade", 0, "0/1"], "trade parameter must be positive"),
        # and a slide's: its points on the node's eigenline, its band exact
        (
            lambda slide: [*slide[:2], {"point": ["100", "100"]}, *slide[3:]],
            "slide point (100/1, 100/1) is not on the eigenline of node 1",
        ),
        (
            lambda slide: [*slide[:4], ["-7", "1000"]],
            "slide band (-7/1, 1000/1) is not the distance band (1/16, 1/2)",
        ),
    ],
    ids=[
        "transfer-42", "transfer-minus-1", "slide-9", "trade-7", "trade-param-minus-5", "trade-param-0",
        "slide-old-100-100", "slide-band-minus-7-1000",
    ],
)
def test_render_refuses_a_record_naming_a_node_or_vertex_the_diagram_lacks(
    tmp_path, capsys, forge, refusal
):
    pi0 = tmp_path / "pi0.json"
    assert run(capsys, "build", "-o", str(pi0))[0] == 0
    obj = json.loads(pi0.read_text())
    obj["provenance"].append(forge(obj["provenance"][-1]))
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    code, stdout, stderr = run(capsys, "render", str(path))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: provenance record 6: {refusal}\n"


def test_render_refuses_params_in_two_radicands(tmp_path, capsys):
    # a pi0 built with a in sqrt(2), its params.eps then forged into sqrt(3)
    pi0 = tmp_path / "pi0.json"
    shape = ["--a", "3/1+1/1*sqrt(2)", "--b", "3", "--c", "1/2", "--eps", "1/8"]
    assert run(capsys, "build", *shape, "-o", str(pi0))[0] == 0
    obj = json.loads(pi0.read_text())
    obj["params"]["eps"] = "0/1+1/16*sqrt(3)"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    code, stdout, stderr = run(capsys, "render", str(path))
    assert (code, stdout, stderr) == (2, "", "error: mixed radicands sqrt(2) and sqrt(3)\n")


def test_render_many_vertex_polygon_quickly(tmp_path, capsys):
    # a hostile-size input: the parabola y = x^2 for x = -500..500, no nodes
    path = tmp_path / "parabola.json"
    vertices = [[str(x), str(x * x)] for x in range(-500, 501)]
    path.write_text(json.dumps({"polygon": {"vertices": vertices}, "nodes": [], "cuts": []}))
    code, stdout, _ = run_within(5.0, capsys, "render", str(path), "--levels", "1/2")
    assert code == 0 and stdout.count('class="level"') == 1


# -- top level ------------------------------------------------------------------


def test_mcg_refuses_the_shapes_build_refuses(capsys):
    for shape, message in (
        (["--a", "-3"], "parameters require a >= b > 0"),
        (["--a", "1", "--b", "2"], "parameters require a >= b > 0"),
        (["--b", "0"], "parameters require a >= b > 0"),
        (["--c", "0"], "parameter c must satisfy 0 < c < b/2"),
        (["--c", "5"], "parameter c must satisfy 0 < c < b/2"),
        (["--a", "3/1+1/1*sqrt(2)", "--c", "1/2+1/16*sqrt(3)"], "mixed radicands sqrt(2) and sqrt(3)"),
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


@pytest.mark.parametrize("command", ["build", "verify", "orbit", "classify", "mcg", "render"])
def test_every_subcommand_prints_its_help(capsys, command):
    code, stdout, stderr = run(capsys, command, "--help")
    assert code == 0 and stdout.startswith(f"usage: atfkit {command} ") and stderr == ""


def test_no_arguments_is_a_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_unknown_subcommand(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
