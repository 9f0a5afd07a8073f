"""End-to-end runs of the command line entry point, in process."""

import json
import time

import pytest

from atfkit.cli import main
from atfkit.diagram import BaseDiagram, build_pi0
from atfkit.polygon import ConstructionParams, catalog
from atfkit.scalars import qf


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
    ],
)
def test_orbit_rejects_hostile_levels_fast(capsys, level):
    start = time.perf_counter()
    code = main(["orbit", "--h", level])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0


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


# -- top level ------------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_unknown_subcommand(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
