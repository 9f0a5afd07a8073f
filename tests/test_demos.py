"""Every demo script runs to completion, and its stdout and the files it
writes are byte-identical to the goldens under ``golden/demos``."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def test_all_demos_found():
    assert len(DEMOS) == 8
    written = ["pi0.svg", "pi0_annotated.svg"]  # by 08_render_svg
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([f"{d.stem}.txt" for d in DEMOS] + written)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, capsys):
    # run a copy, so that demos writing next to themselves write into tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{demo.stem}.txt").read_text()
    for path in sorted((tmp_path / "out").glob("*")):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name
