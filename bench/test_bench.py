"""Tests of the benchmark itself.

    python3 bench/test_bench.py

Each oracle must reject a corrupted result; each workload must print
every metric named in BENCHMARK.json with its unit and no failed item; a
traced run must repeat its counts exactly on the same seed; and the
benchmark must refuse to run without the library's sources.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def item(name: str, want=lambda spec: True, seed: int = 5) -> tuple[dict, dict]:
    """The first generated item of a workload that satisfies ``want``, run and extracted."""
    w = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        ctx = w.setup(tmp / "work")
        spec = next(s for s in w.inputs(random.Random(seed)) if want(s))
        out = w.extract(ctx, spec, w.run(ctx, spec))
    finally:
        shutil.rmtree(tmp)
    w.check(spec, out)
    return spec, out


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result(workload: str, trace: int, seed: int = 3) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class OraclesRejectCorruption(unittest.TestCase):
    def rejects(self, check, spec, out, corrupt) -> None:
        bad = copy.deepcopy(out)
        corrupt(bad)
        with self.assertRaises(OracleError):
            check(spec, bad)

    def test_orbit_rational(self):
        spec, out = item("orbit", lambda s: s["d"] == 0)
        check = workloads.WORKLOADS["orbit"].check
        self.rejects(check, spec, out, lambda o: o.update(period=o["period"] + 1))
        self.rejects(check, spec, out, lambda o: o.update(kind="irrational-certified"))
        self.rejects(check, spec, out, lambda o: o.update(rho="1/3"))

    def test_orbit_irrational(self):
        spec, out = item("orbit", lambda s: s["d"] != 0)
        check = workloads.WORKLOADS["orbit"].check
        self.assertEqual(len(out["gaps"]), 3)
        self.rejects(check, spec, out, lambda o: o.update(kind="periodic"))
        self.rejects(check, spec, out, lambda o: o["gaps"].append("1/1"))
        self.rejects(check, spec, out, lambda o: o["gaps"].__setitem__(0, "1/1000"))
        self.rejects(check, spec, out, lambda o: o["hist"].__setitem__(0, o["hist"][0] + 1))
        self.rejects(check, spec, out, lambda o: o.update(distinct=o["distinct"] - 1))

    def test_recurrence(self):
        spec, out = item("recurrence")
        check = workloads.WORKLOADS["recurrence"].check

        def shift(row, index):
            h, p, r, f = row
            moved = [p, r, f]
            x, y = moved[index - 1]
            moved[index - 1] = (x + Fraction(1, 7), y)
            return (h, *moved)

        self.rejects(check, spec, out, lambda o: o["moved"].__setitem__(3, shift(o["moved"][3], 2)))
        self.rejects(check, spec, out, lambda o: o["moved"].__setitem__(4, shift(o["moved"][4], 3)))
        self.rejects(check, spec, out, lambda o: o["fixed"].__setitem__(0, shift(o["fixed"][0], 3)))
        self.rejects(
            check, spec, out,
            lambda o: o["distance"].__setitem__(0, (o["distance"][0][0], o["distance"][0][1] + 1)),
        )

    def test_diagram_io(self):
        spec, out = item("diagram_io")
        check = workloads.WORKLOADS["diagram_io"].check
        self.rejects(check, spec, out, lambda o: o["codes"].__setitem__(1, 2))
        self.rejects(check, spec, out, lambda o: o.update(reloaded=o["reloaded"].replace("1", "2", 1)))
        self.rejects(check, spec, out, lambda o: o.update(rerender=o["rerender"] + " "))
        self.rejects(check, spec, out, lambda o: o.update(svg=o["svg"].replace('class="node"', "", 1)))
        self.rejects(
            check, spec, out,
            lambda o: o.update(classify=o["classify"].replace('"witness_edge": 1', '"witness_edge": 2')),
        )
        self.rejects(check, spec, out, lambda o: o.update(mcg=json.dumps({"classes": []})))

    def test_quadratic_sign(self):
        self.assertEqual(oracles.q_sign(oracles.parse("3/2-1/1*sqrt(2)")), 1)
        self.assertEqual(oracles.q_sign(oracles.parse("1/1-1/1*sqrt(2)")), -1)
        self.assertEqual(oracles.q_sign(oracles.parse("0/1")), 0)


class Smoke(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in SPEC_WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    r = result(name, trace)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)  # fail_frac = 0
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)

    def test_traced_counts_repeat(self):
        for name in SPEC_WORKLOADS:
            with self.subTest(workload=name):
                first, second = (result(name, 1, seed=11)["metrics"] for _ in range(2))
                for metric, value in first.items():
                    if value["unit"] in ("count", "bytes", "bits") or metric.endswith(".reuse"):
                        self.assertEqual(value, second[metric], metric)

    def test_refuses_to_run_without_sources(self):
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = bench("--workload", "orbit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if __name__ == "__main__":
    unittest.main()
