"""Closed-loop benchmark of atfkit: one client, one process, one thread.

Run from the root of a checkout:

    python3 bench/run.py --workload orbit --seed 1 --seconds 24 --trace 0

The seed fixes the item inputs; ``--seconds`` fixes how many items a pass
runs (PASS_RATE items per second of a pass).  ``--trace 0`` runs PASSES
passes over the same items, each in a fresh process of this script
(``--probe items``), and reports the end-to-end metrics on each item's
best time, so short bursts of load from other tenants of the host drop
out.  ``--trace 1`` runs one pass with every layer wrapped (see
``tracing.py``) and reports the per-layer metrics.  Set-up time is
measured in fresh processes too (``--probe setup``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each item's
output is checked by the oracles in ``oracles.py``; a failed item is
reported on standard error and counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 5
PASSES = 2
# items per second of a pass, oracles included, on a 2-CPU x86 host: sizes a
# pass so that PASSES of them take about --seconds
PASS_RATE = {"orbit": 3.0, "recurrence": 3.75, "diagram_io": 8.5}
# the highest percentile with at least ten items beyond it at --seconds 24
TAIL_PERCENTILE = {"orbit": 75, "recurrence": 75, "diagram_io": 90}
# reference_seconds() on an uncontended 2-CPU x86 host; item times are
# scaled to a host of that speed
REFERENCE_SECONDS = 1e-3

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_workloads():
    src = ROOT / "src"
    if not (src / "atfkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no atfkit sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import workloads

    return workloads.WORKLOADS


def reference_seconds() -> float:
    """Best of three runs of a fixed pure-Python kernel with the library's
    instruction mix (small Fraction arithmetic), independent of atfkit.

    Timed between items, it tracks how fast the shared host runs at that
    moment: other tenants can slow this process down by half or more for
    minutes at a time, and item times are divided by the slowdown.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
        best = min(best, perf_counter() - t0)
    return best


@dataclass
class Result:
    latencies: list[float]  # seconds, as measured
    references: list[float]  # reference_seconds() before each item and after the last
    failed: int

    def scaled(self) -> list[float]:
        """Item times scaled to a host where the reference takes REFERENCE_SECONDS."""
        refs = self.references
        return [
            t * 2 * REFERENCE_SECONDS / (refs[i] + refs[i + 1])
            for i, t in enumerate(self.latencies)
        ]


def prepare(workload, seed: int, workdir: Path):
    """Everything done before the first timed item."""
    ctx = workload.setup(workdir)
    inputs = workload.inputs(random.Random(seed))
    return ctx, inputs, next(inputs)


def run_items(workload, seed: int, workdir: Path, count: int, tracer=None) -> Result:
    """Run the seed's first ``count`` items back to back."""
    ctx, inputs, spec = prepare(workload, seed, workdir)
    latencies, references, failed = [], [reference_seconds()], 0
    while True:
        error = None
        t0 = perf_counter()
        if tracer:
            tracer.begin_item()
        try:
            raw = workload.run(ctx, spec)
        except Exception:
            error = traceback.format_exc()
        finally:
            if tracer:
                tracer.end_item()
        latencies.append(perf_counter() - t0)
        references.append(reference_seconds())
        if error is None:
            try:
                out = workload.extract(ctx, spec, raw)
                workload.check(spec, out)
            except Exception:
                error = traceback.format_exc()
            else:
                if tracer:
                    tracer.counts["cli.bytes_out"] += out.get("cli_bytes", 0)
        if error is not None:
            failed += 1
            print(f"item {len(latencies)} failed on {spec}:\n{error}", file=sys.stderr)
        if len(latencies) == count:
            return Result(latencies, references, failed)
        spec = next(inputs)


def child(workload: str, seed: int, *extra: str) -> str:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to first timed item, in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        ready = float(child(workload, seed, "--probe", "setup"))
        out.append(ready - t0)
    return out


def item_pass(workload: str, seed: int, count: int) -> Result:
    """One pass over the seed's first ``count`` items in a fresh process."""
    return Result(**json.loads(child(workload, seed, "--probe", "items", "--count", str(count))))


def pass_items(workload, seconds: int) -> int:
    """Items in one pass: whole blocks of the workload's input mix."""
    blocks = round(seconds / PASSES * PASS_RATE[workload.name] / workload.block)
    return workload.block * max(1, blocks)


def end_to_end(workload, args) -> tuple[dict, int, int]:
    """Best of PASSES fresh-process passes over the same items, item by item."""
    setups = setup_seconds(workload.name, args.seed)
    count = pass_items(workload, args.seconds)
    passes = [item_pass(workload.name, args.seed, count) for _ in range(PASSES)]
    lat = [min(times) for times in zip(*(p.scaled() for p in passes))]
    raw = [min(times) for times in zip(*(p.latencies for p in passes))]
    failed = sum(p.failed for p in passes)
    pct = TAIL_PERCENTILE[workload.name]
    rank = math.ceil(pct / 100 * count)
    values = {
        "items_per_s": count / sum(lat),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_tail_ms": 1e3 * sorted(lat)[rank - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    print(f"# {workload.name} seed {args.seed}: {count} items x {PASSES} passes, {failed} failed, "
          f"fail_frac {failed / (count * PASSES):.4f}; item_tail_ms is p{pct} with "
          f"{count - rank} items beyond; unscaled p50 {1e3 * statistics.median(raw):.1f} ms; "
          f"setup probes {[round(s, 4) for s in setups]}")
    if count - rank < 10:
        print(f"warning: only {count - rank} items beyond the tail percentile", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, count * PASSES, failed


def per_layer(workload, args, workdir: Path) -> tuple[dict, int, int]:
    """One pass traced in this process, one untraced in a fresh one."""
    count = max(workload.block, pass_items(workload, args.seconds) // 2)
    untraced = item_pass(workload.name, args.seed, count)
    untraced_s = sum(untraced.scaled())
    tracer = Tracer()
    tracer.install()
    result = run_items(workload, args.seed, workdir, count, tracer=tracer)
    traced_s = sum(result.scaled())
    values = tracer.metrics()
    # scale self times like item times, by the traced pass's mean factor
    scale = traced_s / sum(result.latencies)
    for name, unit in PER_LAYER:
        if unit in ("s", "us"):
            values[name] *= scale
    values["trace.overhead"] = 1 - untraced_s / traced_s
    tracer.write(OUT / f"trace-{workload.name}.tsv.gz")
    print(f"# {workload.name} seed {args.seed}: {count} items traced, {len(tracer.span_name)} "
          f"spans, untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, 2 * count, result.failed + untraced.failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "items"), help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads[args.workload]
        if args.probe == "setup":
            prepare(workload, args.seed, workdir)
            print(repr(perf_counter()))
            return 0
        if args.probe == "items":
            print(json.dumps(vars(run_items(workload, args.seed, workdir, args.count))))
            return 0
        if args.trace:
            metrics, attempted, failed = per_layer(workload, args, workdir)
        else:
            metrics, attempted, failed = end_to_end(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
