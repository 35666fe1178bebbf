"""Benchmark of ballwidth: three workloads, end-to-end and per-layer metrics.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload sweep_desk --seed 0 --seconds 40 --trace 0

The workloads are defined in workloads.py; seeds other than 0 permute or
redraw their items.  A run repeats passes over the items, serially in this
process, while one more pass should still end within --seconds, and
checks every output.

--trace 0 reports the end-to-end metrics:
  setup_s      median, over SETUP_PROBES fresh interpreters, of the time from
               start until the workload is generated (ballwidth imported)
  wall_s       median wall time of one pass
  cpu_s        median process CPU time of one pass
  peak_rss_mb  peak resident set of this process
  ok_frac      items whose output passed its check, over items attempted

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py as medians over the traced passes, plus the bytes a
pass writes (sweep.log_bytes) and trace.overhead_ratio, the traced over the
untraced median wall time.  The spans go to
.perfbench/spans-<workload>-seed<seed>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the run's
context (Python version, CPU count, commit, load average, per-pass times).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

import tracing
import workloads

ROOT = workloads.ROOT
SCRATCH = ROOT / ".perfbench"
SETUP_PROBES = 11
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class Pass(NamedTuple):
    wall_s: float
    cpu_s: float
    written_bytes: int
    attempted: int
    failed: int


def timed_pass(workload, items, around=None) -> Pass:
    """One pass over `items`, timed inside `around`, with its outputs checked."""
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        gc.collect()
        with around or nullcontext():
            wall, cpu = time.perf_counter(), time.process_time()
            outcome = workload.run_pass(items, Path(scratch))
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        written = sum(f.stat().st_size for f in Path(scratch).rglob("*") if f.is_file())
    attempted, failed = workload.check(items, outcome)
    return Pass(wall, cpu, written, attempted, failed)


def repeat_within(seconds: float, step) -> None:
    """Calls step() once, then again while one more call should end within `seconds`."""
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            return


def measure_end_to_end(workload, items, seconds: float) -> tuple[dict, list[Pass]]:
    passes: list[Pass] = []
    repeat_within(seconds, lambda: passes.append(timed_pass(workload, items)))
    attempted = sum(p.attempted for p in passes)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - sum(p.failed for p in passes)) / attempted,
    }
    return metrics, passes


def measure_layers(workload, items, seconds: float):
    """Per-layer medians over traced passes.

    Returns (metrics, untraced passes, traced passes, spans of each traced pass).
    """
    untraced: list[Pass] = []
    traced: list[Pass] = []
    per_pass: list[dict] = []
    spans: list[list] = []

    def pair() -> None:
        untraced.append(timed_pass(workload, items))
        tracer = tracing.Tracer()
        traced.append(timed_pass(workload, items, tracer.installed()))
        per_pass.append({**tracer.metrics(), "sweep.log_bytes": traced[-1].written_bytes})
        spans.append(tracer.spans)

    repeat_within(seconds, pair)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        p.wall_s for p in traced
    ) / statistics.median(p.wall_s for p in untraced)
    return metrics, untraced, traced, spans


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if ".self_ms" in name:
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def setup_seconds(workload_name: str, seed: int) -> float:
    """Median time from a fresh interpreter to a generated workload."""
    times = []
    command = [
        sys.executable, __file__, "--workload", workload_name, "--seed", str(seed),
        "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - start)
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
    return statistics.median(times)


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    items = workload.generate(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    SCRATCH.mkdir(exist_ok=True)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }
    if args.trace:
        metrics, untraced, traced, spans = measure_layers(workload, items, args.seconds)
        passes = untraced + traced
        traced_wall = statistics.median(p.wall_s for p in traced)
        context["self_share"] = {
            k[: -len(".self_ms")]: round(v / 1000 / traced_wall, 4)
            for k, v in sorted(metrics.items(), key=lambda kv: -kv[1])
            if k.endswith(".self_ms") and v > 0
        }
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with spans_path.open("w") as out:
            for k, pass_spans in enumerate(spans):
                for span in pass_spans:
                    out.write(json.dumps([k, *span]) + "\n")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {"setup_s": setup_seconds(args.workload, args.seed)}
        e2e, passes = measure_end_to_end(workload, items, args.seconds)
        metrics.update(e2e)
        units = END_TO_END_UNITS
    context["loadavg_end"] = os.getloadavg()
    context["passes"] = len(passes)
    context["pass_wall_s"] = [p.wall_s for p in passes]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
