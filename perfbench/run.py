"""syncgait benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run sets up the workload's inputs from the seed (three times, reporting
the median), then runs whole cycles of ops until `--seconds` have passed
and at least two ops ran, timing each op and checking its outputs. Times
are speed-normalised CPU times (see speed.py); raw CPU and wall times are
printed beside them.
`--trace 1` then runs the same ops again with every target function
wrapped (see tracer.py) and reports per-layer figures and the tracing
overhead instead of the end-to-end ones. The last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NAMES = ("verify", "enroll", "evaluate")
SETUP_REPEATS = 3
MIN_OPS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
END_TO_END = {"op_norm_ms_p50": "ms", "op_norm_ms_mean": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    position: int                 # index of the op's slot in the cycle
    norm_ms: float                # CPU time at the reference speed
    cpu_ms: float                 # process CPU time
    wall_ms: float
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def run_op(workload, position: int, slot) -> Op:
    """Time one op, then check its outputs; any exception fails the op."""
    from speed import Stopwatch
    watch = Stopwatch()
    try:
        with watch:
            result = workload.run(slot)
    except Exception:
        return Op(position, *watch.result,
                  ["raised: " + traceback.format_exc(limit=3)])
    try:
        failures, info = workload.check(slot, result)
    except Exception:
        return Op(position, *watch.result,
                  ["check raised: " + traceback.format_exc(limit=3)])
    return Op(position, *watch.result, failures, info)


def run_cycles(workload, seconds: float) -> list[Op]:
    """Whole cycles of ops until `seconds` have passed and MIN_OPS ran."""
    slots = workload.cycle()
    ops: list[Op] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < MIN_OPS:
        ops.extend(run_op(workload, i, slot) for i, slot in enumerate(slots))
    return ops


def check_repeats(ops: list[Op], reference: dict | None = None) -> None:
    """An op at a cycle position must reproduce the first op there."""
    first = dict(reference or {})
    for op in ops:
        if "fingerprint" not in op.info:
            continue
        seen = first.setdefault(op.position, op.info["fingerprint"])
        if seen != op.info["fingerprint"]:
            op.failures.append("outputs differ from an earlier op on the "
                               "same inputs")


def fingerprints(ops: list[Op]) -> dict:
    out = {}
    for op in ops:
        if "fingerprint" in op.info:
            out.setdefault(op.position, op.info["fingerprint"])
    return out


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": seed}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def timed_setups(workload) -> tuple[list[tuple[float, ...]], list[str]]:
    """Set up SETUP_REPEATS times, each timed as (normalised, CPU, wall)
    seconds; every set-up must build the same inputs."""
    from speed import Stopwatch
    seconds, prints = [], []
    for _ in range(SETUP_REPEATS):
        with Stopwatch() as watch:
            prints.append(workload.setup())
        seconds.append(tuple(ms / 1e3 for ms in watch.result))
    if any(p != prints[0] for p in prints[1:]):
        return seconds, ["set-ups from one seed built different inputs"]
    return seconds, []


def traced_rerun(workload, ops: list[Op], tracer
                 ) -> tuple[list[Op], dict[str, float], list[str]]:
    """Run the ops again with every target wrapped; per-layer figures per
    op, with the tracing overhead against the untraced ops."""
    recorder = tracer.Recorder()
    installed = tracer.Installation(recorder)
    traced: list[Op] = []
    try:
        left = installed.unwrapped()
        slots = workload.cycle()
        for op_id, op in enumerate(ops):
            with recorder.op(op_id):
                traced.append(run_op(workload, op.position,
                                     slots[op.position]))
    finally:
        installed.remove()
    check_repeats(traced, fingerprints(ops))
    layer = tracer.layer_metrics(recorder.spans, len(traced))
    untraced = statistics.median(op.norm_ms for op in ops)
    overhead = statistics.median(op.norm_ms for op in traced) - untraced
    layer["trace.overhead_ms"] = overhead
    layer["trace.overhead_pct"] = 100.0 * overhead / untraced
    problems = ["targets left unwrapped: " + ", ".join(left)] if left else []
    return traced, layer, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import stats
    import tracer
    from workloads import WORKLOADS

    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work)
        setup_s, problems = timed_setups(workload)
        ops = run_cycles(workload, seconds)
        check_repeats(ops)
        figures, gate = workload.summary(ops)
        problems += gate
        norm_ms = [op.norm_ms for op in ops]
        metrics = {
            "op_norm_ms_p50": statistics.median(norm_ms),
            "op_norm_ms_mean": statistics.fmean(norm_ms),
            "setup_s": statistics.median(n for n, _, _ in setup_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        figures = {**{k: (v, units[k]) for k, v in metrics.items()},
                   "op_cpu_ms_p50":
                       (statistics.median(op.cpu_ms for op in ops), "ms"),
                   "op_wall_ms_p50":
                       (statistics.median(op.wall_ms for op in ops), "ms"),
                   "setup_cpu_s":
                       (statistics.median(c for _, c, _ in setup_s), "s"),
                   "setup_wall_s":
                       (statistics.median(w for _, _, w in setup_s), "s"),
                   **figures}
        traced: list[Op] = []
        if trace:
            traced, metrics, more = traced_rerun(workload, ops, tracer)
            problems += more
            units = {k: u for k, (u, _) in tracer.layer_metric_units().items()}

        every = ops + traced
        failed = [op for op in every if op.failures]
        for op in failed[:5]:
            print(f"op at cycle position {op.position} failed: "
                  + "; ".join(op.failures), file=sys.stderr)
        for problem in problems:
            print(f"run failed: {problem}", file=sys.stderr)
        figures["error_rate"] = (len(failed) / len(every), "share")

        print(f"perfbench {name}: seed {seed}, {len(ops)} ops, trace "
              f"{int(trace)}, set-ups took "
              + ", ".join(f"{n:.3f}" for n, _, _ in setup_s)
              + " normalised s")
        print("provenance " + json.dumps(provenance(seed), sort_keys=True))
        for key, (value, unit) in figures.items():
            print(f"  {key:<32} {_fmt(value):>14} {unit}")
        if "accept_ms_p90" in figures and figures["accept_ms_p90"][0] is None:
            print(f"  (accept_ms_p90 needs {stats.MIN_BEYOND} accepted "
                  "sessions beyond it, so >= 100 in one run)")
        if trace:
            print_layers(metrics, tracer)
        return {"correct": not failed and not problems,
                "attempted": len(every), "failed": len(failed),
                "metrics": {k: {"value": float(v), "unit": units[k]}
                            for k, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def print_layers(metrics: dict, tracer) -> None:
    print("  per-layer self time per op, and the end-to-end figure it moves:")
    rows = sorted(tracer.LAYERS, key=lambda l: -metrics[f"{l}.self_ms"])
    for layer in rows:
        print(f"    {layer:<12} {metrics[f'{layer}.self_ms']:>10.3f} ms  "
              f"{tracer.LAYER_MOVES[layer]}")
    for key in ("protocol.attempts", "protocol.arq_rounds",
                "protocol.partial_views"):
        print(f"    {key:<40} {metrics[key]:>10.4g}")
    for target, _, suffix in tracer.WASTE_RATIOS:
        key = f"{target}.{suffix}"
        print(f"    {key:<40} {metrics[key]:>10.4g}")
    print(f"  tracing overhead: {metrics['trace.overhead_ms']:.3f} ms per op "
          f"({metrics['trace.overhead_pct']:.2f} %)")


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {child.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # one BLAS thread, fixed before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "syncgait" / "__init__.py").is_file():
        print(f"no syncgait sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import syncgait
    if Path(syncgait.__file__).resolve().parent != SRC / "syncgait":
        print(f"imported syncgait from {syncgait.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
