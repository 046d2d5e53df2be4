"""Layered benchmark for diagquartic: one workload, one seed, one result.

    python3 perfbench/run.py --workload largeq-queries --seed 0 --seconds 25 --trace 0

Workloads (closed loop, one client; see workloads.py):
  largeq-queries      count_N / count_M, n <= 16, on fields above the index-table
                      threshold: BSGS discrete logs dominate
  largen-series       count_N / count_M, n in 10^3..10^4, on index-table fields:
                      the big-integer series recurrence dominates
  crosscheck-session  in-process `verify --expsums` and `count --all-methods`
                      calls: oracle convolution, cyclotomic enumeration,
                      exponential sums, with module caches kept across calls

With --trace 0 the run reports the end-to-end metrics, measured untraced:
setup_s (median over several fresh processes of process start to first op
ready), norm_latency_p50_ms, norm_latency_p95_ms, norm_ops_per_s and
peak_rss_mb; it also prints fail_ratio and the wall-clock latency_p50_ms,
latency_p95_ms and ops_per_s.  Latency percentiles are over every op of the
run, and ops per second is ops over the time spent inside them (input
generation and checks are outside).  A run ends on a cycle boundary (see
workloads.py), so every run measures the same op mix.

The norm_ metrics are the wall-clock ones at a reference machine speed: each
op's latency is scaled by REF_CALIBRATION_S over the median time of the
worker's calibration kernel (see worker.py) on the ops around it.  The
kernel does not touch the package, so any change to the package's speed
shows in full, while drift in the shared host's speed mostly cancels: over
ten seeds on a 2-vCPU Xeon VM, the quartile spread of the norm_ metrics
was 0.03-0.07 of their median against 0.07-0.25 for the wall-clock ones.
With --trace 1 it runs a fixed number of cycles untraced and then traced,
and reports per-layer calls and self time for each package module (see
tracer.py), plus the tracing overhead.

Each workload run is a fresh worker process, so peak memory and the
package's module-level caches start cold.  Every answer is checked outside
the timed region; the last stdout line is the JSON result, and the exit code
is 1 when any answer is wrong.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_specs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = tuple(WORKLOADS)
# Set-up-only processes before and after the measured run, which times its
# own set-up too; spreading them over the run's span evens out machine speed.
SETUP_PROBES = 2
DEADLINE = time.monotonic() + 170  # every worker is stopped by then
END_TO_END = [("setup_s", "s"), ("norm_latency_p50_ms", "ms"),
              ("norm_latency_p95_ms", "ms"), ("norm_ops_per_s", "1/s"), ("peak_rss_mb", "MB")]
WALL_CLOCK = [("latency_p50_ms", "ms"), ("latency_p95_ms", "ms"), ("ops_per_s", "1/s")]
# Calibration kernel time that defines the reference speed, and how many ops
# on each side of an op give the kernel times its latency is scaled by.
REF_CALIBRATION_S = 0.001
CALIBRATION_WINDOW = 5


class WorkerError(RuntimeError):
    pass


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "unknown"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy, "commit": git_commit()}


def git_commit() -> str:
    """HEAD's commit from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def spawn(args: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to READY, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        remaining = max(DEADLINE - time.monotonic(), 0)
        if not select.select([proc.stdout], [], [], remaining)[0]:
            raise WorkerError(f"worker timed out before READY: {' '.join(args)}")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise WorkerError(f"worker did not reach READY: {' '.join(args)}")
        out, _ = proc.communicate(timeout=max(DEADLINE - time.monotonic(), 0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {' '.join(args)}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def end_to_end(args) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    probe = base + ["--setup-only"]
    setups = [spawn(probe)[0] for _ in range(SETUP_PROBES)]
    run = base + ["--seconds", str(args.seconds)] + (["--break-t"] if args.break_t else [])
    setup_s, result = spawn(run)
    setups += [setup_s] + [spawn(probe)[0] for _ in range(SETUP_PROBES)]
    lat_ms = [seconds * 1000 for seconds in result["latencies_s"]]
    norm = latency_stats(normalised(lat_ms, result["calibrations_s"]))
    metrics = {
        "setup_s": statistics.median(setups),
        "norm_latency_p50_ms": norm["latency_p50_ms"],
        "norm_latency_p95_ms": norm["latency_p95_ms"],
        "norm_ops_per_s": norm["ops_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["wall_clock"] = latency_stats(lat_ms)
    result["beyond_p95"] = sum(ms > result["wall_clock"]["latency_p95_ms"] for ms in lat_ms)
    return metrics, result


def latency_stats(lat_ms: list[float]) -> dict[str, float]:
    return {"latency_p50_ms": statistics.median(lat_ms),
            "latency_p95_ms": statistics.quantiles(lat_ms, n=20, method="inclusive")[-1],
            "ops_per_s": 1000 * len(lat_ms) / sum(lat_ms)}


def normalised(lat_ms: list[float], calibrations_s: list[float]) -> list[float]:
    """Each latency at the reference speed, scaled by REF_CALIBRATION_S over
    the median kernel time of the ops within CALIBRATION_WINDOW of it."""
    w = CALIBRATION_WINDOW
    return [ms * REF_CALIBRATION_S / statistics.median(calibrations_s[max(i - w, 0):i + w + 1])
            for i, ms in enumerate(lat_ms)]


def traced(args) -> tuple[dict, dict]:
    cycles = WORKLOADS[args.workload].trace_cycles
    base = ["--workload", args.workload, "--seed", str(args.seed), "--cycles", str(cycles)]
    base += ["--break-t"] if args.break_t else []
    _, plain = spawn(base)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    _, result = spawn(base + ["--trace-out", str(spans)])
    metrics = dict(result["layers"])
    metrics["trace.overhead_s"] = result["op_wall_s"] - plain["op_wall_s"]
    result["failed"] = max(result["failed"], plain["failed"])
    result["messages"] += plain["messages"]
    return metrics, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="minimum measured time; runs end on whole cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--break-t", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "diagquartic" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, result = (traced if args.trace else end_to_end)(args)
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    info = machine_info() | {"seed": args.seed}
    attempted, failed = result["ops"], result["failed"]
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload}: closed loop, 1 client, {attempted} ops, "
          f"{result['loop_wall_s']:.1f} s")
    if args.trace:
        units = {name: unit for name, unit, _ in metric_specs()}
    else:
        units = dict(END_TO_END)
        print(f"  samples: {attempted} ({result['beyond_p95']} beyond p95)")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    for name, unit in [] if args.trace else WALL_CLOCK:
        print(f"  {name:<40} {result['wall_clock'][name]:.6g} {unit} (wall clock)")
    print(f"  {'fail_ratio':<40} {failed / attempted:.6g} ({failed}/{attempted})")
    for message in result["messages"]:
        print(f"  FAIL {message}")
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {"machine": info, "metrics": metrics, "wall_clock": result.get("wall_clock"),
         "attempted": attempted,
         "failed": failed, "messages": result["messages"]}, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
