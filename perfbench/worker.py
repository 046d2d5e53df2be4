"""One workload run in a fresh process; started by run.py, not by hand.

Protocol on stdout: the line READY once set-up is done (run.py times
process start to this line as setup_s), then, as the last line, one JSON
object with the run's samples and counters.  The package's own output is
captured in memory, so nothing else reaches stdout.

Before each op, outside its timed region, the worker times a fixed
calibration kernel that uses nothing from the package.  On a shared host
the machine's speed can drift by 1.5x within seconds; run.py divides each
op's latency by the kernel times measured around it, which cancels most of
that drift.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, seeded_rng

ROOT = Path(__file__).resolve().parent.parent


def load_package():
    """Import diagquartic and its layer modules from this checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    pkg = importlib.import_module("diagquartic")
    for name in LAYERS:
        importlib.import_module(f"diagquartic.{name}")
    return pkg


def calibration_s() -> float:
    """Time a fixed piece of pure-Python work: small-int arithmetic, a dict,
    and big-int products, about 1 ms on a 2 GHz Xeon."""
    t0 = time.perf_counter()
    table, x = {}, 1
    for i in range(3000):
        x = x * 7 % 65521
        table[x] = i
    acc = sum(v ^ k for k, v in table.items())
    big = 3**2000
    for _ in range(20):
        acc += big * big % 1000003
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run whole cycles, at least one, until at least this long")
    parser.add_argument("--cycles", type=int, default=0,
                        help="run exactly this many cycles instead")
    parser.add_argument("--trace-out", default=None,
                        help="trace the run and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--break-t", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    pkg = load_package()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install(pkg)
        tracer.active = True
    ctxs = workload.setup(pkg)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer:
        tracer.begin_ops()

    if args.break_t:
        workload.break_t = True
    ops, outcomes, latencies, calibrations = [], [], [], []
    inputs = workload.ops(ctxs, seeded_rng(workload.name, args.seed))
    loop_start = time.perf_counter()
    while True:
        done, rest = divmod(len(ops), len(workload.cycle))
        if rest == 0 and done > 0 and (
                done == args.cycles if args.cycles
                else time.perf_counter() - loop_start >= args.seconds):
            break
        if tracer:
            tracer.active = False
        op = next(inputs)
        calibrations.append(calibration_s())
        if tracer:
            tracer.op = len(ops)
            tracer.active = True
        t0 = time.perf_counter()
        try:
            outcome = workload.run(pkg, ctxs, op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            outcome = exc
        latencies.append(time.perf_counter() - t0)
        ops.append(op)
        outcomes.append(outcome)
    loop_wall = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.active = False

    messages = [f"op {i} {op}: raised {out!r}" for i, (op, out) in
                enumerate(zip(ops, outcomes)) if isinstance(out, Exception)]
    verdicts, more = workload.check(pkg, ctxs, ops, outcomes, args.seed)
    messages += more

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "ops": len(ops),
        "failed": verdicts.count(False),
        "latencies_s": latencies,
        "calibrations_s": calibrations,
        "op_wall_s": sum(latencies),
        "loop_wall_s": loop_wall,
        "peak_rss_mb": peak_rss_mb,
        "messages": messages[:20],
    }
    if tracer:
        result["layers"] = tracer.metrics(len(ops))
        tracer.write_spans(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
