"""Repeat run.py over seeds and summarise each metric's median and spread.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 25 [--workload W ...]
        [--trace-seed 0] [--write perfbench/baseline.json]

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles, n=4) as a share of their median: the
figure a metric's bound in BENCHMARK.json has to cover.  With --write, the
summary, the machine it ran on, one traced run per workload and the
expected effect of each per-layer metric (tracer.MOVES) are saved as the
baseline for later changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES, machine_info  # noqa: E402
from tracer import MOVES  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per workload with this seed")
    parser.add_argument("--write", default=None, help="save the summary as JSON here")
    args = parser.parse_args(argv)

    report = {"machine": machine_info(), "seeds": args.seeds,
              "seconds": args.seconds, "workloads": {}}
    for workload in args.workload or WORKLOAD_NAMES:
        results = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"summary": summarise(results),
                 "attempted": [r["attempted"] for r in results],
                 "failed": sum(r["failed"] for r in results)}
        print(f"{workload}: ops per run {entry['attempted']}, failed {entry['failed']}")
        for name, s in entry["summary"].items():
            print(f"  {name:<20} median {s['median']:.6g} {s['unit']:<4} "
                  f"spread {s['spread']:.3f}")
        if args.trace_seed is not None:
            entry["traced"] = {name: m["value"] for name, m in run_once(
                workload, args.trace_seed, args.seconds, 1)["metrics"].items()}
        report["workloads"][workload] = entry
    if args.write:
        report["moves"] = MOVES
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
