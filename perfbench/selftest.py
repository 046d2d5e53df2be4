"""Self-test of the benchmark at minimal size (one cycle per run).

    python3 perfbench/selftest.py

Checks that every workload runs and reports exactly the end-to-end metrics
BENCHMARK.json declares, with their units and no failed op; that a traced
run reports exactly the declared per-layer metrics;
that the hidden --break-t fault on crosscheck-session is caught
(fail_ratio > 0, exit code 1); and that run.py, copied without the package
source, exits non-zero without printing a result.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR, ROOT, WORKLOAD_NAMES  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "0",
                           "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    if [w["name"] for w in declared["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOAD_NAMES:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            rc, result = bench("--workload", workload, "--trace", str(trace))
            tag = f"{workload} --trace {trace}"
            if rc != 0 or result is None:
                problems.append(f"{tag}: exit {rc}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']}/{result['attempted']} ops failed")
            print(f"{tag}: {result['attempted']} ops, {result['failed']} failed")

    rc, result = bench("--workload", "crosscheck-session", "--trace", "0", "--break-t")
    if rc != 1 or result is None or result["failed"] == 0:
        problems.append(f"--break-t: exit {rc}, fault not reported")
    else:
        print(f"--break-t caught: fail_ratio {result['failed'] / result['attempted']:.3f}")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = bench("--workload", "largeq-queries", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if rc == 0 or result is not None:
        problems.append(f"without the package source: exit {rc}, result {result}")
    else:
        print(f"without the package source: exit {rc}, no result")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
