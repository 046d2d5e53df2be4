"""The benchmark worker runs one cycle of each workload, and every op passes.

The worker checks each op's answer against its reference and the pinned counts,
and binds the package's names by getattr in its traced mode, so a package change
that breaks either fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_traced_crosscheck_cycle_passes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "crosscheck-session", "--seed", "0",
         "--cycles", "1", "--trace-out", str(tmp_path / "spans.jsonl.gz")],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["ops"] > 0
    assert (result["failed"], result["messages"]) == (0, [])


@pytest.mark.parametrize("workload", ["largeq-queries", "largen-series"])
def test_untraced_cycle_passes(workload):
    # counts on 3^12, 7^7, 1021^2 and up to n = 10^4, held to the pins
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "0", "--cycles", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["ops"] > 0
    assert (result["failed"], result["messages"]) == (0, [])
