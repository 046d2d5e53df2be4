"""Write pins.json: the answers to the first ops of seed 0.

    python3 perfbench/make_pins.py

The answers come from the package source in this checkout, so run it only
on a commit whose counts are trusted.  Every later seed-0 run must
reproduce them.
"""

from __future__ import annotations

import json

from worker import load_package
from workloads import PIN_SEED, PINS_PATH, WORKLOADS, seeded_rng

PIN_OPS = {"largeq-queries": 64, "largen-series": 24}


def main() -> None:
    pkg = load_package()
    pins = {}
    for name, count in PIN_OPS.items():
        workload = WORKLOADS[name]
        ctxs = workload.setup(pkg)
        inputs = workload.ops(ctxs, seeded_rng(name, PIN_SEED))
        rows = []
        for _ in range(count):
            op = next(inputs)
            rows.append(op.key(workload.fields) + [workload.run(pkg, ctxs, op)])
        pins[name] = rows
    with open(PINS_PATH, "w") as fh:  # one op per line: [q, kind, code, n, answer mod 2^127-1]
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
            for name, rows in pins.items()) + "\n}\n")


if __name__ == "__main__":
    main()
