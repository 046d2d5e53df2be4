"""Counting off the generating function never loads numpy or fractions.

Importing the package and every count that reads only the generating function,
by the series or, past genfunc.SERIES_BELOW, by Fiduccia's method in integers,
leaves numpy and fractions unloaded; the whole-field tables (the oracle, the log,
trace and addition tables, the cyclotomic classes, the Gauss periods) load numpy
on first use.  Each check runs in a fresh interpreter, as a CLI call or a
benchmark worker starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import diagquartic

SRC = Path(diagquartic.__file__).resolve().parents[1]

# Imports the package and the six modules the benchmark worker loads, runs the
# series-only work on F_13, 3^4 and 7^7, with counts at n = 1000 past SERIES_BELOW
# (Fiduccia's method on F_13 and 3^4, one power on 7^7), then `count --all-methods`,
# and prints whether numpy and fractions were loaded after each part.
SCRIPT = """
import contextlib, io, json, sys
import diagquartic
from diagquartic import cli, counting, cyclotomy, expsums, field, genfunc
from diagquartic.errors import WrongResidueClassError

codes = []
for p, m in [(13, 1), (3, 4), (7, 7)]:
    fld = field.Field(p, m)
    gen = field.find_generator(fld)
    try:
        dec = cyclotomy.quartic_decomposition(fld, gen)
    except WrongResidueClassError:  # q = 3 mod 4
        dec = None
    c = fld.from_int(3)
    field.quartic_class(c, gen)
    counting.count_N(c, 12, fld, gen, dec)
    counting.count_M(gen.g, 5, fld, gen, dec)
    assert genfunc.SERIES_BELOW < 1000
    for n in (1000, 1001):
        counting.count_N(c, n, fld, gen, dec)
        counting.count_M(gen.g, n, fld, gen, dec)
    genfunc.gf_N(fld, gen, dec, c).series(20)
    fq = ["--p", str(p), "--m", str(m)]
    with contextlib.redirect_stdout(io.StringIO()):
        codes += [cli.main(["field", *fq]), cli.main(["series", *fq, "--n", "20"]),
                  cli.main(["count", *fq, "--c", "3", "--n", "12"]),
                  cli.main(["count", *fq, "--y", str(gen.g.encode()), "--n", "5"]),
                  cli.main(["count", *fq, "--c", "3", "--n", "1000"])]
counting_loads = {name: name in sys.modules for name in ("numpy", "fractions")}
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["count", "--p", "13", "--c", "3", "--n", "4", "--all-methods"]))
print(json.dumps({"codes": codes, "counting": counting_loads,
                  "all_methods": "numpy" in sys.modules}))
"""


def test_counting_never_loads_numpy_and_the_oracle_does():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * 16
    assert result["counting"] == {"numpy": False, "fractions": False}
    assert result["all_methods"] is True
