"""The three benchmark workloads: inputs from a seed, the op, and its checks.

Every workload is a closed loop with one client: the worker starts the next
op only after the previous one returned.  Ops come in cycles: each cycle
holds a fixed multiset of op shapes (field, kind, size) in a seeded order,
and the seed also picks each op's c, y and exact n.  Runs end on a cycle
boundary, so every seed measures the same mix of work.

Answers are checked outside the timed region, with checks that hold for any
seed (see `QueryWorkload.check`), plus pinned answers for seed 0.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Answers are compared by their residue modulo this Mersenne prime, so the
# checker holds no 10^4-term integers while the op loop runs.
FINGERPRINT_MOD = 2**127 - 1
PINS_PATH = Path(__file__).with_name("pins.json")
PIN_SEED = 0


def fingerprint(value: int) -> int:
    return value % FINGERPRINT_MOD


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


@dataclass(frozen=True)
class QueryOp:
    field: int   # index into the workload's field list
    kind: str    # "N": count_N(c, n); "M": count_M(y, n)
    code: int    # canonical encoding of c or y
    n: int

    def key(self, fields) -> list:
        p, m = fields[self.field]
        return [p**m, self.kind, self.code, self.n]


class FieldCtx:
    """One field with its generator, (s, t) and the Euler-criterion classes."""

    def __init__(self, pkg, p: int, m: int):
        self.fld = pkg.field.Field(p, m)
        self.gen = pkg.field.find_generator(self.fld)
        q = self.fld.q
        self.dec = (pkg.cyclotomy.quartic_decomposition(self.fld, self.gen)
                    if q % 4 == 1 else None)
        # x -> x^4 has the image of x -> x^2 when q = 3 mod 4
        self.k = 4 if q % 4 == 1 else 2

    @functools.cached_property
    def _zeta(self):
        return self.gen.g ** ((self.fld.q - 1) // self.k)

    def class_of(self, x) -> int:
        """i with x in g^i (F_q^*)^k, from x^((q-1)/k) alone: no discrete log."""
        power = x ** ((self.fld.q - 1) // self.k)
        acc = self.fld.one()
        for i in range(self.k):
            if power == acc:
                return i
            acc = acc * self._zeta
        raise ValueError(f"{x!r} is zero")


class Workload:
    """A cycle of op shapes, each repeated by its count, and the seeded op stream."""

    def __init__(self, name: str, fields: list[tuple[int, int]],
                 shapes: dict[tuple, int], trace_cycles: int):
        self.name = name
        self.fields = fields
        self.cycle = [shape for shape, count in shapes.items() for _ in range(count)]
        self.trace_cycles = trace_cycles

    def setup(self, pkg) -> list[FieldCtx]:
        return [FieldCtx(pkg, p, m) for p, m in self.fields]

    def ops(self, ctxs: list[FieldCtx], rng: random.Random):
        """Yield ops forever, one shuffled cycle at a time."""
        cycle = list(self.cycle)
        while True:
            rng.shuffle(cycle)
            for shape in cycle:
                yield self.make_op(ctxs, shape, rng)


class QueryWorkload(Workload):
    """Single count_N / count_M calls, answers checked after the loop.

    A shape is (field index, kind, lo, hi): n is drawn from [lo, hi].
    """

    def make_op(self, ctxs: list[FieldCtx], shape: tuple, rng: random.Random) -> QueryOp:
        fi, kind, lo, hi = shape
        ctx = ctxs[fi]
        n = rng.randint(lo, hi)
        if kind == "N":
            code = rng.randrange(1, ctx.fld.q)
        else:
            # g^j * x^k with 0 < j < k is never a k-th power
            x = ctx.fld.from_int(rng.randrange(1, ctx.fld.q))
            y = ctx.gen.g ** rng.randrange(1, ctx.k) * x ** ctx.k
            code = y.encode()
        return QueryOp(fi, kind, code, n)

    def run(self, pkg, ctxs: list[FieldCtx], op: QueryOp) -> int:
        ctx = ctxs[op.field]
        arg = ctx.fld.from_int(op.code)
        if op.kind == "N":
            value = pkg.counting.count_N(arg, op.n, ctx.fld, ctx.gen, ctx.dec)
        else:
            value = pkg.counting.count_M(arg, op.n, ctx.fld, ctx.gen, ctx.dec)
        return fingerprint(value)

    def check(self, pkg, ctxs: list[FieldCtx], ops: list[QueryOp],
              outcomes: list, seed: int) -> tuple[list[bool], list[str]]:
        """Per-op verdicts plus messages for failed checks; raising ops fail.

        The reference for each field is N_n at 0 and at one representative
        g^i of each class, from the generating function's series.  It must
        satisfy, at every n used:
          * the mass identity N_n(0) + f * sum_i N_n(g^i) = q^n, f = (q-1)/k;
          * N_1(g^0) = gcd(4, q-1), N_1(g^i) = 0 otherwise, N_1(0) = 1;
          * for q = 1 mod 4 and n <= 4, the closed forms of count_small.
        An op then passes when N_n(c) equals N_n of c's class representative
        (class from Euler's criterion), or, for M_n(y), when it equals the
        relation N_{n-1}(0) + (q-1) * N_{n-1}(-y).  Seed 0 also matches the
        answers pinned from the initial implementation.
        """
        messages: list[str] = []
        needed: dict[int, set[int]] = {}
        for op in ops:
            needed.setdefault(op.field, set()).add(op.n if op.kind == "N" else op.n - 1)
        refs, ref_ok = {}, {}
        for fi, ns in needed.items():
            refs[fi], ref_ok[fi] = self._reference(pkg, ctxs[fi], ns, messages)
        pins = self._pins() if seed == PIN_SEED else []
        verdicts = []
        for i, (op, outcome) in enumerate(zip(ops, outcomes)):
            answer = None if isinstance(outcome, Exception) else outcome
            ctx, ref = ctxs[op.field], refs[op.field]
            arg = ctx.fld.from_int(op.code)
            if op.kind == "N":
                expect = ref[1 + ctx.class_of(arg), op.n]
            else:
                expect = fingerprint(ref[0, op.n - 1] + (ctx.fld.q - 1)
                                     * ref[1 + ctx.class_of(-arg), op.n - 1])
            ok = ref_ok[op.field] and answer == expect
            if i < len(pins) and pins[i] != op.key(self.fields) + [answer]:
                ok = False
                messages.append(f"op {i} {op.key(self.fields)}: differs from pins.json")
            elif not ok and answer is not None:
                messages.append(f"op {i} {op.key(self.fields)}: wrong count")
            verdicts.append(ok)
        return verdicts, messages

    @staticmethod
    def _reference(pkg, ctx: FieldCtx, ns: set[int], messages: list[str]):
        fld, gen, dec, k = ctx.fld, ctx.gen, ctx.dec, ctx.k
        q = fld.q
        small = set(range(1, 5)) if q % 4 == 1 else {1}
        ns = ns | small
        reps = [fld.zero()] + [gen.g ** i for i in range(k)]
        exact = {}
        for r, rep in enumerate(reps):
            coeffs = pkg.genfunc.gf_N(fld, gen, dec, rep).series(max(ns))
            for n in ns:
                exact[r, n] = coeffs[n - 1]
            del coeffs
        ok = True
        f = (q - 1) // k
        for n in sorted(ns):
            if exact[0, n] + f * sum(exact[r, n] for r in range(1, k + 1)) != q**n:
                ok = False
                messages.append(f"q={q}: mass identity fails at n={n}")
        if [exact[r, 1] for r in range(k + 1)] != [1, math.gcd(4, q - 1)] + [0] * (k - 1):
            ok = False
            messages.append(f"q={q}: N_1 differs from the fourth-power count")
        if q % 4 == 1:
            for r in range(1, k + 1):
                for n in range(1, 5):
                    if pkg.counting.count_small(reps[r], n, dec, fld, gen) != exact[r, n]:
                        ok = False
                        messages.append(f"q={q}: count_small differs at class {r - 1}, n={n}")
        return {key: fingerprint(v) for key, v in exact.items()}, ok

    def _pins(self) -> list[list]:
        with open(PINS_PATH) as fh:
            return json.load(fh).get(self.name, [])


class SessionWorkload(Workload):
    """In-process `cli.main` calls; module caches persist across calls.

    A shape is ("verify", (p, m), None) or ("count", (p, m), n).
    """

    break_t = False

    def make_op(self, ctxs, shape: tuple, rng: random.Random) -> tuple[str, ...]:
        kind, (p, m), n = shape
        argv = [kind, "--p", str(p), "--m", str(m)]
        if kind == "verify":
            argv += ["--expsums", "--json"] + (["--break-t"] if self.break_t else [])
        else:
            argv += ["--c", str(rng.randrange(1, p**m)), "--n", str(n),
                     "--all-methods", "--json"]
        return tuple(argv)

    def run(self, pkg, ctxs, argv: tuple[str, ...]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pkg.cli.main(list(argv))
        return rc, out.getvalue()

    def check(self, pkg, ctxs, ops: list[tuple[str, ...]], outcomes: list,
              seed: int) -> tuple[list[bool], list[str]]:
        """An op passes on exit code 0 with "status": "pass" (verify) or
        "agree": true (count) in its JSON; raising ops fail."""
        verdicts, messages = [], []
        for i, (argv, outcome) in enumerate(zip(ops, outcomes)):
            if isinstance(outcome, Exception):
                verdicts.append(False)
                continue
            rc, out = outcome
            try:
                payload = json.loads(out) if rc == 0 else {}
            except json.JSONDecodeError:
                payload = {}
            ok = (payload.get("status") == "pass" if argv[0] == "verify"
                  else payload.get("agree") is True)
            if not ok:
                messages.append(f"op {i} {' '.join(argv)}: exit {rc}")
            verdicts.append(ok)
        return verdicts, messages


# Above the 2^16 index-table threshold each query pays BSGS discrete logs;
# 65521 sits just below it and puts its index-table build into set-up, and
# 1021^2 puts a slow generator search there.  7^7 is the q = 3 mod 4 branch.
LARGEQ_FIELDS = [(65521, 1), (65537, 1), (1048573, 1), (5, 8), (3, 12),
                 (1021, 2), (29, 4), (7, 7)]
# n levels spaced by about 10^(1/3), each up to 2% below the level; a level's
# share of ops falls as 1/n, so short series are common and the n = 10^4 ones
# set the tail and peak memory.
LARGEN_FIELDS = [(13, 1), (7, 2), (65521, 1)]
LARGEN_LEVELS = {1000: 4, 2154: 2, 4642: 1, 10000: 1}
VERIFY_FIELDS = [(37, 1), (41, 1), (43, 1), (53, 1), (61, 1), (73, 1),
                 (7, 2), (3, 4), (11, 2)]
COUNT_FIELDS = [(13, 1), (17, 1), (29, 1), (37, 1), (41, 1), (11, 1), (43, 1),
                (3, 2), (5, 2), (7, 2)]

WORKLOADS = {
    "largeq-queries": QueryWorkload(
        "largeq-queries", LARGEQ_FIELDS,
        {(fi, kind, 1 if kind == "N" else 2, 16): 2
         for fi in range(len(LARGEQ_FIELDS)) for kind in "NM"},
        trace_cycles=8),
    "largen-series": QueryWorkload(
        "largen-series", LARGEN_FIELDS,
        {(fi, kind, level - level // 50, level): count
         for fi in range(len(LARGEN_FIELDS)) for kind in "NM"
         for level, count in LARGEN_LEVELS.items()},
        trace_cycles=1),
    "crosscheck-session": SessionWorkload(
        "crosscheck-session", sorted(set(VERIFY_FIELDS) | set(COUNT_FIELDS)),
        {**{("verify", pm, None): 1 for pm in VERIFY_FIELDS},
         **{("count", pm, n): 2 for pm in COUNT_FIELDS for n in (2, 3, 4)}},
        trace_cycles=1),
}
