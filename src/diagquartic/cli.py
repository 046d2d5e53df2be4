"""Command-line front end.

Subcommands: field, cyclotomic, count, series, verify.
`count` reads N_n(c) or M_n(y) by default as one coefficient of the
generating function, in O(log n) polynomial products; `--method oracle` and
`--all-methods` also work with `--y`, and `--all-methods` reports each
method's seconds.  `series` lists the first n coefficients.  `verify` checks
the counts against one oracle pass per field (M_n(y) by splitting off x_n),
the closed forms, the order-4 recurrence and the relation
M_n(y) = N_{n-1}(0) + (q-1) N_{n-1}(-y); a failing check names its first
failing input in its detail.
Elements cross the boundary as canonical integer encodings; counts are
serialized as decimal strings so JSON consumers never overflow.
Exit codes: 0 pass, 1 verification/agreement failure, 2 usage or input error,
3 internal error (`InvariantError`).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field as dc_field

from . import counting, expsums, genfunc
from .cyclotomy import (
    QuarticDecomposition,
    cyclotomic_number_enum,
    cyclotomic_number_quartic,
    quartic_decomposition,
)
from .errors import (
    DiagQuarticError,
    InvariantError,
    MethodNotApplicableError,
    NonIntegralError,
    QuarticYError,
)
from .field import Field, find_generator

DEFAULT_VERIFY_FIELDS = [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2),
                         (29, 1), (7, 1), (11, 1)]


@dataclass
class RunConfig:
    p: int
    m: int
    generator: int | None = None
    modulus: list[int] | None = None

    def build(self):
        fld = Field(self.p, self.m,
                    modulus=tuple(self.modulus) if self.modulus else None)
        gen = find_generator(fld, override=self.generator)
        dec = quartic_decomposition(fld, gen) if fld.q % 4 == 1 else None
        return fld, gen, dec


@dataclass
class VerifyReport:
    checks: list[dict] = dc_field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "", residual: float = 0.0,
            seconds: float = 0.0):
        self.checks.append({"name": name, "status": "pass" if ok else "FAIL",
                            "detail": detail, "max_residual": residual,
                            "seconds": round(seconds, 3)})

    @property
    def passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _field_payload(fld, gen, dec) -> dict:
    payload = {
        "p": fld.p, "m": fld.m, "q": fld.q,
        "modulus": list(fld.modulus), "g": gen.g.encode(),
    }
    if dec is not None:
        payload.update({"s": dec.s, "t": dec.t,
                        "f_parity": "even" if (fld.q - 1) // 4 % 2 == 0 else "odd"})
    return payload


def cmd_field(args) -> int:
    fld, gen, dec = _config(args).build()
    _emit(_field_payload(fld, gen, dec), args.json)
    return 0


def _cyclotomic_table(fld, gen, dec) -> tuple[list[dict], dict | None]:
    """Closed-form and enumerated (i, j)_4 for every i, j, and the first entry
    where they differ (None if none does)."""
    f_even = (fld.q - 1) // 4 % 2 == 0
    entries = []
    first_failure = None
    for i in range(4):
        for j in range(4):
            enum = cyclotomic_number_enum(i, j, 4, fld, gen)
            detail = ""
            try:
                closed = cyclotomic_number_quartic(i, j, dec, fld.q, f_even)
            except NonIntegralError as exc:  # an inconsistent (s, t), not bad input
                closed, detail = None, f"{type(exc).__name__}: {exc}"
            entries.append({"i": i, "j": j, "closed": closed, "enumerated": enum})
            if closed != enum and first_failure is None:
                first_failure = {"i": i, "j": j, "s": dec.s, "t": dec.t, "closed": closed,
                                 "enumerated": enum, "detail": detail}
    return entries, first_failure


def cmd_cyclotomic(args) -> int:
    fld, gen, dec = _config(args).build()
    if dec is None:
        print("cyclotomic table of order 4 requires q = 1 mod 4", file=sys.stderr)
        return 2
    if args.break_t:
        dec = QuarticDecomposition(s=dec.s, t=dec.t + 1)
    entries, first_failure = _cyclotomic_table(fld, gen, dec)
    payload = {"q": fld.q, "g": gen.g.encode(), "s": dec.s, "t": dec.t,
               "f_parity": _field_payload(fld, gen, dec)["f_parity"], "entries": entries}
    if first_failure is not None:
        payload["first_failure"] = first_failure
    print(json.dumps(payload, indent=2) if args.json else json.dumps(payload))
    return 0 if first_failure is None else 1


def _count_one(method: str, fld, gen, dec, c, y, n: int) -> int:
    if y is not None:
        if method == "series":
            return counting.count_M(y, n, fld, gen, dec)
        if method != "oracle":
            raise MethodNotApplicableError(
                f"method {method} covers N_n(c) only; M_n(y) has oracle and series")
        # the oracle counts any form; hold it to the domain of M_n(y) as count_M does
        if n < 2:
            raise ValueError("n must be at least 2")
        if genfunc.is_quartic(y, gen):
            raise QuarticYError(f"y = {y!r} is zero or a fourth power")
        return counting.oracle_histogram(fld, [fld.one()] * (n - 1) + [y], 4)[0]
    if method == "oracle":
        return counting.oracle_count([fld.one()] * n, c, 4)
    if method == "closed":
        return counting.count_small(c, n, dec, fld, gen)
    if method == "cyclotomy":
        return counting.count_via_cyclotomy(c, n, fld, gen)
    if method == "expsum":
        table = expsums.build_table(fld, gen)
        return expsums.reconstruct_N(n, c, table, fld)
    return counting.count_N(c, n, fld, gen, dec)


def _applicable_methods(fld, c, n: int) -> list[str]:
    methods = ["oracle", "series"]
    if c is None:  # M_n(y)
        return methods
    if fld.q % 4 == 1 and not c.is_zero() and 1 <= n <= 4:
        methods += ["closed", "cyclotomy"]
    if fld.q % 4 == 1 and not c.is_zero() and n <= expsums.RECONSTRUCT_MAX_N:
        methods.append("expsum")
    return methods


def cmd_count(args) -> int:
    fld, gen, dec = _config(args).build()
    c = fld.from_int(args.c) if args.c is not None else None
    y = fld.from_int(args.y) if args.y is not None else None
    payload = {"q": fld.q, "n": args.n}
    payload["c" if y is None else "y"] = args.c if y is None else args.y
    if args.all_methods:
        values, seconds = {}, {}
        for method in _applicable_methods(fld, c, args.n):
            t0 = time.perf_counter()
            values[method] = str(_count_one(method, fld, gen, dec, c, y, args.n))
            seconds[method] = round(time.perf_counter() - t0, 6)
        payload["methods"] = values
        payload["seconds"] = seconds
        counts = set(values.values())
        payload["agree"] = len(counts) == 1
        payload["count"] = counts.pop() if len(counts) == 1 else None
        _emit(payload, args.json)
        return 0 if payload["agree"] else 1
    method = args.method or "series"
    payload["method"] = method
    payload["count"] = str(_count_one(method, fld, gen, dec, c, y, args.n))
    _emit(payload, args.json)
    return 0


def cmd_series(args) -> int:
    fld, gen, dec = _config(args).build()
    if args.y is not None:
        gf = genfunc.gf_M(fld, gen, dec, fld.from_int(args.y))
        label = {"y": args.y}
    else:
        gf = genfunc.gf_N(fld, gen, dec, fld.from_int(args.c or 0))
        label = {"c": args.c or 0}
    coeffs = gf.series(args.n)
    payload = {"q": fld.q, **label,
               "parts": [{"num": list(p.num), "den": list(p.den)} for p in gf.parts],
               "coefficients": [str(c) for c in coeffs]}
    print(json.dumps(payload, indent=2) if args.json else json.dumps(payload))
    return 0


def _first_oracle_mismatch(fld, gen, dec, hists: list[list[int]]) -> dict | None:
    """The first (c, n) where the coefficient of `gf_N` differs from the oracle;
    one generating function per c."""
    for code in range(fld.q):
        gf = genfunc.gf_N(fld, gen, dec, fld.from_int(code))
        for n, hist in enumerate(hists, start=1):
            value = gf.coefficient(n)
            if value != hist[code]:
                return {"c": code, "n": n, "series": str(value), "oracle": str(hist[code])}
    return None


def _verify_field(fld, gen, dec, nmax: int, rng: random.Random,
                  report: VerifyReport, with_expsums: bool) -> None:
    q = fld.q
    tag = f"q={q}"
    t0 = time.monotonic()

    hists = list(counting.oracle_histograms(fld, [fld.one()] * nmax, 4))
    failure = _first_oracle_mismatch(fld, gen, dec, hists)
    report.add(f"{tag} oracle-equivalence n<={nmax}", failure is None,
               detail=json.dumps(failure) if failure else "", seconds=time.monotonic() - t0)

    if dec is not None:
        t0 = time.monotonic()
        _, failure = _cyclotomic_table(fld, gen, dec)
        report.add(f"{tag} cyclotomic closed=enum", failure is None,
                   detail=json.dumps(failure) if failure else "", seconds=time.monotonic() - t0)

        t0 = time.monotonic()
        nsmall = min(4, nmax)
        ok = all(counting.count_small(fld.from_int(code), n, dec, fld, gen)
                 == hists[n - 1][code] for code in range(1, q) for n in range(1, nsmall + 1))
        report.add(f"{tag} closed-form n<={nsmall}", ok, seconds=time.monotonic() - t0)

        t0 = time.monotonic()
        ok = all(r == 0 for code in range(1, q) for r in genfunc.recurrence_check(
            fld, gen, dec, fld.from_int(code), max(nmax, 5)))
        report.add(f"{tag} recurrence order 4", ok, seconds=time.monotonic() - t0)

        if with_expsums:
            t0 = time.monotonic()
            table = expsums.build_table(fld, gen)
            residuals = expsums.verify_gauss_sum_roots(table, dec, q)
            sample = rng.sample(range(1, q), min(5, q - 1))
            ok = all(expsums.reconstruct_N(n, fld.from_int(code), table, fld)
                     == hists[n - 1][code]
                     for code in sample for n in range(1, min(nmax, 6) + 1))
            report.add(f"{tag} exponential sums", ok,
                       residual=max(residuals), seconds=time.monotonic() - t0)

    t0 = time.monotonic()
    ok = True
    n0 = counting.count_N(fld.zero(), nmax - 1, fld, gen, dec)
    for code in range(1, q):
        y = fld.from_int(code)
        if genfunc.is_quartic(y, gen):
            continue
        # split off x_n: sum N_{n-1}(-y x_n^4) over x_n, grouped by u = x_n^4
        neg_y = -y
        twisted = sum(cnt * hists[nmax - 2][(neg_y * fld.from_int(u)).encode()]
                      for u, cnt in enumerate(hists[0]) if cnt)
        # x_n = 0 gives N_{n-1}(0); each nonzero x_n gives N_{n-1}(-y x_n^4) = N_{n-1}(-y)
        relation = n0 + (q - 1) * counting.count_N(neg_y, nmax - 1, fld, gen, dec)
        ok = ok and counting.count_M(y, nmax, fld, gen, dec) == twisted == relation
    report.add(f"{tag} twisted counts", ok, seconds=time.monotonic() - t0)


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    report = VerifyReport()
    fields = [(args.p, args.m)] if args.p else DEFAULT_VERIFY_FIELDS
    for p, m in fields:
        cfg = RunConfig(p=p, m=m, generator=args.generator if args.p else None,
                        modulus=args.modulus if args.p else None)
        fld, gen, dec = cfg.build()
        if args.break_t and dec is not None:
            dec = QuarticDecomposition(s=dec.s, t=dec.t + 1)
        try:
            _verify_field(fld, gen, dec, args.nmax, rng, report,
                          with_expsums=args.expsums)
        except InvariantError:
            raise
        except DiagQuarticError as exc:
            report.add(f"q={fld.q} aborted", False, detail=f"{type(exc).__name__}: {exc}")
    payload = {"status": "pass" if report.passed else "FAIL",
               "checks": report.checks}
    print(json.dumps(payload, indent=2) if args.json else json.dumps(payload))
    return 0 if report.passed else 1


def _config(args) -> RunConfig:
    return RunConfig(p=args.p, m=args.m, generator=args.generator,
                     modulus=args.modulus)


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _add_common(sub, require_field: bool = True):
    sub.add_argument("--p", type=int, required=require_field,
                     help="field characteristic (odd prime)")
    sub.add_argument("--m", type=int, default=1, help="extension degree")
    sub.add_argument("--generator", type=int, default=None,
                     help="override generator, by canonical encoding")
    sub.add_argument("--modulus", type=lambda s: [int(x) for x in s.split(",")],
                     default=None, help="override modulus, comma-separated, constant first")
    sub.add_argument("--json", action="store_true", help="pretty JSON output")
    sub.add_argument("--seed", type=int, default=0, help="seed for sampled checks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagquartic",
        description="Count zeros of diagonal quartic forms over finite fields")
    subs = parser.add_subparsers(dest="command", required=True)

    p_field = subs.add_parser("field", help="field, generator and (s, t) summary")
    _add_common(p_field)
    p_field.set_defaults(func=cmd_field)

    p_cyc = subs.add_parser("cyclotomic", help="order-4 cyclotomic number table")
    _add_common(p_cyc)
    p_cyc.add_argument("--break-t", action="store_true", help=argparse.SUPPRESS)
    p_cyc.set_defaults(func=cmd_cyclotomic)

    p_count = subs.add_parser("count", help="count zeros of the diagonal form")
    _add_common(p_count)
    rhs = p_count.add_mutually_exclusive_group(required=True)
    rhs.add_argument("--c", type=int, default=None, help="right-hand side encoding")
    rhs.add_argument("--y", type=int, default=None, help="twist coefficient encoding")
    p_count.add_argument("--n", type=_int_at_least(1), required=True,
                         help="number of variables")
    p_count.add_argument("--method", choices=["oracle", "closed", "cyclotomy",
                                              "expsum", "series"], default=None)
    p_count.add_argument("--all-methods", action="store_true",
                         help="run every applicable method and compare")
    p_count.set_defaults(func=cmd_count)

    p_series = subs.add_parser("series", help="generating function and coefficients")
    _add_common(p_series)
    rhs = p_series.add_mutually_exclusive_group()
    rhs.add_argument("--c", type=int, default=None,
                     help="right-hand side encoding (default 0)")
    rhs.add_argument("--y", type=int, default=None, help="twist coefficient encoding")
    p_series.add_argument("--n", type=_int_at_least(1), default=8,
                          help="number of coefficients")
    p_series.set_defaults(func=cmd_series)

    p_verify = subs.add_parser("verify", help="run the cross-validation suite")
    _add_common(p_verify, require_field=False)
    p_verify.add_argument("--nmax", type=_int_at_least(2), default=8,
                          help="largest n checked; the twisted counts need n >= 2")
    p_verify.add_argument("--expsums", action="store_true",
                          help="include exponential-sum checks")
    p_verify.add_argument("--break-t", action="store_true", help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (DiagQuarticError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
