"""Command-line front end.

Subcommands: field, cyclotomic, count, series, verify.
`count` reads N_n(c) or M_n(y) by default as one coefficient of the
generating function, in O(log n) polynomial products; `--method oracle` and
`--all-methods` also work with `--y`, and `--all-methods` reports each
method's seconds.  `series` lists the first n coefficients.  `verify` checks
the counts against one oracle pass per field (M_n(y) by splitting off x_n),
the closed forms, the order-4 recurrence on the oracle's counts and the
relation M_n(y) = N_{n-1}(0) + (q-1) N_{n-1}(-y).  Each check is a stream of
rows, its inputs and each method's value there, and one runner times it and
files the first row where the values differ, as JSON, in its detail; with
the `fields` it lists (p, m, q, modulus, g, s, t), that row reproduces.
Elements cross the boundary as canonical integer encodings; counts are
serialized as decimal strings so JSON consumers never overflow; counts that may
pass MAX_COUNT_DIGITS digits, or a series MAX_SERIES_DIGITS, are refused up front.
Exit codes: 0 pass, 1 verification/agreement failure, 2 usage or input error,
3 internal error (`InvariantError`).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import dataclass

from . import counting, expsums, genfunc
from .cyclotomy import (
    QuarticDecomposition,
    cyclotomic_matrix,
    cyclotomic_number_quartic,
    quartic_decomposition,
)
from .errors import (
    DiagQuarticError,
    InvariantError,
    MethodNotApplicableError,
    NonIntegralError,
    NotNearIntegerError,
    QuarticYError,
    ResidualTooLargeError,
    TooLargeError,
    WrongResidueClassError,
)
from .field import Field, find_generator

DEFAULT_VERIFY_FIELDS = [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2),
                         (29, 1), (7, 1), (11, 1)]
# Bound on the digits of a count below q^n, in place of the interpreter's int-to-str
# limit: decimal conversion is quadratic (48,164 digits 0.04 s, 1,113,944 23 s).
MAX_COUNT_DIGITS = 100_000
# Bound on the digits of n counts, about n^2 log10(q) / 2: 17.1 M at q = 5, n = 7,000.
MAX_SERIES_DIGITS = 20_000_000


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
                        "f_parity": "even" if fld.q % 8 == 1 else "odd"})
    return payload


def cmd_field(args) -> int:
    fld, gen, dec = _config(args).build()
    _emit(_field_payload(fld, gen, dec), args.json)
    return 0


def _cyclotomic_rows(fld, gen, dec):
    """Closed-form and enumerated (i, j)_4 for every i, j, with the (s, t) used;
    a closed form that is not an integer is None, with the error in `detail`."""
    enum = cyclotomic_matrix(4, fld, gen).tolist()
    for i in range(4):
        for j in range(4):
            row = {"i": i, "j": j, "s": dec.s, "t": dec.t, "closed": None,
                   "enumerated": enum[i][j], "detail": ""}
            try:
                row["closed"] = cyclotomic_number_quartic(i, j, dec, fld.q)
            except NonIntegralError as exc:  # an inconsistent (s, t), not bad input
                row["detail"] = f"{type(exc).__name__}: {exc}"
            yield row


def cmd_cyclotomic(args) -> int:
    fld, gen, dec = _config(args).build()
    if dec is None:
        raise WrongResidueClassError(f"q = {fld.q} is not 1 mod 4")
    if args.break_t:
        dec = QuarticDecomposition(s=dec.s, t=dec.t + 1)
    rows = list(_cyclotomic_rows(fld, gen, dec))
    entries = [{key: row[key] for key in ("i", "j", "closed", "enumerated")} for row in rows]
    first_failure = next((row for row in rows if row["closed"] != row["enumerated"]), None)
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
        return counting.oracle_histogram(fld, [fld.one()] * (n - 1) + [y])[0]
    if method == "oracle":
        return counting.oracle_count([fld.one()] * n, c)
    if method == "closed":
        return counting.count_small(c, n, dec, fld, gen)
    if method == "cyclotomy":
        return counting.count_via_cyclotomy(c, n, fld, gen)
    if method == "expsum":
        table = expsums.build_table(fld, gen)
        return expsums.reconstruct_N(n, c, table)
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


def _check_digits(q: int, n: int) -> None:
    if n * math.log10(q) > MAX_COUNT_DIGITS:
        raise TooLargeError(f"counts below {q}^{n} may pass {MAX_COUNT_DIGITS} digits")


def cmd_count(args) -> int:
    fld, gen, dec = _config(args).build()
    _check_digits(fld.q, args.n)
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
    _check_digits(fld.q, args.n)
    if args.n * (args.n + 1) // 2 * math.log10(fld.q) > MAX_SERIES_DIGITS:
        raise TooLargeError(f"{args.n} counts may pass {MAX_SERIES_DIGITS} digits together")
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


def _run_check(checks: list[dict], name: str, methods: tuple[str, ...], rows) -> None:
    """Time one check, a lazy stream of rows that each hold the check's inputs
    and each method's int value there (and may carry the check's `max_residual`);
    file the first row where the values differ, its values as decimal strings,
    or the error of a closed form or a floating-point route, as its detail."""
    t0 = time.monotonic()
    detail, residual = "", 0.0
    try:
        for row in rows:
            residual = max(residual, row.get("max_residual", 0.0))
            if len({row[m] for m in methods}) > 1:
                detail = json.dumps({key: str(value) if key in methods and value is not None
                                     else value for key, value in row.items()})
                break
    except (NonIntegralError, NotNearIntegerError, ResidualTooLargeError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
    checks.append({"name": name, "status": "FAIL" if detail else "pass", "detail": detail,
                   "max_residual": residual, "seconds": round(time.monotonic() - t0, 3)})


def _expsum_rows(fld, gen, dec, hists: list[list[int]], codes: list[int]):
    """N_n(c), n <= 6, from the Gauss sums, each row with their largest residual
    as roots of `denominator`."""
    table = expsums.build_table(fld, gen)
    residual = max(expsums.verify_gauss_sum_roots(table, dec))
    for code in codes:
        for n in range(1, min(len(hists), 6) + 1):
            yield {"c": code, "n": n,
                   "expsum": expsums.reconstruct_N(n, fld.from_int(code), table),
                   "oracle": hists[n - 1][code], "max_residual": residual}


def _twisted_rows(fld, gen, dec, hists: list[list[int]]):
    """M_n(y) for non-quartic y from `gf_M`, the oracle by splitting off x_n,
    and the relation M_n(y) = N_(n-1)(0) + (q-1) N_(n-1)(-y)."""
    q, n = fld.q, len(hists)
    n0 = counting.count_N(fld.zero(), n - 1, fld, gen, dec)
    for code in range(1, q):
        y = fld.from_int(code)
        if genfunc.is_quartic(y, gen):
            continue
        # split off x_n: sum N_{n-1}(-y x_n^4) over x_n, grouped by u = x_n^4
        neg_y = -y
        twisted = sum(cnt * hists[n - 2][(neg_y * fld.from_int(u)).encode()]
                      for u, cnt in enumerate(hists[0]) if cnt)
        # x_n = 0 gives N_{n-1}(0); each nonzero x_n gives N_{n-1}(-y x_n^4) = N_{n-1}(-y)
        relation = n0 + (q - 1) * counting.count_N(neg_y, n - 1, fld, gen, dec)
        yield {"y": code, "n": n, "series": counting.count_M(y, n, fld, gen, dec),
               "oracle": twisted, "relation": relation}


def _verify_field(fld, gen, dec, nmax: int, rng: random.Random,
                  checks: list[dict], with_expsums: bool) -> None:
    q = fld.q
    tag = f"q={q}"
    hists = list(counting.oracle_histograms(fld, [fld.one()] * nmax))
    _run_check(checks, f"{tag} oracle-equivalence n<={nmax}", ("series", "oracle"), (
        {"c": code, "n": n, "series": value, "oracle": hist[code]}
        for code in range(q) for n, (value, hist) in enumerate(zip(
            genfunc.gf_N(fld, gen, dec, fld.from_int(code)).series(nmax), hists), start=1)))
    if dec is not None:
        _run_check(checks, f"{tag} cyclotomic closed=enum", ("closed", "enumerated"),
                   _cyclotomic_rows(fld, gen, dec))
        nsmall = min(4, nmax)
        _run_check(checks, f"{tag} closed-form n<={nsmall}", ("closed", "oracle"), (
            {"c": code, "n": n,
             "closed": counting.count_small(fld.from_int(code), n, dec, fld, gen),
             "oracle": hists[n - 1][code]}
            for code in range(1, q) for n in range(1, nsmall + 1)))
        if nmax >= 5:
            # N_n(c) as the recurrence predicts it from the oracle's N_(n-4..n-1)(c)
            _run_check(checks, f"{tag} recurrence order 4", ("recurrence", "oracle"), (
                {"c": code, "n": n, "recurrence": hists[n - 1][code] - residual,
                 "oracle": hists[n - 1][code]}
                for code in range(1, q) for n, residual in enumerate(genfunc.recurrence_check(
                    dec, fld.from_int(code), [hist[code] for hist in hists]), start=5)))
        if with_expsums:
            codes = rng.sample(range(1, q), min(5, q - 1))
            _run_check(checks, f"{tag} exponential sums", ("expsum", "oracle"),
                       _expsum_rows(fld, gen, dec, hists, codes))
    _run_check(checks, f"{tag} twisted counts", ("series", "oracle", "relation"),
               _twisted_rows(fld, gen, dec, hists))


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    fields, checks = [], []
    for cfg in [_config(args)] if args.p else [RunConfig(*pm) for pm in DEFAULT_VERIFY_FIELDS]:
        fld, gen, dec = cfg.build()
        if args.break_t and dec is not None:
            dec = QuarticDecomposition(s=dec.s, t=dec.t + 1)
        fields.append(_field_payload(fld, gen, dec))
        _verify_field(fld, gen, dec, args.nmax, rng, checks, with_expsums=args.expsums)
    passed = all(c["status"] == "pass" for c in checks)
    payload = {"status": "pass" if passed else "FAIL", "fields": fields, "checks": checks}
    print(json.dumps(payload, indent=2) if args.json else json.dumps(payload))
    return 0 if passed else 1


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
    p_verify.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p_verify.add_argument("--break-t", action="store_true", help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (DiagQuarticError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
