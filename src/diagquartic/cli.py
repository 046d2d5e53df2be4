"""Command-line front end.

Subcommands: field, cyclotomic, count, series, verify.
`count` prints N_n(c) or M_n(y) as one coefficient of the generating function: a
term a part keeps, else from the short series below genfunc.SERIES_BELOW, and from
there, for a part with a one-tap denominator 1 + d x^k, as one power, for any other by
a Hankel form, taken as a sum of squares, after O(log n) polynomial squares.
`--all-methods` also runs every checking route that covers the count (cyclotomy on
every count, the oracle within its guard), reports each route's value and seconds,
and exits 1 unless they agree.
`series` lists the first n coefficients.  `verify` reads the class of ind_g mod 4 of every
element off the log table, checks `quartic_class` against it at every element, builds one
series and closed form per class, and checks them at every c and y against one oracle pass
per field (M_n(y) by splitting off x_n, one sum per coset -y C_0), with the denominator's
recurrence at every c and M_n(y) = N_{n-1}(0) + (q-1) N_{n-1}(-y) off the series.  Checks
yield rows, the inputs and each method's values; all but the (i, j)_4 (the class check too)
compare exact arrays, a row only where they differ.  `--expsums` adds two exact checks per
q = 1 mod 4 field off the Gauss periods mod three primes: each T_(g^l) is a root of the
reversed denominator mod each prime, and N_n(c), joined by CRT in one series per class,
is the oracle's.  One runner times each check and files its first row as JSON; with the
`fields` it lists (p, m, q, modulus, g, s, t) it reproduces.
Each subcommand prints one JSON payload, indented with `--json`: elements as
canonical integer encodings, counts as decimal strings so JSON consumers never
overflow; counts that may pass MAX_COUNT_DIGITS digits, or a series
MAX_SERIES_DIGITS, are refused up front.
Calls in one process share one Field and generator per (p, m, --generator, --modulus),
the last BUILD_CACHE_SIZE of them, with the (s, t) the generator keeps, the generating
functions `genfunc` keeps per class, and the per-generator tables of `field._stored`
(the log table, the (i, j)_k, the Gauss periods).
`field`, `series` and plain `count` never load numpy; `cyclotomic`, `count --all-methods`
and `verify` read whole-field tables and load it on first use.
A call runs one parser, the named subcommand's own; when anything is left over, or no
subcommand comes first, the full parser runs and reports the error as it alone would.
Exit codes: 0 pass, 1 verification/agreement failure, 2 usage or input error,
3 internal error (`InvariantError`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

from . import counting, expsums, genfunc
from .cyclotomy import (
    CyclotomicClasses,
    QuarticDecomposition,
    cyclotomic_matrix,
    cyclotomic_number_quartic,
)
from .errors import (
    DiagQuarticError,
    InvariantError,
    NonIntegralError,
    TooLargeError,
    WrongResidueClassError,
)
from .field import (BUILD_CACHE_SIZE, Field, _negatives, check_bytes, find_generator,
                    quartic_class)

DEFAULT_VERIFY_FIELDS = [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2),
                         (29, 1), (7, 1), (11, 1)]
# Bound on the digits of a count below q^n, in place of the interpreter's int-to-str
# limit: decimal conversion is quadratic (48,164 digits 0.04 s, 1,113,944 23 s).
MAX_COUNT_DIGITS = 100_000
# Bound on the digits of n counts, about n^2 log10(q) / 2: 17.1 M at q = 5, n = 7,000.
MAX_SERIES_DIGITS = 20_000_000


@functools.lru_cache(maxsize=BUILD_CACHE_SIZE)
def _field_and_generator(p: int, m: int, generator: int | None,
                         modulus: tuple[int, ...] | None):
    """The Field and its generator, built once per (p, m, generator, modulus), its (s, t)
    found on the generator first when q = 1 mod 4; an error raises on every call
    (errors are not cached)."""
    fld = Field(p, m, modulus=modulus)
    gen = find_generator(fld, override=generator)
    if fld.q % 4 == 1:
        gen.decomposition  # a failed certificate raises here, before the build is kept
    return fld, gen


@dataclass
class RunConfig:
    p: int
    m: int
    generator: int | None = None
    modulus: list[int] | None = None

    def build(self):
        """(Field, generator, (s, t) or None unless q = 1 mod 4)."""
        fld, gen = _field_and_generator(self.p, self.m, self.generator,
                                        tuple(self.modulus) if self.modulus else None)
        return fld, gen, gen.decomposition if fld.q % 4 == 1 else None


def _field_payload(fld, gen, dec) -> dict:
    payload = {
        "p": fld.p, "m": fld.m, "q": fld.q,
        "modulus": list(fld.modulus), "g": gen.g.encode(),
    }
    if dec is not None:
        payload.update({"s": dec.s, "t": dec.t,
                        "f_parity": "even" if fld.q % 8 == 1 else "odd"})
    return payload


def cmd_field(args) -> tuple[dict, int]:
    fld, gen, dec = _config(args).build()
    return _field_payload(fld, gen, dec), 0


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


def cmd_cyclotomic(args) -> tuple[dict, int]:
    fld, gen, dec = _config(args).build()
    if dec is None:
        raise WrongResidueClassError(f"q = {fld.q} is not 1 mod 4")
    rows = list(_cyclotomic_rows(fld, gen, dec))
    entries = [{key: row[key] for key in ("i", "j", "closed", "enumerated")} for row in rows]
    first_failure = next((row for row in rows if row["closed"] != row["enumerated"]), None)
    payload = {"q": fld.q, "g": gen.g.encode(), "s": dec.s, "t": dec.t,
               "f_parity": _field_payload(fld, gen, dec)["f_parity"], "entries": entries}
    if first_failure is not None:
        payload["first_failure"] = first_failure
    return payload, 0 if first_failure is None else 1


def _series_count(fld, gen, dec, c, y, n: int) -> int:
    """The production count: M_n(y) if y is given, else N_n(c), off the generating function."""
    if y is not None:
        return counting.count_M(y, n, fld, gen, dec)
    return counting.count_N(c, n, fld, gen, dec)


def _routes(fld, gen, dec, c, y, n: int) -> dict:
    """Route name -> thunk for every route that covers the count: the production
    series first, then the oracle and cyclotomy, and for N_n(c) with q = 1 mod 4
    and c != 0 the closed forms (n <= 4) and expsum (n <= `expsums.reconstruct_max_n`).
    The oracle sits out past `counting.check_convolution_cost`, which one variable,
    needing no convolution, always passes."""
    one, zero = fld.one(), fld.zero()
    routes = {"series": lambda: _series_count(fld, gen, dec, c, y, n)}
    if y is not None:
        routes["oracle"] = lambda: counting.oracle_count([one] * (n - 1) + [y], zero)
        routes["cyclotomy"] = lambda: counting.count_via_cyclotomy(zero, n, fld, gen, y)
    else:
        routes["oracle"] = lambda: counting.oracle_count([one] * n, c)
        routes["cyclotomy"] = lambda: counting.count_via_cyclotomy(c, n, fld, gen)
        if fld.q % 4 == 1 and not c.is_zero():
            if n <= 4:
                routes["closed"] = lambda: counting.count_small(c, n, dec, fld, gen)
            if n <= expsums.reconstruct_max_n(fld.q):
                routes["expsum"] = lambda: expsums.reconstruct_N(
                    n, c, expsums.build_table(fld, gen))
    try:
        counting.check_convolution_cost(fld, n)
    except TooLargeError:
        del routes["oracle"]
    return routes


def _check_digits(q: int, n: int) -> None:
    if n * math.log10(q) > MAX_COUNT_DIGITS:
        raise TooLargeError(f"counts below {q}^{n} may pass {MAX_COUNT_DIGITS} digits")


def cmd_count(args) -> tuple[dict, int]:
    fld, gen, dec = _config(args).build()
    _check_digits(fld.q, args.n)
    c = fld.from_int(args.c) if args.c is not None else None
    y = fld.from_int(args.y) if args.y is not None else None
    payload = {"q": fld.q, "n": args.n}
    payload["c" if y is None else "y"] = args.c if y is None else args.y
    if not args.all_methods:
        payload["count"] = str(_series_count(fld, gen, dec, c, y, args.n))
        return payload, 0
    values, seconds = {}, {}
    for name, route in _routes(fld, gen, dec, c, y, args.n).items():
        t0 = time.perf_counter()
        values[name] = str(route())
        seconds[name] = round(time.perf_counter() - t0, 6)
    payload["methods"] = values
    payload["seconds"] = seconds
    counts = set(values.values())
    payload["agree"] = len(counts) == 1
    payload["count"] = counts.pop() if len(counts) == 1 else None
    return payload, 0 if payload["agree"] else 1


def cmd_series(args) -> tuple[dict, int]:
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
    return payload, 0


def _run_check(checks: list[dict], name: str, methods: tuple[str, ...], rows) -> None:
    """Time one check, a lazy stream of rows that each hold the check's inputs
    and each method's int value there; file the first row where the values differ,
    its values as decimal strings, or the error of a closed form, as its detail."""
    t0 = time.monotonic()
    detail = ""
    try:
        for row in rows:
            if len({row[m] for m in methods}) > 1:
                detail = json.dumps({key: str(value) if key in methods and value is not None
                                     else value for key, value in row.items()})
                break
    except NonIntegralError as exc:
        detail = f"{type(exc).__name__}: {exc}"
    checks.append({"name": name, "status": "FAIL" if detail else "pass", "detail": detail,
                   "seconds": round(time.monotonic() - t0, 3)})


def _differing_rows(build):
    """The rows of an array check, built on the first `next`, inside its timed region:
    build() gives the axes (input -> labels) and each method's array over them, and a row,
    the inputs and each value, is yielded in row-major order where they differ."""
    import numpy as np
    axes, values = build()
    first, *rest = values.values()
    for at in np.argwhere(np.any([first != other for other in rest], axis=0)).tolist():
        yield {**{a: labels[i] for (a, labels), i in zip(axes.items(), at)},
               **{m: v[tuple(at)] for m, v in values.items()}}


def _twisted_arrays(fld, gen, dec, cyc, reps, series, hists) -> tuple[dict, dict]:
    """M_n(y), n = len(hists), as one-column arrays over the y outside C_0 (not zero,
    not a fourth power) of the classes `cyc`: from `count_M`, from the oracle by
    splitting off x_n, and M_n(y) = N_(n-1)(0) + (q-1) N_(n-1)(-y) read off `series`
    (at c = 0, then `reps`).  The nonzero x_n^4 run d times over C_0, so the split-off
    is N_(n-1)(0) + d * (sum of N_(n-1) where cls == j), j = cls[-y] (`minus`)."""
    import numpy as np
    q, n, d, cls = fld.q, len(hists), len(reps), cyc.class_of
    h, ys = hists[n - 2], np.flatnonzero(cls > 0)
    minus, prev = cls[_negatives(fld, ys)], [counts[n - 2] for counts in series]
    twisted = [None] + [counting.count_M(y, n, fld, gen, dec) for y in reps[1:]]
    split = [h[0] + d * h[cls == l].sum() for l in range(d)]
    relation = [prev[0] + (q - 1) * v for v in prev[1:]]
    return {"y": ys.tolist(), "n": [n]}, {
        m: np.array(by_class, dtype=object)[at, None] for m, by_class, at in (
            ("series", twisted, cls[ys]), ("oracle", split, minus), ("relation", relation, minus))}


def _verify_field(fld, gen, dec, nmax: int, checks: list[dict], with_expsums: bool) -> None:
    import numpy as np
    q, tag = fld.q, f"q={fld.q}"
    # the rows kept below, each entry a pointer and an int up to q^nmax; the oracle's
    # guard runs first, so that q^nmax is small when it is formed
    counting.check_convolution_cost(fld, nmax)
    check_bytes(f"{nmax} x {q} oracle rows", nmax * q * (8 + sys.getsizeof(q ** nmax)))
    hists = np.array(list(counting.oracle_histograms(fld, [fld.one()] * nmax)), dtype=object)
    reps = [gen.g ** l for l in range(len(gen.class_roots))]
    cyc = CyclotomicClasses(fld, gen, len(reps))
    cls = cyc.class_of
    _run_check(checks, f"{tag} quartic classes", ("quartic_class", "log_table"),
               _differing_rows(lambda: ({"c": range(1, q)}, {"quartic_class": np.array(
                   [quartic_class(fld.from_int(c), gen) for c in range(1, q)]),
                   "log_table": cls[1:]})))
    # one series per class: series[0] at c = 0, series[1 + l] at c = g^l
    series = [genfunc.gf_N(fld, gen, dec, c).series(nmax) for c in [fld.zero()] + reps]
    _run_check(checks, f"{tag} oracle-equivalence n<={nmax}", ("series", "oracle"),
               _differing_rows(lambda: ({"c": range(q), "n": range(1, nmax + 1)}, {
                   "series": np.array(series, dtype=object)[cls + 1], "oracle": hists.T})))
    den = genfunc.denominator(q, None if dec is None else dec.s)
    k = len(den) - 1
    if nmax > k:
        # N_n(c) as the recurrence predicts it from the oracle's N_(n-k..n-1)(c)
        _run_check(checks, f"{tag} recurrence order {k}", ("recurrence", "oracle"),
                   _differing_rows(lambda: ({"c": range(q), "n": range(k + 1, nmax + 1)}, {
                       "recurrence": (hists[k:] - genfunc.recurrence_check(q, den, hists)).T,
                       "oracle": hists[k:].T})))
    if dec is not None:
        _run_check(checks, f"{tag} cyclotomic closed=enum", ("closed", "enumerated"),
                   _cyclotomic_rows(fld, gen, dec))
        ns = range(1, min(4, nmax) + 1)
        _run_check(checks, f"{tag} closed-form n<={len(ns)}", ("closed", "oracle"),
                   _differing_rows(lambda: ({"c": range(1, q), "n": ns}, {"closed": np.array([[
                       counting._closed_small(q, dec.s, dec.t, q % 8, l, n) for n in ns]
                       for l in range(4)], dtype=object)[cls[1:]], "oracle": hists[:4, 1:].T})))
        if with_expsums:
            table = expsums.build_table(fld, gen)
            _run_check(checks, f"{tag} Gauss sums are roots", ("residue", "zero"),
                       _differing_rows(lambda: ({"ell": table.rows[:, 0].tolist(),
                                                 "l": range(4)}, {
                           "residue": np.array(expsums.verify_gauss_sum_roots(table, dec)),
                           "zero": np.zeros((len(table.rows), 4), dtype=np.int64)})))
            # one series N_1..N_n(c) per class, at c = g^l: -1 lies in C_0 or C_2, so -c
            # meets every class
            ns = range(1, min(nmax, expsums.reconstruct_max_n(q)) + 1)
            _run_check(checks, f"{tag} exponential sums", ("expsum", "oracle"),
                       _differing_rows(lambda: ({"c": range(1, q), "n": ns}, {"expsum": np.array(
                           [expsums.reconstruct_series(len(ns), c, table) for c in reps],
                           dtype=object)[cls[1:]], "oracle": hists[:len(ns), 1:].T})))
    _run_check(checks, f"{tag} twisted counts", ("series", "oracle", "relation"),
               _differing_rows(lambda: _twisted_arrays(fld, gen, dec, cyc, reps, series, hists)))


def cmd_verify(args) -> tuple[dict, int]:
    if args.p is None and (args.m, args.generator, args.modulus) != (1, None, None):
        raise ValueError("--m, --generator and --modulus choose within a field: give --p")
    fields, checks = [], []
    for cfg in ([_config(args)] if args.p is not None
                else [RunConfig(*pm) for pm in DEFAULT_VERIFY_FIELDS]):
        fld, gen, dec = cfg.build()
        if args.break_t and dec is not None:
            dec = QuarticDecomposition(s=dec.s, t=dec.t + 1)
        fields.append(_field_payload(fld, gen, dec))
        _verify_field(fld, gen, dec, args.nmax, checks, with_expsums=args.expsums)
    passed = all(c["status"] == "pass" for c in checks)
    payload = {"status": "pass" if passed else "FAIL", "fields": fields, "checks": checks}
    return payload, 0 if passed else 1


def _config(args) -> RunConfig:
    return RunConfig(p=args.p, m=args.m, generator=args.generator,
                     modulus=args.modulus)


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"an integer at least {low}, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _coefficients(text: str) -> list[int]:
    """argparse type: comma-separated integers, else a usage error (exit 2)."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("comma-separated integers, constant term first, "
                                          f"got {text!r}") from None


def _add_common(sub, require_field: bool = True):
    sub.add_argument("--p", type=int, required=require_field,
                     help="field characteristic (odd prime)")
    sub.add_argument("--m", type=int, default=1, help="extension degree")
    sub.add_argument("--generator", type=int, default=None,
                     help="override generator, by canonical encoding")
    sub.add_argument("--modulus", type=_coefficients,
                     default=None, help="override modulus, comma-separated, constant first")
    sub.add_argument("--json", action="store_true", help="indent the JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagquartic",
        description="Count zeros of diagonal quartic forms over finite fields")
    subs = parser.add_subparsers(dest="command", required=True)

    p_field = subs.add_parser("field", help="field, generator and (s, t) summary")
    _add_common(p_field)

    p_cyc = subs.add_parser("cyclotomic", help="order-4 cyclotomic number table")
    _add_common(p_cyc)

    p_count = subs.add_parser("count", help="count zeros of the diagonal form")
    _add_common(p_count)
    rhs = p_count.add_mutually_exclusive_group(required=True)
    rhs.add_argument("--c", type=int, default=None, help="right-hand side encoding")
    rhs.add_argument("--y", type=int, default=None, help="twist coefficient encoding")
    p_count.add_argument("--n", type=_int_at_least(1), required=True,
                         help="number of variables")
    p_count.add_argument("--all-methods", action="store_true",
                         help="also run every checking route that covers the count, "
                              "and compare")

    p_series = subs.add_parser("series", help="generating function and coefficients")
    _add_common(p_series)
    rhs = p_series.add_mutually_exclusive_group()
    rhs.add_argument("--c", type=int, default=None,
                     help="right-hand side encoding (default 0)")
    rhs.add_argument("--y", type=int, default=None, help="twist coefficient encoding")
    p_series.add_argument("--n", type=_int_at_least(1), default=8,
                          help="number of coefficients")

    p_verify = subs.add_parser("verify", help="run the cross-validation suite")
    _add_common(p_verify, require_field=False)
    p_verify.add_argument("--nmax", type=_int_at_least(2), default=8,
                          help="largest n checked; the twisted counts need n >= 2")
    p_verify.add_argument("--expsums", action="store_true",
                          help="include exponential-sum checks")
    p_verify.add_argument("--break-t", action="store_true", help=argparse.SUPPRESS)

    return parser


_PARSER = build_parser()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """`_PARSER.parse_args(argv)` at the cost of one parse: the named subcommand's own
    parser, run on the rest as _PARSER runs it.  When anything is left over, or argv[0]
    names no subcommand, _PARSER parses again and reports it as it does alone."""
    argv = sys.argv[1:] if argv is None else list(argv)
    subs = next(action.choices for action in _PARSER._actions
                if isinstance(action, argparse._SubParsersAction))
    sub = subs.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    # looked up on each call, so a handler rebound on the module (as a tracer does) runs
    handlers = {"field": cmd_field, "cyclotomic": cmd_cyclotomic, "count": cmd_count,
                "series": cmd_series, "verify": cmd_verify}
    try:
        payload, code = handlers[args.command](args)
        print(json.dumps(payload, indent=2 if args.json else None))
        return code
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
