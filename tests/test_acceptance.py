"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import time

from diagquartic import counting, expsums, genfunc
from diagquartic.cyclotomy import (
    cyclo_diag_quartic,
    cyclo_dim2,
    cyclo_dim3,
    cyclo_dim4,
    cyclo_dim_enum,
    cyclotomic_number_enum,
    cyclotomic_number_quartic,
    quartic_decomposition,
)
from diagquartic.field import all_generators, find_generator

from conftest import FIELDS_1MOD4, FIELDS_3MOD4, field_data, literal_orthogonality_residuals


def report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_oracle_equivalence():
    """count_N equals the convolution oracle for all c, n in [1, 8], all fields."""
    ok = True
    for p, m in FIELDS_1MOD4 + FIELDS_3MOD4:
        fd = field_data(p, m)
        for code in range(fd.q):
            c = fd.field.from_int(code)
            for n in range(1, 9):
                if counting.count_N(c, n, fd.field, fd.gen, fd.dec) \
                        != fd.oracle_N(code, n):
                    ok = False
    report("criterion 1: oracle equivalence, 14 fields x all c x n<=8", ok)


def test_criterion_2_pinned_values():
    fd5 = field_data(5, 1)
    fd13 = field_data(13, 1)
    fd7 = field_data(7, 1)
    one5, one13 = fd5.field.one(), fd13.field.one()
    checks = [
        fd5.gen.g.encode() == 2,
        counting.count_N(one5, 3, fd5.field, fd5.gen, fd5.dec) == 12,
        counting.count_N(one5, 4, fd5.field, fd5.gen, fd5.dec) == 16,
        counting.count_N(fd5.field.zero(), 5, fd5.field, fd5.gen, fd5.dec) == 1025,
        counting.count_N(fd5.field.zero(), 2, fd5.field, fd5.gen, fd5.dec) == 1,
        fd13.gen.g.encode() == 2,
        counting.count_N(one13, 2, fd13.field, fd13.gen, fd13.dec) == 8,
        cyclotomic_number_enum(0, 0, 4, fd13.field, fd13.gen) == 0,
        cyclo_dim_enum([1, 1, 1], 4, fd13.field, fd13.gen) == 3,
        cyclo_dim_enum([0, 0, 0, 0], 4, fd13.field, fd13.gen) == 12,
        counting.count_N(fd7.field.one(), 2, fd7.field, fd7.gen) == 8,
        counting.count_M(fd7.field.from_int(3), 2, fd7.field, fd7.gen) == 13,
        counting.count_M(fd5.field.from_int(2), 2, fd5.field, fd5.gen, fd5.dec) == 1,
        counting.count_M(fd5.field.from_int(2), 3, fd5.field, fd5.gen, fd5.dec) == 1,
    ]
    report("criterion 2: pinned hand-checkable values", all(checks))


def test_criterion_3_cyclotomic_closed_forms():
    ok = True
    for p, m in FIELDS_1MOD4:
        fd = field_data(p, m)
        for i in range(4):
            for j in range(4):
                if cyclotomic_number_quartic(i, j, fd.dec, fd.q) \
                        != cyclotomic_number_enum(i, j, 4, fd.field, fd.gen):
                    ok = False
        for n in (2, 3, 4):
            for i in range(4):
                if cyclo_diag_quartic(n, i, fd.dec, fd.q) \
                        != cyclo_dim_enum([i] * n, 4, fd.field, fd.gen):
                    ok = False
    report("criterion 3: closed-form cyclotomic numbers = enumeration", ok)


def test_criterion_4_reduction_formulas():
    ok = True
    reducers = {2: cyclo_dim2, 3: cyclo_dim3, 4: cyclo_dim4}
    for p, m in FIELDS_1MOD4:
        fd = field_data(p, m)
        for n, reducer in reducers.items():
            for idx in itertools.product(range(4), repeat=n):
                if reducer(*idx, 4, fd.field, fd.gen) \
                        != cyclo_dim_enum(list(idx), 4, fd.field, fd.gen):
                    ok = False
    # spot checks at other orders
    for p, m in [(13, 1), (17, 1), (5, 2), (41, 1)]:
        fd = field_data(p, m)
        for k in (2, (fd.q - 1) // 2):
            for n, reducer in reducers.items():
                for idx in [(0,) * n, (1,) + (0,) * (n - 1), (1,) * n]:
                    if reducer(*idx, k, fd.field, fd.gen) \
                            != cyclo_dim_enum(list(idx), k, fd.field, fd.gen):
                        ok = False
    report("criterion 4: dimension-n reduction formulas = enumeration", ok)


def test_criterion_5_twisted_counts():
    ok = True
    for p, m in FIELDS_1MOD4 + FIELDS_3MOD4:
        fd = field_data(p, m)
        for code in range(1, fd.q):
            y = fd.field.from_int(code)
            if genfunc.is_quartic(y, fd.gen):
                continue
            gf_series = genfunc.gf_M(fd.field, fd.gen, fd.dec, y).series(7)
            for n in range(2, 9):
                value = counting.count_M(y, n, fd.field, fd.gen, fd.dec)
                if value != fd.oracle_M(y, n) or value != gf_series[n - 2]:
                    ok = False
    report("criterion 5: twisted counts = oracle = series, n in [2, 8]", ok)


def test_criterion_6_recurrence():
    ok = True
    for p, m in FIELDS_1MOD4:
        fd = field_data(p, m)
        for code in range(1, fd.q):
            counts = [fd.oracle_N(code, n) for n in range(1, 9)]
            res = genfunc.recurrence_check(fd.dec, fd.field.from_int(code), counts)
            if any(r != 0 for r in res):
                ok = False
    report("criterion 6: order-4 recurrence on D(n), n in [5, 8]", ok)


def test_criterion_7_exponential_sums():
    ok = True
    for p, m in FIELDS_1MOD4:
        fd = field_data(p, m)
        q = fd.q
        if max(literal_orthogonality_residuals(fd.field)) >= 1e-9 * q:
            ok = False
        table = expsums.build_table(fd.field, fd.gen)
        if max(expsums.verify_gauss_sum_roots(table, fd.dec)) >= 1e-6 * q * q:
            ok = False
        for code in range(1, q):
            c = fd.field.from_int(code)
            for n in range(1, 7):
                if expsums.reconstruct_N(n, c, table) != fd.oracle_N(code, n):
                    ok = False
    report("criterion 7: orthogonality, Gauss-sum quartic, reconstruction", ok)


def test_criterion_8_generator_invariance():
    ok = True
    for p, m in [(13, 1), (17, 1), (5, 2)]:
        fd = field_data(p, m)
        baseline_N = {(code, n): fd.oracle_N(code, n)
                      for code in range(fd.q) for n in range(1, 9)}
        for g in all_generators(fd.field):
            gen = find_generator(fd.field, override=g.encode())
            dec = quartic_decomposition(fd.field, gen)
            for code in range(fd.q):
                c = fd.field.from_int(code)
                for n in range(1, 9):
                    if counting.count_N(c, n, fd.field, gen, dec) \
                            != baseline_N[(code, n)]:
                        ok = False
            for code in range(1, fd.q):
                y = fd.field.from_int(code)
                if genfunc.is_quartic(y, gen):
                    continue
                for n in range(2, 9):
                    if counting.count_M(y, n, fd.field, gen, dec) \
                            != fd.oracle_M(y, n):
                        ok = False
    report("criterion 8: all counts invariant under generator choice", ok)


def test_criterion_9_bench_sanity():
    fd = field_data(7, 2)  # q = 49
    c = fd.field.one()
    gf = genfunc.gf_N(fd.field, fd.gen, fd.dec, c)

    # warm caches (addition table)
    counting.oracle_count([fd.field.one()] * 8, c)

    t_oracle = min(
        _timed(lambda: counting.oracle_count([fd.field.one()] * 8, c))
        for _ in range(3))

    def per_term():
        reps = 20
        start = time.perf_counter()
        for _ in range(reps):
            gf.series(130)
        mid = time.perf_counter()
        for _ in range(reps):
            gf.series(30)
        end = time.perf_counter()
        return ((mid - start) - (end - mid)) / (100 * reps)

    t_term = min(per_term() for _ in range(3))
    identical = gf.series(8)[7] == counting.oracle_count([fd.field.one()] * 8, c)
    ratio = t_oracle / max(t_term, 1e-12)
    ok = identical and ratio >= 100
    print(f"  oracle full recompute: {t_oracle * 1e3:.3f} ms, "
          f"series per additional n: {t_term * 1e6:.3f} us, ratio {ratio:.0f}x")
    report("criterion 9: series per-term cost >= 100x below oracle recompute", ok)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
