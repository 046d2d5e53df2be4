"""Cyclotomic numbers: (s, t), closed forms vs enumeration."""

import itertools
import random
import tracemalloc

import pytest

from diagquartic import counting
from diagquartic import expsums
from diagquartic import field as field_module
from diagquartic.cyclotomy import (
    CyclotomicClasses,
    QuarticDecomposition,
    cyclo_diag_quartic,
    cyclo_dim2,
    cyclo_dim3,
    cyclo_dim4,
    cyclo_dim_enum,
    cyclotomic_matrix,
    cyclotomic_number_enum,
    cyclotomic_number_quartic,
    quartic_decomposition,
)
from diagquartic.errors import (BadOrderError, InvariantError, NonIntegralError, TooLargeError,
                                WrongResidueClassError)
from diagquartic.field import Field, GeneratorData, find_generator

from conftest import field_data, literal_classes, literal_cyclo_dim


def literal_cyclo_dim4(i1, i2, i3, i4, k, fld, gen):
    """The dimension-4 reduction with its double sum of triples as a loop over
    (v1, v2) on Python ints."""
    f, half = (fld.q - 1) // k, (fld.q - 1) // 2
    a = cyclotomic_matrix(k, fld, gen).tolist()
    first_pair_neg = (i2 - i1 - half) % k == 0
    second_pair_neg = (i4 - i3 - half) % k == 0
    gamma = 0
    if second_pair_neg:
        gamma += a[(i2 - i1) % k][-i1 % k] * f
    if first_pair_neg:
        gamma += a[(i4 - i3) % k][-i3 % k] * f
    total = sum(
        a[(v2 - v1) % k][-v1 % k]
        * a[(i2 - i1) % k][(v1 - i1) % k]
        * a[(i4 - i3) % k][(v2 - i3) % k]
        for v1 in range(k) for v2 in range(k))
    return gamma + total


class TestQuarticDecomposition:
    @pytest.mark.parametrize("p, m, expected", [
        (5, 1, (1, -1)), (13, 1, (-3, -1)), (3, 2, (-3, 0)), (7, 2, (-7, 0)),
    ])
    def test_known_values(self, p, m, expected):
        fld = Field(p, m)
        dec = quartic_decomposition(fld, find_generator(fld))
        assert (dec.s, dec.t) == expected

    def test_invariants(self, field_1mod4):
        dec, q, p = field_1mod4.dec, field_1mod4.q, field_1mod4.field.p
        assert dec.s * dec.s + 4 * dec.t * dec.t == q
        assert dec.s % 4 == 1
        if p % 4 == 1:
            assert dec.s % p != 0
        else:
            assert dec.t == 0

    def test_wrong_residue_class(self):
        fld = Field(7, 1)
        with pytest.raises(WrongResidueClassError):
            quartic_decomposition(fld, find_generator(fld))

    @pytest.mark.parametrize("p, m", [(5, 2), (13, 2), (5, 4)])
    def test_zeta_outside_prime_field_raises(self, p, m):
        # zeta + p encodes zeta + alpha, not in F_p, though its residue squares to -1
        fld = Field(p, m)
        gen = find_generator(fld)
        liar = GeneratorData(g=gen.g, class_roots=gen.class_roots[:3] + (gen.class_roots[3] + p,))
        with pytest.raises(InvariantError):
            quartic_decomposition(fld, liar)

    @pytest.mark.parametrize("p", [5, 13, 29])
    def test_zeta_not_a_square_root_of_minus_one_raises(self, p):
        fld = Field(p, 1)
        gen = find_generator(fld)
        liar = GeneratorData(g=gen.g, class_roots=gen.class_roots[:3] + (1,))
        with pytest.raises(InvariantError):
            quartic_decomposition(fld, liar)


# (i, j)_4 by enumeration and by Gauss's letter layout: the symmetry tests run on
# both, so each layout is held to Gauss's symmetries directly
NUMBERS = {
    "enum": lambda i, j, fd: cyclotomic_number_enum(i, j, 4, fd.field, fd.gen),
    "quartic": lambda i, j, fd: cyclotomic_number_quartic(i, j, fd.dec, fd.q),
}


class TestCyclotomicNumbers:
    @pytest.mark.parametrize("p, m, i, j, expected", [
        (13, 1, 0, 0, 0), (5, 1, 0, 0, 0), (17, 1, 1, 2, 1),
    ])
    def test_enumeration_examples(self, p, m, i, j, expected):
        fld = Field(p, m)
        assert cyclotomic_number_enum(i, j, 4, fld, find_generator(fld)) == expected

    def test_bad_order(self):
        fld = Field(7, 1)
        for k in (4, 0, -2):  # -2 divides 6, but a class order is positive
            with pytest.raises(BadOrderError):
                CyclotomicClasses(fld, find_generator(fld), k)

    def test_closed_form_matches_enumeration(self, field_1mod4):
        fd = field_1mod4
        for i in range(4):
            for j in range(4):
                closed = cyclotomic_number_quartic(i, j, fd.dec, fd.q)
                enum = cyclotomic_number_enum(i, j, 4, fd.field, fd.gen)
                assert closed == enum, (fd.q, i, j)

    def test_wrong_t_triggers_nonintegral(self):
        fd = field_data(13, 1)
        broken = QuarticDecomposition(s=fd.dec.s, t=fd.dec.t + 1)
        with pytest.raises(NonIntegralError):
            for i in range(4):
                for j in range(4):
                    cyclotomic_number_quartic(i, j, broken, 13)

    @pytest.mark.parametrize("number", NUMBERS.values(), ids=NUMBERS.keys())
    def test_shift_invariance(self, field_1mod4, number):
        fd = field_1mod4
        for i in range(4):
            for j in range(4):
                base = number(i, j, fd)
                assert number(i + 4, j, fd) == base
                assert number(i, j - 8, fd) == base

    @pytest.mark.parametrize("number", NUMBERS.values(), ids=NUMBERS.keys())
    def test_reflection(self, field_1mod4, number):
        fd = field_1mod4
        for i in range(4):
            for j in range(4):
                assert number(i, j, fd) == number(-i, j - i, fd), (fd.q, i, j)

    @pytest.mark.parametrize("number", NUMBERS.values(), ids=NUMBERS.keys())
    def test_parity_swap(self, field_1mod4, number):
        fd = field_1mod4
        f_even = (fd.q - 1) // 4 % 2 == 0
        for i in range(4):
            for j in range(4):
                rhs = number(j, i, fd) if f_even else number(j + 2, i + 2, fd)
                assert number(i, j, fd) == rhs, (fd.q, i, j)

    @pytest.mark.parametrize("number", NUMBERS.values(), ids=NUMBERS.keys())
    def test_completeness(self, field_1mod4, number):
        fd = field_1mod4
        assert sum(number(i, j, fd) for i in range(4) for j in range(4)) == fd.q - 2


class TestDimensionN:
    def test_dim1(self, field_1mod4):
        fd = field_1mod4
        assert cyclo_dim_enum([0], 4, fd.field, fd.gen) == 1
        for i in (1, 2, 3):
            assert cyclo_dim_enum([i], 4, fd.field, fd.gen) == 0

    def test_known_values(self):
        fd = field_data(13, 1)
        assert cyclo_dim_enum([0, 0], 4, fd.field, fd.gen) == 0
        assert cyclo_dim_enum([1, 1, 1], 4, fd.field, fd.gen) == 3
        assert cyclo_dim_enum([0, 0, 0, 0], 4, fd.field, fd.gen) == 12

    @pytest.mark.parametrize("p, m, k", [(5, 1, 4), (3, 2, 4), (13, 1, 4), (13, 1, 2),
                                         (7, 1, 2), (13, 1, 3), (13, 1, 6)],
                             ids=["q=5", "q=9", "q=13", "q=13-k=2", "q=7-k=2", "q=13-k=3",
                                  "q=13-k=6"])
    def test_matches_literal_enumeration(self, p, m, k):
        fd = field_data(p, m)
        for n in range(1, 5):
            for idx in itertools.product(range(k), repeat=n):
                assert (cyclo_dim_enum(list(idx), k, fd.field, fd.gen)
                        == literal_cyclo_dim(idx, k, fd.gen)), (fd.q, k, idx)

    def test_past_the_addition_table_guard(self, monkeypatch):
        # the q x q table of q = 5801 would take 269 MB, past the oracle's byte
        # guard; the transfer matrices read neither the table nor a convolution
        def refuse(*args):
            raise RuntimeError("addition table or convolution used")
        monkeypatch.setattr(counting, "_addition_tables", refuse)
        monkeypatch.setattr(counting, "_group_convolve", refuse)
        fld = Field(5801, 1)
        gen = find_generator(fld)
        assert cyclo_dim_enum([0, 1], 4, fld, gen) == cyclo_dim2(0, 1, 4, fld, gen)

    def test_guard_before_transfer_matrices(self):
        # k = 5800 would need k (k + 1)^2 = 2 * 10^11 matrix entries
        fld = Field(5801, 1)
        with pytest.raises(TooLargeError):
            cyclo_dim_enum([0], 5800, fld, find_generator(fld))

    def test_no_indices_rejected(self):
        fd = field_data(5, 1)
        with pytest.raises(ValueError):
            cyclo_dim_enum([], 4, fd.field, fd.gen)

    def test_q5_quadruple_empty(self):
        fd = field_data(5, 1)
        assert cyclo_dim_enum([0, 0, 0, 0], 4, fd.field, fd.gen) == 0

    def test_dim2_reduction(self, field_1mod4):
        fd = field_1mod4
        for i1, i2 in itertools.product(range(4), repeat=2):
            assert (cyclo_dim2(i1, i2, 4, fd.field, fd.gen)
                    == cyclo_dim_enum([i1, i2], 4, fd.field, fd.gen))

    def test_dim3_reduction(self, field_1mod4):
        fd = field_1mod4
        for idx in itertools.product(range(4), repeat=3):
            assert (cyclo_dim3(*idx, 4, fd.field, fd.gen)
                    == cyclo_dim_enum(list(idx), 4, fd.field, fd.gen))

    def test_dim4_reduction(self, field_1mod4):
        fd = field_1mod4
        for idx in itertools.product(range(4), repeat=4):
            assert (cyclo_dim4(*idx, 4, fd.field, fd.gen)
                    == cyclo_dim_enum(list(idx), 4, fd.field, fd.gen))

    @pytest.mark.parametrize("p, m", [(13, 1), (17, 1), (5, 2)])
    def test_reductions_other_orders(self, p, m):
        # spot checks at k = 2 and k = (q - 1) / 2
        fd = field_data(p, m)
        for k in (2, (fd.q - 1) // 2):
            for idx in [(0, 1), (1, 0), (1, 1)]:
                assert (cyclo_dim2(*idx, k, fd.field, fd.gen)
                        == cyclo_dim_enum(list(idx), k, fd.field, fd.gen))
            for idx in [(0, 0, 0), (0, 1, 1), (1, 0, 1)]:
                assert (cyclo_dim3(*idx, k, fd.field, fd.gen)
                        == cyclo_dim_enum(list(idx), k, fd.field, fd.gen))
            for idx in [(0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 1)]:
                assert (cyclo_dim4(*idx, k, fd.field, fd.gen)
                        == cyclo_dim_enum(list(idx), k, fd.field, fd.gen))

    @pytest.mark.parametrize("p, m", [(13, 1), (17, 1), (5, 2), (29, 1), (37, 1), (3, 4),
                                      (7, 2), (61, 1)])
    def test_dim4_contraction_matches_the_double_loop(self, p, m):
        # the whole-array sum of triples against the k^2 loop over (v1, v2) on Python
        # ints it replaced, on random index tuples at every k <= 12 dividing q - 1
        fld = Field(p, m)
        gen = find_generator(fld)
        rng = random.Random(p * m)
        for k in [k for k in range(1, 13) if (fld.q - 1) % k == 0]:
            for _ in range(12):
                idx = [rng.randrange(-k, 2 * k) for _ in range(4)]
                assert (cyclo_dim4(*idx, k, fld, gen)
                        == literal_cyclo_dim4(*idx, k, fld, gen)), (fld.q, k, idx)


class TestDiagonalClosedForms:
    def test_matches_enumeration(self, field_1mod4):
        fd = field_1mod4
        for n in (2, 3, 4):
            for i in range(4):
                closed = cyclo_diag_quartic(n, i, fd.dec, fd.q)
                enum = cyclo_dim_enum([i] * n, 4, fd.field, fd.gen)
                assert closed == enum, (fd.q, n, i)

    def test_known_values(self):
        fd13 = field_data(13, 1)
        assert cyclo_diag_quartic(3, 1, fd13.dec, 13) == 3
        fd5 = field_data(5, 1)
        assert cyclo_diag_quartic(4, 0, fd5.dec, 5) == 0
        fd17 = field_data(17, 1)
        assert cyclo_diag_quartic(2, 0, fd17.dec, 17) == 0

    def test_wrong_residue_class(self):
        with pytest.raises(WrongResidueClassError):
            cyclo_diag_quartic(2, 0, QuarticDecomposition(1, 1), 7)


class TestInputChecks:
    @pytest.mark.parametrize("call, error", [
        (lambda: cyclotomic_number_quartic(0, 0, QuarticDecomposition(s=1, t=1), 7),
         WrongResidueClassError),
        (lambda: cyclo_diag_quartic(5, 0, QuarticDecomposition(s=-3, t=-1), 13), ValueError),
    ], ids=["quartic-q7", "diagonal-n5"])
    def test_rejects_out_of_range_input(self, call, error):
        with pytest.raises(error):
            call()


class TestCyclotomicMatrix:
    @pytest.mark.parametrize("p, m", [(5, 1), (3, 2), (13, 1), (7, 2)],
                             ids=["q=5", "q=9", "q=13", "q=49"])
    def test_matches_literal_count(self, p, m):
        # (i, j)_k = #{x in C_i : 1 + x in C_j}, by Element additions over
        # classes from a power loop of g, for every order k dividing q - 1
        fd = field_data(p, m)
        one = fd.field.one()
        for k in [k for k in range(1, fd.q) if (fd.q - 1) % k == 0]:
            classes = literal_classes(k, fd.gen)
            class_of = {x: i for i, members in enumerate(classes) for x in members}
            literal = [[0] * k for _ in range(k)]
            for i, members in enumerate(classes):
                for x in members:
                    if one + x in class_of:
                        literal[i][class_of[one + x]] += 1
            assert cyclotomic_matrix(k, fd.field, fd.gen).tolist() == literal, (fd.q, k)

    @pytest.mark.parametrize("call", [
        lambda k, fld, gen: cyclotomic_number_enum(0, 1, k, fld, gen),
        lambda k, fld, gen: cyclo_dim2(0, 1, k, fld, gen),
        lambda k, fld, gen: cyclo_dim3(0, 1, 2, k, fld, gen),
        lambda k, fld, gen: cyclo_dim4(0, 1, 2, 3, k, fld, gen),
    ], ids=["enum", "dim2", "dim3", "dim4"])
    def test_order_guard(self, call):
        # k = 65536 would take a k x k table of 32 GiB; the guard refuses it before
        # the classes are built
        fld = Field(65537, 1)
        with pytest.raises(TooLargeError):
            call(65536, fld, find_generator(fld))

    def test_order_guard_boundary(self, monkeypatch):
        # k = 12 on F_13: the k x k table takes 8 k^2 = 1152 bytes, the largest array
        # the build charges; the guard is `field`'s one binding, which the store reads too
        fd = field_data(13, 1)
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD", 1152)
        assert cyclotomic_matrix(12, fd.field, fd.gen).shape == (12, 12)
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD", 1151)
        with pytest.raises(TooLargeError):
            cyclotomic_matrix(12, fd.field, fd.gen)


class TestClassMemory:
    """What the class array and the Gauss periods' build hold on F_65537, beside the
    stored log table; numpy reports its buffers to tracemalloc."""

    @staticmethod
    def _traced(build):
        """(bytes still held, peak) over build(), whose result lives until both are read."""
        tracemalloc.start()
        try:
            built = build()
            traced = tracemalloc.get_traced_memory()
            del built
            return traced
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def fd(self, monkeypatch):
        monkeypatch.setattr(field_module, "_TABLES", {})
        small = field_data(13, 1)  # numpy's first-use allocations stay out of the peaks
        expsums._periods(small.field, small.gen)
        fld = Field(65537, 1)
        gen = find_generator(fld)
        field_module.log_table(fld, gen)
        return fld, gen

    def test_classes_hold_one_q_array(self, fd):
        # class_of alone, 8 bytes an entry, plus 1 KiB for the object and the array
        # header (about 400 bytes); an antilog beside it held 16q
        fld, gen = fd
        held, peak = self._traced(lambda: CyclotomicClasses(fld, gen, 4))
        assert held <= 8 * fld.q + 1024
        assert peak <= 8 * fld.q + 1024  # log % k, then 0 marked in place

    def test_periods_build_peaks_at_three_q_arrays_and_a_mask(self, fd):
        # the trace table, class_of, the four classes' traces (8q together) and one
        # q-byte mask: 25q; the antilog's build peaked at 32q
        fld, gen = fd
        assert self._traced(lambda: expsums._periods(fld, gen))[1] < 26 * fld.q
