"""Cyclotomic numbers: (s, t), closed forms vs enumeration."""

import itertools

import pytest

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
from diagquartic.errors import BadOrderError, NonIntegralError, TooLargeError, WrongResidueClassError
from diagquartic.field import Field, find_generator

from conftest import field_data, literal_classes, literal_cyclo_dim


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


class TestCyclotomicNumbers:
    @pytest.mark.parametrize("p, m, i, j, expected", [
        (13, 1, 0, 0, 0), (5, 1, 0, 0, 0), (17, 1, 1, 2, 1),
    ])
    def test_enumeration_examples(self, p, m, i, j, expected):
        fld = Field(p, m)
        assert cyclotomic_number_enum(i, j, 4, fld, find_generator(fld)) == expected

    def test_bad_order(self):
        fld = Field(7, 1)
        with pytest.raises(BadOrderError):
            CyclotomicClasses(fld, find_generator(fld), 4)

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

    def test_shift_invariance(self, field_1mod4):
        fd = field_1mod4
        for i in range(4):
            for j in range(4):
                base = cyclotomic_number_enum(i, j, 4, fd.field, fd.gen)
                assert cyclotomic_number_enum(i + 4, j, 4, fd.field, fd.gen) == base
                assert cyclotomic_number_enum(i, j - 8, 4, fd.field, fd.gen) == base

    def test_reflection(self, field_1mod4):
        fd = field_1mod4
        for i in range(4):
            for j in range(4):
                assert (cyclotomic_number_enum(i, j, 4, fd.field, fd.gen)
                        == cyclotomic_number_enum(-i, j - i, 4, fd.field, fd.gen))

    def test_parity_swap(self, field_1mod4):
        fd = field_1mod4
        f_even = fd.classes.f % 2 == 0
        for i in range(4):
            for j in range(4):
                lhs = cyclotomic_number_enum(i, j, 4, fd.field, fd.gen)
                if f_even:
                    rhs = cyclotomic_number_enum(j, i, 4, fd.field, fd.gen)
                else:
                    rhs = cyclotomic_number_enum(j + 2, i + 2, 4, fd.field, fd.gen)
                assert lhs == rhs

    def test_completeness(self, field_1mod4):
        fd = field_1mod4
        total = sum(cyclotomic_number_enum(i, j, 4, fd.field, fd.gen)
                    for i in range(4) for j in range(4))
        assert total == fd.q - 2


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

    @pytest.mark.parametrize("p, m, k", [(5, 1, 4), (3, 2, 4), (13, 1, 4), (13, 1, 2)],
                             ids=["q=5", "q=9", "q=13", "q=13-k=2"])
    def test_matches_literal_enumeration(self, p, m, k):
        fd = field_data(p, m)
        for n in range(1, 5):
            for idx in itertools.product(range(k), repeat=n):
                assert (cyclo_dim_enum(list(idx), k, fd.field, fd.gen)
                        == literal_cyclo_dim(idx, k, fd.gen)), (fd.q, k, idx)

    def test_guard_before_addition_table(self, monkeypatch):
        # the q x q table of q = 5801 would take 269 MB, past the byte guard
        def refuse(fld):
            raise RuntimeError(f"addition table built for q = {fld.q}")
        monkeypatch.setattr(field_module, "_addition_tables", refuse)
        fld = Field(5801, 1)
        with pytest.raises(TooLargeError):
            cyclo_dim_enum([0, 1], 4, fld, find_generator(fld))

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
