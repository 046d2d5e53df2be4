"""Additive characters, Gauss-type sums and count reconstruction."""

import cmath
import random

import pytest

from diagquartic.cyclotomy import QuarticDecomposition
from diagquartic.errors import ResidualTooLargeError
from diagquartic.expsums import build_table, reconstruct_N, verify_gauss_sum_roots
from diagquartic.field import index_of
from diagquartic.genfunc import denominator

from conftest import (
    field_data,
    literal_character,
    literal_gauss_sum,
    literal_orthogonality_residuals,
)


class TestAdditiveCharacter:
    def test_at_zero(self, any_field):
        assert literal_character(any_field.field.zero()) == pytest.approx(1.0)

    def test_unit_modulus(self, any_field):
        fld = any_field.field
        for code in range(0, fld.q, max(1, fld.q // 13)):
            assert abs(abs(literal_character(fld.from_int(code))) - 1) < 1e-12

    def test_orthogonality(self, any_field):
        residuals = literal_orthogonality_residuals(any_field.field)
        assert max(residuals) < 1e-9 * any_field.q


class TestQuarticGaussSum:
    def test_q5_value(self):
        fd = field_data(5, 1)
        expected = 1 + 4 * cmath.exp(2j * cmath.pi / 5)
        assert literal_gauss_sum(fd.field.one()) == pytest.approx(expected)

    def test_class_constancy(self, field_1mod4):
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        rng = random.Random(fd.q)
        for code in rng.sample(range(1, fd.q), min(50, fd.q - 1)):
            u = fd.field.from_int(code)
            l = index_of(u, fd.gen) % 4
            assert abs(literal_gauss_sum(u) - table.T[l]) < 1e-9 * fd.q

    def test_real_when_q_1_mod_8(self):
        for p, m in [(17, 1), (41, 1), (3, 2), (7, 2)]:
            fd = field_data(p, m)
            table = build_table(fd.field, fd.gen)
            assert all(abs(T.imag) < 1e-9 * fd.q for T in table.T)

    def test_zero_u_rejected(self):
        fd = field_data(5, 1)
        with pytest.raises(ValueError):
            literal_gauss_sum(fd.field.zero())


class TestGaussSumPolynomial:
    def test_q5_polynomial(self):
        fd = field_data(5, 1)
        assert denominator(5, fd.dec.s) == (1, 0, 10, 40, 205)

    def test_residuals_small(self, field_1mod4):
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        residuals = verify_gauss_sum_roots(table, fd.dec)
        assert max(residuals) < 1e-8 * fd.q * fd.q

    def test_vieta_sum_of_roots(self, field_1mod4):
        # x^3 coefficient is 0, so the four T values sum to ~0
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        assert abs(sum(table.T)) < 1e-9 * fd.q * fd.q

    def test_wrong_s_detected(self):
        fd = field_data(13, 1)
        table = build_table(fd.field, fd.gen)
        with pytest.raises(ResidualTooLargeError):
            verify_gauss_sum_roots(table, QuarticDecomposition(s=fd.dec.s + 4, t=fd.dec.t))


class TestLambdaSums:
    def test_at_zero_each_class_has_f_terms(self, field_1mod4):
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        f = (fd.q - 1) // 4
        for l in range(4):
            assert table.lambda_sum(l, fd.field.zero()) == pytest.approx(f)

    def test_classes_sum_to_minus_one(self, field_1mod4):
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        for code in range(1, fd.q):
            c = fd.field.from_int(code)
            total = sum(table.lambda_sum(l, c) for l in range(4))
            assert abs(total + 1) < 1e-9 * fd.q

    def test_matches_literal_sum(self, field_1mod4):
        # lambda_l(c) = sum over x in C_l of psi(-x*c), summed term by term
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        for c in fd.field.elements():
            for l in range(4):
                literal = sum(literal_character(-(fd.field.from_int(int(x)) * c))
                              for x in fd.classes.classes[l])
                assert abs(table.lambda_sum(l, c) - literal) < 1e-9 * fd.q, (fd.q, l, c)

    def test_q5_lambda0(self):
        fd = field_data(5, 1)
        table = build_table(fd.field, fd.gen)
        expected = cmath.exp(-2j * cmath.pi / 5)
        assert table.lambda_sum(0, fd.field.one()) == pytest.approx(expected)


class TestReconstruction:
    def test_pinned_values(self):
        fd5 = field_data(5, 1)
        t5 = build_table(fd5.field, fd5.gen)
        one = fd5.field.one()
        assert reconstruct_N(3, one, t5) == 12
        assert reconstruct_N(4, one, t5) == 16
        fd13 = field_data(13, 1)
        t13 = build_table(fd13.field, fd13.gen)
        assert reconstruct_N(2, fd13.field.one(), t13) == 8

    def test_equals_oracle(self, field_1mod4):
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        for code in range(1, fd.q):
            c = fd.field.from_int(code)
            for n in range(1, 7):
                assert reconstruct_N(n, c, table) == fd.oracle_N(code, n)

    def test_zero_c_rejected(self):
        fd = field_data(5, 1)
        table = build_table(fd.field, fd.gen)
        with pytest.raises(ValueError):
            reconstruct_N(2, fd.field.zero(), table)
