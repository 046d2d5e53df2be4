"""Additive characters, Gauss-type sums and count reconstruction."""

import cmath
import dataclasses
import random

import pytest

from diagquartic import expsums
from diagquartic.cyclotomy import QuarticDecomposition
from diagquartic.errors import NotNearIntegerError, ResidualTooLargeError, WrongResidueClassError
from diagquartic.counting import count_N
from diagquartic.expsums import (
    build_table,
    reconstruct_max_n,
    reconstruct_N,
    verify_gauss_sum_roots,
)
from diagquartic.field import Field, find_generator, index_of, quartic_class
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


def lambda_sum(table, l, c):
    """lambda_l(c) as `reconstruct_N` reads it: the Gauss period eta_(l + ind(-c))."""
    return table.eta[(l + quartic_class(-c, table.gen)) % 4]


class TestInputChecks:
    @pytest.mark.parametrize("p, m", [(7, 1), (3, 3)])
    def test_gauss_sums_need_q_1_mod_4(self, p, m):
        fld = Field(p, m)
        with pytest.raises(WrongResidueClassError):
            build_table(fld, find_generator(fld))


class TestLambdaSums:
    def test_classes_sum_to_minus_one(self, field_1mod4):
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        for code in range(1, fd.q):
            c = fd.field.from_int(code)
            total = sum(lambda_sum(table, l, c) for l in range(4))
            assert abs(total + 1) < 1e-9 * fd.q

    def test_matches_literal_sum(self, field_1mod4):
        # lambda_l(c) = sum over x in C_l of psi(-x*c), summed term by term
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        for code in range(1, fd.q):
            c = fd.field.from_int(code)
            for l in range(4):
                literal = sum(literal_character(-(fd.field.from_int(int(x)) * c))
                              for x in fd.classes.classes[l])
                assert abs(lambda_sum(table, l, c) - literal) < 1e-9 * fd.q, (fd.q, l, c)

    def test_q5_lambda0(self):
        fd = field_data(5, 1)
        table = build_table(fd.field, fd.gen)
        expected = cmath.exp(-2j * cmath.pi / 5)
        assert lambda_sum(table, 0, fd.field.one()) == pytest.approx(expected)


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

    @pytest.mark.parametrize("p, m", [(5, 1), (13, 1), (29, 1), (7, 2), (11, 2), (65537, 1)],
                             ids=["q=5", "q=13", "q=29", "q=49", "q=121", "q=65537"])
    def test_exact_up_to_the_precision_bound(self, p, m):
        # one c per class; past the bound the double rounds to wrong counts
        # (13^16 > 2^50: N_17(1) over F_13 came out 60 too large)
        fld = Field(p, m)
        gen = find_generator(fld)
        table = build_table(fld, gen)
        nmax = reconstruct_max_n(fld.q)
        assert fld.q ** (nmax - 1) < 2**50 <= fld.q ** nmax
        for c in (gen.g ** l for l in range(4)):
            for n in range(1, nmax + 1):
                assert reconstruct_N(n, c, table) == count_N(c, n, fld, gen)
        # refused before any work: a table without sums would fail otherwise
        empty = dataclasses.replace(table, T=None, eta=None)
        with pytest.raises(ValueError, match="2\\^50"):
            reconstruct_N(nmax + 1, fld.one(), empty)

    @pytest.mark.parametrize("p, n, factor", [(13, 13, 1 + 1e-5), (5, 22, cmath.exp(1e-12j))],
                             ids=["q=13-scaled", "q=5-rotated"])
    def test_perturbed_sums_are_not_near_an_integer(self, p, n, factor):
        # scaled, N_13(1) lands 0.36 off an integer; rotated, N_22(1) keeps its
        # real part 0.0625 off, but |Im r| = 6232 is past 2^-40 sum |terms| = 278
        fld = Field(p, 1)
        gen = find_generator(fld)
        table = build_table(fld, gen)
        table.T = tuple(T * factor for T in table.T)
        with pytest.raises(NotNearIntegerError):
            reconstruct_N(n, fld.one(), table)

    def test_one_class_per_reconstruction(self, monkeypatch):
        fd = field_data(13, 1)
        table = build_table(fd.field, fd.gen)
        calls = []

        def counted(x, gen):
            calls.append(x)
            return quartic_class(x, gen)

        monkeypatch.setattr(expsums, "quartic_class", counted)
        for code in range(1, fd.q):
            reconstruct_N(3, fd.field.from_int(code), table)
        assert len(calls) == fd.q - 1

    def test_zero_c_rejected(self):
        fd = field_data(5, 1)
        table = build_table(fd.field, fd.gen)
        with pytest.raises(ValueError):
            reconstruct_N(2, fd.field.zero(), table)
