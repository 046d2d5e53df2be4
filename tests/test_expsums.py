"""Additive characters mod primes ell = 1 (mod p), Gauss periods and count reconstruction."""

import dataclasses
import random

import numpy as np
import pytest
import sympy

from diagquartic import expsums
from diagquartic import field as field_module
from diagquartic.cyclotomy import QuarticDecomposition
from diagquartic.errors import WrongResidueClassError
from diagquartic.counting import count_N
from diagquartic.expsums import (
    build_table,
    reconstruct_max_n,
    reconstruct_N,
    reconstruct_series,
    verify_gauss_sum_roots,
)
from diagquartic.field import Field, find_generator, index_of, quartic_class, trace
from diagquartic.genfunc import denominator

from conftest import (
    character_prime,
    field_data,
    literal_character,
    literal_gauss_sum,
    literal_omega,
    literal_orthogonality_residuals,
)


def characters(table):
    """(ell, w, eta_0 .. eta_3) for each row of the table, w the character's root."""
    p = table.gen.field.p
    return [(ell, literal_omega(ell, p), eta) for ell, *eta in table.rows.tolist()]


class TestAdditiveCharacter:
    def test_at_zero(self, any_field):
        ell, omega = character_prime(any_field.field.p)
        assert literal_character(any_field.field.zero(), omega, ell) == 1

    def test_unit_modulus(self, any_field):
        # |psi| = 1 mod ell: every value is a p-th root of unity
        fld = any_field.field
        ell, omega = character_prime(fld.p)
        assert omega != 1
        for code in range(0, fld.q, max(1, fld.q // 13)):
            assert pow(literal_character(fld.from_int(code), omega, ell), fld.p, ell) == 1

    def test_orthogonality(self, any_field):
        ell, omega = character_prime(any_field.field.p)
        assert set(literal_orthogonality_residuals(any_field.field, omega, ell)) == {0}


class TestQuarticGaussSum:
    def test_q5_value(self):
        # F_5: v^4 = 1 for every v != 0, so T_1 = 1 + 4 psi(1) = 1 + 4 w
        fd = field_data(5, 1)
        for ell, omega, eta in characters(build_table(fd.field, fd.gen)):
            assert literal_gauss_sum(fd.field.one(), omega, ell) == (1 + 4 * omega) % ell
            assert (1 + 4 * eta[0]) % ell == (1 + 4 * omega) % ell

    def test_class_constancy(self, field_1mod4):
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        rng = random.Random(fd.q)
        for code in rng.sample(range(1, fd.q), min(50, fd.q - 1)):
            u = fd.field.from_int(code)
            l = index_of(u, fd.gen) % 4
            for ell, omega, eta in characters(table):
                assert literal_gauss_sum(u, omega, ell) == (1 + 4 * eta[l]) % ell

    def test_real_when_q_1_mod_8(self):
        # -1 lies in C_0, so each period is fixed by conjugation, w -> w^-1
        for p, m in [(17, 1), (41, 1), (3, 2), (7, 2)]:
            fd = field_data(p, m)
            for ell, omega, eta in characters(build_table(fd.field, fd.gen)):
                for l in range(4):
                    conjugate = sum(pow(omega, -trace(fd.field.from_int(int(x))), ell)
                                    for x in np.flatnonzero(fd.classes.class_of == l))
                    assert conjugate % ell == eta[l]

    def test_zero_u_rejected(self):
        fd = field_data(5, 1)
        ell, omega = character_prime(5)
        with pytest.raises(ValueError):
            literal_gauss_sum(fd.field.zero(), omega, ell)


class TestTable:
    @pytest.mark.parametrize("p, m", [(5, 1), (13, 1), (3, 4), (73, 2)])
    def test_three_largest_primes_below_2_31(self, p, m):
        fld = Field(p, m)
        rows = build_table(fld, find_generator(fld)).rows
        assert (rows.shape, rows.dtype, rows.nbytes) == ((3, 5), np.int64, 120)
        primes = [ell for ell in range(2**31 - 1, int(rows[-1, 0]) - 1, -1)
                  if ell % p == 1 and sympy.isprime(ell)]
        assert rows[:, 0].tolist() == primes
        assert ((0 <= rows[:, 1:]) & (rows[:, 1:] < rows[:, :1])).all()


class TestGaussSumPolynomial:
    def test_q5_polynomial(self):
        fd = field_data(5, 1)
        assert denominator(5, fd.dec.s) == (1, 0, 10, 40, 205)

    def test_residuals_small(self, field_1mod4):
        # every residue P(T_l) mod ell is 0
        fd = field_1mod4
        table = build_table(fd.field, fd.gen)
        assert verify_gauss_sum_roots(table, fd.dec) == [[0] * 4] * 3

    def test_vieta_sum_of_roots(self, field_1mod4):
        # the x^3 coefficient is 0, so the four T values sum to 0 mod each prime
        fd = field_1mod4
        for ell, _, eta in characters(build_table(fd.field, fd.gen)):
            assert sum(1 + 4 * e for e in eta) % ell == 0

    def test_wrong_s_detected(self):
        fd = field_data(13, 1)
        table = build_table(fd.field, fd.gen)
        residues = verify_gauss_sum_roots(table, QuarticDecomposition(s=fd.dec.s + 4,
                                                                      t=fd.dec.t))
        assert all(any(row) for row in residues)


def lambda_sum(eta, gen, l, c):
    """lambda_l(c) as `reconstruct_N` reads it: the Gauss period eta_(l + ind(-c))."""
    return eta[(l + quartic_class(-c, gen)) % 4]


class TestInputChecks:
    @pytest.mark.parametrize("p, m", [(7, 1), (3, 3)])
    def test_gauss_sums_need_q_1_mod_4(self, p, m):
        fld = Field(p, m)
        with pytest.raises(WrongResidueClassError):
            build_table(fld, find_generator(fld))


class TestLambdaSums:
    def test_classes_sum_to_minus_one(self, field_1mod4):
        fd = field_1mod4
        for ell, _, eta in characters(build_table(fd.field, fd.gen)):
            for code in range(1, fd.q):
                c = fd.field.from_int(code)
                assert sum(lambda_sum(eta, fd.gen, l, c) for l in range(4)) % ell == ell - 1

    def test_matches_literal_sum(self, field_1mod4):
        # lambda_l(c) = sum over x in C_l of psi(-x*c), summed term by term
        fd = field_1mod4
        for ell, omega, eta in characters(build_table(fd.field, fd.gen)):
            for code in range(1, fd.q):
                c = fd.field.from_int(code)
                for l in range(4):
                    literal = sum(literal_character(-(fd.field.from_int(int(x)) * c),
                                                    omega, ell)
                                  for x in np.flatnonzero(fd.classes.class_of == l)) % ell
                    assert lambda_sum(eta, fd.gen, l, c) == literal, (fd.q, ell, l, c)

    def test_q5_lambda0(self):
        # C_0 of F_5 is {1}, so lambda_0(1) = psi(-1) = w^-1
        fd = field_data(5, 1)
        for ell, omega, eta in characters(build_table(fd.field, fd.gen)):
            assert lambda_sum(eta, fd.gen, 0, fd.field.one()) == pow(omega, -1, ell)


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

    @pytest.mark.parametrize("p, m", [(5, 1), (13, 1), (29, 1), (7, 2), (11, 2), (65537, 1),
                                      (3, 12), (1048573, 1)],
                             ids=["q=5", "q=13", "q=29", "q=49", "q=121", "q=65537", "q=3^12",
                                  "q=1048573"])
    def test_exact_up_to_the_precision_bound(self, p, m):
        # one c per class, at every n the route admits; on F_65537 the third prime
        # joins at n = 4
        fld = Field(p, m)
        gen = find_generator(fld)
        table = build_table(fld, gen)
        nmax = reconstruct_max_n(fld.q)
        assert fld.q ** (nmax - 1) < 2**50 <= fld.q ** nmax
        for c in (gen.g ** l for l in range(4)):
            counts = [count_N(c, n, fld, gen) for n in range(1, nmax + 1)]
            assert reconstruct_series(nmax, c, table) == counts
            assert [reconstruct_N(n, c, table) for n in range(1, nmax + 1)] == counts
        # refused before any work: a table without periods would fail otherwise
        empty = dataclasses.replace(table, rows=None)
        for past in (nmax + 1, 10**9):
            with pytest.raises(ValueError, match="2\\^50"):
                reconstruct_N(past, fld.one(), empty)
            with pytest.raises(ValueError, match="2\\^50"):
                reconstruct_series(past, fld.one(), empty)
        with pytest.raises(ValueError):
            reconstruct_series(0, fld.one(), empty)
        with pytest.raises(ValueError):
            reconstruct_series(nmax, fld.zero(), empty)

    def test_a_mutant_period_changes_every_count(self, monkeypatch):
        # eta_0 + 1 mod the first prime, which every reconstruction reads
        monkeypatch.setattr(field_module, "_TABLES", {})
        fld = Field(13, 1)
        gen = find_generator(fld)
        rows = build_table(fld, gen).rows.copy()
        rows[0, 1] = (rows[0, 1] + 1) % rows[0, 0]
        field_module._TABLES["periods", gen.g] = rows
        table = build_table(fld, gen)
        assert table.rows is rows
        for c in (gen.g ** l for l in range(4)):
            for n in range(1, reconstruct_max_n(fld.q) + 1):
                assert reconstruct_N(n, c, table) != count_N(c, n, fld, gen), (c, n)

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
