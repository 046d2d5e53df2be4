"""Solution counts: oracle, closed forms, cyclotomic assembly, twisted forms."""

import subprocess
import sys
from pathlib import Path

import pytest

from diagquartic import genfunc
from diagquartic.counting import (
    count_M,
    count_N,
    count_small,
    count_via_cyclotomy,
    oracle_count,
    oracle_histogram,
    power_profile,
)
from diagquartic.cyclotomy import quartic_decomposition
from diagquartic.errors import (
    FieldMismatchError,
    InvariantError,
    QuarticYError,
    TooLargeError,
    WrongResidueClassError,
    ZeroRHSError,
)

from diagquartic.field import ORACLE_COST_GUARD, Field, quartic_class

from conftest import field_data, literal_histogram


class TestPowerProfile:
    def test_q5_quartics(self):
        fd = field_data(5, 1)
        assert power_profile(fd.field) == [1, 4, 0, 0, 0]

    def test_q13_quartics(self):
        fd = field_data(13, 1)
        counts = power_profile(fd.field)
        quartics = {i for i in range(1, 13) if counts[i] == 4}
        assert quartics == {1, 3, 9}
        assert counts[0] == 1

    def test_q7_degenerates_to_squares(self):
        fd = field_data(7, 1)
        counts = power_profile(fd.field)
        assert set(counts[1:]) == {0, 2}
        assert {i for i in range(1, 7) if counts[i] == 2} == {1, 2, 4}

    def test_total_mass(self, any_field):
        assert sum(power_profile(any_field.field)) == any_field.q

    def test_broken_residue_rule_raises(self, monkeypatch):
        # one element enumerated twice puts 5 fourth roots on 1 in F_5
        fld = Field(5, 1)
        monkeypatch.setattr(fld, "elements", lambda: [*Field.elements(fld), fld.one()])
        with pytest.raises(InvariantError):
            power_profile(fld)

    def test_quadratic_character(self, any_field):
        # ind_g(c) is even exactly on the squares; for q = 3 mod 4 the class is
        # ind_g(c) mod 2, so class 0 is the squares (the test `gf_N` makes)
        fd = any_field
        squares = {(x * x).encode() for x in fd.field.elements() if not x.is_zero()}
        for code in range(1, fd.q):
            cls = quartic_class(fd.field.from_int(code), fd.gen)
            is_square = cls == 0 if fd.q % 4 == 3 else cls % 2 == 0
            assert is_square == (code in squares), (fd.q, code, cls)


class TestOracle:
    def test_q5_pairs(self):
        fd = field_data(5, 1)
        one = fd.field.one()
        assert oracle_count([one, one], fd.field.zero()) == 1
        assert oracle_count([one, fd.field.from_int(2)], fd.field.zero()) == 1

    def test_q5_triple(self):
        fd = field_data(5, 1)
        one = fd.field.one()
        assert oracle_count([one] * 3, one) == 12

    @pytest.mark.parametrize("p, m, n", [(5, 1, 1), (5, 1, 2), (5, 1, 3),
                                         (13, 1, 2), (3, 2, 2), (7, 1, 3),
                                         (7, 2, 2)])
    def test_convolution_matches_literal_enumeration(self, p, m, n):
        fd = field_data(p, m)
        coeffs = [fd.field.one()] * n
        assert oracle_histogram(fd.field, coeffs) == literal_histogram(coeffs)

    def test_general_coefficients(self):
        # the k-th coefficient from class d - 1 - k, so that each form mixes classes
        for p, m, n in [(13, 1, 3), (3, 2, 3), (7, 1, 2), (7, 2, 2)]:
            fd = field_data(p, m)
            d = 4 if fd.q % 4 == 1 else 2
            by_class = {quartic_class(x, fd.gen): x for x in list(fd.field.elements())[1:]}
            coeffs = [by_class[d - 1 - k] for k in range(n)]
            assert oracle_histogram(fd.field, coeffs) == literal_histogram(coeffs), (fd.q, n)

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError):
            oracle_histogram(field_data(5, 1).field, [])

    def test_no_variables_rejected_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        script = ("from diagquartic.counting import oracle_histogram\n"
                  "from diagquartic.field import Field\n"
                  "try:\n"
                  "    oracle_histogram(Field(5, 1), [])\n"
                  "except ValueError:\n"
                  "    print('ValueError')\n")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-O", "-c", script], cwd=src,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout.strip()) == (0, "ValueError"), done.stderr

    def test_addition_table_memory_guard(self):
        # 2 q^2 passes the cost guard, but the q x q table would take 3.7 GiB
        fld = Field(22349, 1)
        assert 2 * fld.q**2 <= ORACLE_COST_GUARD
        with pytest.raises(TooLargeError):
            oracle_histogram(fld, [fld.one(), fld.one()])

    def test_exact_past_int64(self):
        # N_25(c) on q = 13 is about 13^24 > 2^63: both routes stay exact
        fd = field_data(13, 1)
        one = fd.field.one()
        reps = [0] + [next(code for code in range(1, 13)
                           if quartic_class(fd.field.from_int(code), fd.gen) == i)
                      for i in range(4)]
        hist = oracle_histogram(fd.field, [one] * 25)
        for code in reps:
            c = fd.field.from_int(code)
            assert hist[code] > 2**63
            assert count_N(c, 25, fd.field, fd.gen, fd.dec) == hist[code], code


class TestClosedForms:
    def test_pinned_values(self):
        fd5 = field_data(5, 1)
        one5 = fd5.field.one()
        assert count_small(one5, 3, fd5.dec, fd5.field, fd5.gen) == 12
        assert count_small(one5, 4, fd5.dec, fd5.field, fd5.gen) == 16
        fd13 = field_data(13, 1)
        assert count_small(fd13.field.one(), 2, fd13.dec, fd13.field, fd13.gen) == 8

    def test_matches_oracle_everywhere(self, field_1mod4):
        fd = field_1mod4
        for code in range(1, fd.q):
            c = fd.field.from_int(code)
            for n in range(1, 5):
                assert (count_small(c, n, fd.dec, fd.field, fd.gen)
                        == fd.oracle_N(code, n)), (fd.q, code, n)

    def test_zero_rhs_rejected(self):
        fd = field_data(5, 1)
        with pytest.raises(ZeroRHSError):
            count_small(fd.field.zero(), 2, fd.dec, fd.field, fd.gen)

    def test_wrong_residue_class(self):
        fd = field_data(7, 1)
        from diagquartic.cyclotomy import QuarticDecomposition
        with pytest.raises(WrongResidueClassError):
            count_small(fd.field.one(), 2, QuarticDecomposition(1, 1),
                        fd.field, fd.gen)


class TestCountN:
    def test_oracle_equivalence(self, any_field):
        fd = any_field
        for code in range(fd.q):
            c = fd.field.from_int(code)
            for n in range(1, 9):
                assert count_N(c, n, fd.field, fd.gen, fd.dec) == fd.oracle_N(code, n)

    def test_pinned(self):
        fd5 = field_data(5, 1)
        assert count_N(fd5.field.zero(), 5, fd5.field, fd5.gen, fd5.dec) == 1025
        assert count_N(fd5.field.zero(), 2, fd5.field, fd5.gen, fd5.dec) == 1
        fd7 = field_data(7, 1)
        assert count_N(fd7.field.one(), 2, fd7.field, fd7.gen) == 8

    def test_class_invariance(self, field_1mod4):
        fd = field_1mod4
        from diagquartic.field import index_of
        for code in range(1, fd.q):
            c = fd.field.from_int(code)
            rep = fd.gen.g ** (index_of(c, fd.gen) % 4)
            for n in range(1, 6):
                assert (count_N(c, n, fd.field, fd.gen, fd.dec)
                        == count_N(rep, n, fd.field, fd.gen, fd.dec))

    def test_total_mass(self, any_field):
        fd = any_field
        for n in (1, 3, 5):
            total = sum(count_N(fd.field.from_int(code), n, fd.field, fd.gen, fd.dec)
                        for code in range(fd.q))
            assert total == fd.q**n


class TestCyclotomicRoute:
    def test_pinned(self):
        fd = field_data(13, 1)
        one = fd.field.one()
        assert count_via_cyclotomy(one, 1, fd.field, fd.gen) == 4
        assert count_via_cyclotomy(one, 2, fd.field, fd.gen) == 8
        fd5 = field_data(5, 1)
        assert count_via_cyclotomy(fd5.field.one(), 4, fd5.field, fd5.gen) == 16

    def test_matches_oracle(self, field_1mod4):
        fd = field_1mod4
        for code in range(1, fd.q):
            c = fd.field.from_int(code)
            for n in range(1, 5):
                assert (count_via_cyclotomy(c, n, fd.field, fd.gen)
                        == fd.oracle_N(code, n))

    def test_zero_rejected(self):
        fd = field_data(5, 1)
        with pytest.raises(ZeroRHSError):
            count_via_cyclotomy(fd.field.zero(), 2, fd.field, fd.gen)


class TestCountM:
    def test_pinned(self):
        fd5 = field_data(5, 1)
        y = fd5.field.from_int(2)
        assert count_M(y, 2, fd5.field, fd5.gen, fd5.dec) == 1
        assert count_M(y, 3, fd5.field, fd5.gen, fd5.dec) == 1
        fd7 = field_data(7, 1)
        assert count_M(fd7.field.from_int(3), 2, fd7.field, fd7.gen) == 13

    def test_quartic_y_rejected(self, any_field):
        fd = any_field
        with pytest.raises(QuarticYError):
            count_M(fd.field.one(), 2, fd.field, fd.gen, fd.dec)
        with pytest.raises(QuarticYError):
            count_M(fd.field.zero(), 2, fd.field, fd.gen, fd.dec)

    def test_matches_oracle(self, any_field):
        fd = any_field
        for code in range(1, fd.q):
            y = fd.field.from_int(code)
            if genfunc.is_quartic(y, fd.gen):
                continue
            for n in range(2, 9):
                assert count_M(y, n, fd.field, fd.gen, fd.dec) == fd.oracle_M(y, n), \
                    (fd.q, code, n)

    def test_relation_to_count_N(self, any_field):
        # M_n(y) = N_{n-1}(0) + (q-1) N_{n-1}(-y), for every q
        fd = any_field
        q = fd.q
        for code in range(1, q):
            y = fd.field.from_int(code)
            if genfunc.is_quartic(y, fd.gen):
                continue
            for n in (2, 4, 6):
                expected = (count_N(fd.field.zero(), n - 1, fd.field, fd.gen, fd.dec)
                            + (q - 1) * count_N(-y, n - 1, fd.field, fd.gen, fd.dec))
                assert count_M(y, n, fd.field, fd.gen, fd.dec) == expected



class TestFieldMismatch:
    def test_generator_element_and_field_must_agree(self):
        # counts read q from the Field argument, so F_13 with F_17's generator
        # gave 256 for N_3(3) (true 160) and 385 for M_3(3) (true 577)
        fd = field_data(17, 1)
        other = Field(13, 1)
        x, x13 = fd.field.from_int(3), other.from_int(3)
        calls = [lambda: count_small(x, 3, fd.dec, other, fd.gen),
                 lambda: count_small(x13, 3, fd.dec, fd.field, fd.gen),
                 lambda: quartic_decomposition(other, fd.gen),
                 lambda: genfunc.gf_N(other, fd.gen, fd.dec, x),
                 lambda: genfunc.gf_M(other, fd.gen, fd.dec, x)]
        for dec in (fd.dec, None):
            calls += [lambda dec=dec: count_N(x, 3, other, fd.gen, dec),
                      lambda dec=dec: count_M(x, 3, other, fd.gen, dec),
                      lambda dec=dec: count_M(x13, 3, fd.field, fd.gen, dec)]
        for call in calls:
            with pytest.raises(FieldMismatchError):
                call()
        assert count_N(x, 3, fd.field, fd.gen, fd.dec) == 160
        assert count_M(x, 3, fd.field, fd.gen, fd.dec) == 577
