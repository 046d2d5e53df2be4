"""Rational generating functions, series expansion and the recurrence."""

import pytest

from diagquartic.errors import BadDenominatorError, QuarticYError
from diagquartic.expsums import build_table
from diagquartic.genfunc import (
    RationalGF,
    RationalPart,
    _correction_poly,
    denominator,
    gf_M,
    gf_N,
    is_quartic,
    recurrence_check,
)

from conftest import field_data


class TestRationalPart:
    def test_geometric_series(self):
        part = RationalPart(num=(0, 1), den=(1, -5))
        assert part.series(4) == [1, 5, 25, 125]

    def test_bad_denominator(self):
        with pytest.raises(BadDenominatorError):
            RationalPart(num=(0, 1), den=(2, 1))

    def test_sum_of_parts_linearity(self):
        p1 = RationalPart(num=(0, 1), den=(1, -3))
        p2 = RationalPart(num=(0, 0, 2), den=(1, 1, 4))
        combined = RationalGF(parts=(p1, p2))
        expected = [a + b for a, b in zip(p1.series(10), p2.series(10))]
        assert combined.series(10) == expected


class TestCoefficient:
    def test_matches_series(self, any_field):
        fd = any_field
        k = 4 if fd.q % 4 == 1 else 2
        reps = [fd.field.zero()] + [fd.gen.g ** i for i in range(k)]
        for rep in reps:
            gfs = [gf_N(fd.field, fd.gen, fd.dec, rep)]
            if not is_quartic(rep, fd.gen):
                gfs.append(gf_M(fd.field, fd.gen, fd.dec, rep))
            for gf in gfs:
                expected = gf.series(40)
                assert [gf.coefficient(n) for n in range(1, 41)] == expected, (fd.q, rep)

    @pytest.mark.parametrize("p", [13, 7], ids=["q=13", "q=7"])
    def test_large_n(self, p):
        fd = field_data(p, 1)
        y = fd.gen.g
        for gf in (gf_N(fd.field, fd.gen, fd.dec, fd.field.one()),
                   gf_M(fd.field, fd.gen, fd.dec, y)):
            assert gf.coefficient(2345) == gf.series(2345)[-1]

    def test_geometric_part(self):
        part = RationalPart(num=(0, 3), den=(1, -5))  # 3x / (1 - 5x)
        assert [part.coefficient(n) for n in range(1, 30)] == [
            3 * 5 ** (n - 1) for n in range(1, 30)]

    def test_numerator_as_long_as_denominator(self):
        # the q = 3 mod 4, c = 0 correction part of gf_N, q = 7
        part = RationalPart(num=(0, 0, -6), den=(1, 0, 7))
        assert [part.coefficient(n) for n in range(1, 30)] == part.series(29)

    def test_before_the_recurrence_starts(self):
        # s = 5, k = 2: indices below s + k come from the numerator directly
        part = RationalPart(num=(0, 2, -1, 7, 4, 9, -3, 5), den=(1, 3, -2))
        assert [part.coefficient(n) for n in range(1, 30)] == part.series(29)

    def test_index_below_one_rejected(self):
        with pytest.raises(ValueError):
            RationalPart(num=(0, 1), den=(1, -5)).coefficient(0)


class TestGfN:
    def test_q5_c0_parts(self):
        fd = field_data(5, 1)
        gf = gf_N(fd.field, fd.gen, fd.dec, fd.field.zero())
        assert gf.parts[0] == RationalPart(num=(0, 1), den=(1, -5))
        assert gf.parts[1] == RationalPart(num=(0, 0, -4, -24, -164),
                                           den=(1, 0, 10, 40, 205))

    def test_q7_square_c(self):
        fd = field_data(7, 1)
        gf = gf_N(fd.field, fd.gen, None, fd.field.one())
        assert gf.parts[0] == RationalPart(num=(0, 1), den=(1, -7))
        assert gf.parts[1] == RationalPart(num=(0, 1, 1), den=(1, 0, 7))

    def test_q7_nonsquare_c(self):
        fd = field_data(7, 1)
        gf = gf_N(fd.field, fd.gen, None, fd.field.from_int(3))
        assert gf.parts[1] == RationalPart(num=(0, -1, 1), den=(1, 0, 7))

    def test_q13_c1_parts(self):
        fd = field_data(13, 1)
        gf = gf_N(fd.field, fd.gen, fd.dec, fd.field.one())
        assert gf.parts[1] == RationalPart(num=(0, 3, -5, -15, 81),
                                           den=(1, 0, 26, -312, 1053))

    def test_series_equals_oracle(self, any_field):
        fd = any_field
        for code in range(fd.q):
            gf = gf_N(fd.field, fd.gen, fd.dec, fd.field.from_int(code))
            got = gf.series(8)
            assert got == [fd.oracle_N(code, n) for n in range(1, 9)], (fd.q, code)

    def test_q5_c0_series(self):
        fd = field_data(5, 1)
        gf = gf_N(fd.field, fd.gen, fd.dec, fd.field.zero())
        assert gf.series(5) == [1, 1, 1, 1, 1025]


class TestGfM:
    def test_q5_y2_parts(self):
        fd = field_data(5, 1)
        gf = gf_M(fd.field, fd.gen, fd.dec, fd.field.from_int(2))
        assert gf.parts[0] == RationalPart(num=(0, 5), den=(1, -5))
        assert gf.parts[1] == RationalPart(num=(0, -4, -24, 92),
                                           den=(1, 0, 10, 40, 205))
        assert gf.series(2) == [1, 1]

    def test_q7_y3_parts(self):
        fd = field_data(7, 1)
        gf = gf_M(fd.field, fd.gen, None, fd.field.from_int(3))
        assert gf.parts[0] == RationalPart(num=(0, 7), den=(1, -7))
        assert gf.parts[1] == RationalPart(num=(0, 6), den=(1, 0, 7))
        assert gf.series(1) == [13]

    def test_series_equals_twisted_oracle(self, any_field):
        fd = any_field
        from diagquartic import genfunc as gfmod
        for code in range(1, fd.q):
            y = fd.field.from_int(code)
            if gfmod.is_quartic(y, fd.gen):
                continue
            got = gf_M(fd.field, fd.gen, fd.dec, y).series(7)
            expected = [fd.oracle_M(y, n + 1) for n in range(1, 8)]
            assert got == expected, (fd.q, code)

    def test_quartic_y_rejected(self):
        fd = field_data(13, 1)
        with pytest.raises(QuarticYError):
            gf_M(fd.field, fd.gen, fd.dec, fd.field.from_int(3))  # 3 = g^4


class TestMissingDecomposition:
    def test_computed_when_omitted(self, field_1mod4):
        fd = field_1mod4
        for code in range(1, fd.q):
            x = fd.field.from_int(code)
            assert (gf_N(fd.field, fd.gen, None, x)
                    == gf_N(fd.field, fd.gen, fd.dec, x))
            if not is_quartic(x, fd.gen):
                assert (gf_M(fd.field, fd.gen, None, x)
                        == gf_M(fd.field, fd.gen, fd.dec, x))


class TestCorrectionTables:
    def test_sixteen_rows_printable(self, field_1mod4):
        fd = field_1mod4
        rows = [_correction_poly(fd.q, fd.dec.s, fd.dec.t, i) for i in range(4)]
        assert all(len(row) == 3 for row in rows)

    def test_first_coefficient_sign(self, field_1mod4):
        # class 0 carries +3x, the others -x
        fd = field_1mod4
        rows = [_correction_poly(fd.q, fd.dec.s, fd.dec.t, i) for i in range(4)]
        assert rows[0][0] == 3
        assert all(rows[i][0] == -1 for i in (1, 2, 3))


class TestRecurrence:
    def test_q5_explicit_coefficients(self):
        fd = field_data(5, 1)
        assert denominator(5, fd.dec.s)[1:] == (0, 10, 40, 205)

    def test_q1mod8_coefficient_vector(self):
        fd = field_data(17, 1)
        q, s = 17, fd.dec.s
        assert denominator(q, s)[1:] == (0, -6 * q, 8 * q * s,
                                         q * q - 4 * q * s * s)

    def test_oracle_counts_satisfy_recurrence(self, field_1mod4):
        fd = field_1mod4
        for code in range(1, fd.q):
            counts = [fd.oracle_N(code, n) for n in range(1, 9)]
            res = recurrence_check(fd.dec, fd.field.from_int(code), counts)
            assert res == [0, 0, 0, 0], (fd.q, code)

    def test_rejects_zero_c(self):
        fd = field_data(5, 1)
        with pytest.raises(ValueError):
            recurrence_check(fd.dec, fd.field.zero(), [fd.oracle_N(0, n) for n in range(1, 9)])


class TestDenominatorBridge:
    def test_reversal_of_gauss_sum_polynomial(self, field_1mod4):
        # den(x) = prod over l of (1 - T_{g^l} x), the reversal of the quartic
        # whose roots are the numeric Gauss sums, counted with multiplicity
        fd = field_1mod4
        expanded = [1]
        for T in build_table(fd.field, fd.gen).T:
            expanded = [a - T * b for a, b in zip(expanded + [0], [0] + expanded)]
        den = denominator(fd.q, fd.dec.s)
        assert all(abs(a - b) < 1e-9 * fd.q * fd.q for a, b in zip(expanded, den))
