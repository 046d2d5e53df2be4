"""Rational generating functions, series expansion and the recurrence."""

import pytest

from diagquartic.errors import BadDenominatorError, QuarticYError
from diagquartic.genfunc import (
    RationalGF,
    RationalPart,
    correction_table,
    denominator_recurrence,
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
        table = correction_table(fd.q, fd.dec.s, fd.dec.t)
        assert set(table) == {0, 1, 2, 3}
        assert all(len(row) == 3 for row in table.values())

    def test_first_coefficient_sign(self, field_1mod4):
        # class 0 carries +3x, the others -x
        fd = field_1mod4
        table = correction_table(fd.q, fd.dec.s, fd.dec.t)
        assert table[0][0] == 3
        assert all(table[i][0] == -1 for i in (1, 2, 3))


class TestRecurrence:
    def test_q5_explicit_coefficients(self):
        fd = field_data(5, 1)
        assert denominator_recurrence(5, fd.dec.s) == (0, 10, 40, 205)

    def test_q1mod8_coefficient_vector(self):
        fd = field_data(17, 1)
        q, s = 17, fd.dec.s
        assert denominator_recurrence(q, s) == (0, -6 * q, 8 * q * s,
                                                q * q - 4 * q * s * s)

    def test_oracle_counts_satisfy_recurrence(self, field_1mod4):
        fd = field_1mod4
        for code in range(1, fd.q):
            counts = [fd.oracle_N(code, n) for n in range(1, 9)]
            res = recurrence_check(fd.field, fd.gen, fd.dec,
                                   fd.field.from_int(code), 8, counts=counts)
            assert res == [0, 0, 0, 0], (fd.q, code)

    def test_rejects_zero_c(self):
        fd = field_data(5, 1)
        with pytest.raises(ValueError):
            recurrence_check(fd.field, fd.gen, fd.dec, fd.field.zero(), 8)


class TestDenominatorBridge:
    def test_reversal_of_gauss_sum_polynomial(self, field_1mod4):
        # denominator coefficients are the reversed Gauss-sum quartic
        from diagquartic.expsums import gauss_sum_polynomial
        from diagquartic.genfunc import _denominator
        fd = field_1mod4
        poly = gauss_sum_polynomial(fd.q, fd.dec.s)  # coefficients of x^4 .. x^0
        den = _denominator(fd.q, fd.dec.s)          # coefficients of 1 .. x^4
        # den(x) = x^4 * poly(1/x): the two storage orders cancel out
        assert poly == den
