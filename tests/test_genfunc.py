"""Rational generating functions, series expansion and the recurrence."""

import random

import pytest
import sympy

from diagquartic import cyclotomy, genfunc
from diagquartic.counting import count_M, count_N
from diagquartic.cyclotomy import QuarticDecomposition, quartic_decomposition
from diagquartic.errors import BadDenominatorError, InvariantError, QuarticYError
from diagquartic.expsums import build_table
from diagquartic.field import (BUILD_CACHE_SIZE, Field, _mulmod, _powmod, find_generator,
                               quartic_class)
from diagquartic.genfunc import (
    SERIES_BELOW,
    RationalGF,
    RationalPart,
    _class_gf,
    _class_part,
    _squares,
    denominator,
    gf_M,
    gf_N,
    recurrence_check,
)

from conftest import ALL_FIELDS, field_data


class TestRationalPart:
    def test_geometric_series(self):
        part = RationalPart(num=(0, 1), den=(1, -5))
        assert part.series(4) == [1, 5, 25, 125]

    def test_bad_denominator(self):
        with pytest.raises(BadDenominatorError):
            RationalPart(num=(0, 1), den=(2, 1))

    def test_no_terms_below_count_one(self):
        part = RationalPart(num=(0, 2, -1, 7, 4, 9, -3, 5), den=(1, 3, -2))
        assert [part.series(count) for count in (0, -1, -5)] == [[], [], []]

    def test_sum_of_parts_linearity(self):
        p1 = RationalPart(num=(0, 1), den=(1, -3))
        p2 = RationalPart(num=(0, 0, 2), den=(1, 1, 4))
        combined = RationalGF(parts=(p1, p2))
        expected = [a + b for a, b in zip(p1.series(10), p2.series(10))]
        assert combined.series(10) == expected


class TestPowmodModDenominator:
    """`_powmod` with `_mulmod` in Z[x] mod P, P = x^k + den[1] x^(k-1) + ... + den[k]
    (the ring (den[::-1], 0)), against a literal chain: the schoolbook product, then
    long division."""

    @staticmethod
    def _times(a, b, den):
        k = len(den) - 1
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        while len(prod) > k:
            top = prod.pop()
            for j in range(1, k + 1):
                prod[len(prod) - j] -= top * den[j]
        return prod

    def _check_chain(self, a, den, count=64):
        ring = (den[::-1], 0)
        chain = a
        for n in range(1, count + 1):
            power = _powmod(a, n, _mulmod, ring)
            assert power == chain, (a, den, n)
            # two equal but distinct lists take the general product
            assert _mulmod(power, list(power), ring) == _mulmod(power, power, ring)
            chain = self._times(chain, a, den)

    @pytest.mark.parametrize("den", [denominator(13, -3), denominator(49, -7), (1, 0, 7)],
                             ids=["q=13", "q=49", "q=7"])
    def test_matches_a_literal_chain(self, den):
        k = len(den) - 1
        for a in ([0, 1] + [0] * (k - 2), [2, -1, 3, 5][:k]):
            self._check_chain(a, den)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_random_denominators_with_zero_taps(self, k):
        # like the gf parts, whose den[1] is 0, some taps vanish
        rng = random.Random(k)
        for _ in range(4):
            den = (1,) + tuple(rng.randint(-50, 50) if rng.random() < 0.6 else 0
                               for _ in range(k))
            a = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(k)]
            self._check_chain(a, den, 32)
            self._check_chain(([0, 1] + [0] * k)[:k], den, 32)


class TestCoefficient:
    def test_matches_series(self, any_field):
        fd = any_field
        k = 4 if fd.q % 4 == 1 else 2
        reps = [fd.field.zero()] + [fd.gen.g ** i for i in range(k)]
        for rep in reps:
            gfs = [gf_N(fd.field, fd.gen, fd.dec, rep)]
            if not rep.is_zero() and quartic_class(rep, fd.gen) != 0:
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

    @pytest.mark.parametrize("den", [(1,), (1, -3), (1, 0, 7), (1, 2, -5),
                                     (1, 0, 10, 40, 205), (1, -1, 3, -4, 2),
                                     (1, 0, 0, 0, 7), (1, 3, 0), (1, 0, 0, 5, 0)])
    @pytest.mark.parametrize("num", [(0, 1), (0, 2, -1, 7, 4, 9, -3, 5),
                                     tuple(range(-3, SERIES_BELOW + 10))],
                             ids=["short-num", "long-num", "num-past-series-threshold"])
    def test_every_index_on_both_sides_of_the_hankel_threshold(self, num, den):
        # k in {0, 1, 2, 4}: the one power for a one-tap denominator 1 + d x^k from
        # index s (below s, at s and past it with the long numerators), the series
        # below SERIES_BELOW (or s + 2, when that passes it) and the Hankel form from
        # there, for one-tap and multi-tap denominators, each with both parities
        # of n - s.  A float equal to the count passes ==, so the type is checked.
        part = RationalPart(num=num, den=den)
        top = 2 * (max(1, len(num) - len(den) + 1) + SERIES_BELOW)
        values = [part.coefficient(n) for n in range(1, top + 1)]
        assert values == part.series(top)
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("p", [65537, 1048573, 65519])
    def test_counts_match_the_series_across_the_series_threshold(self, p):
        # the largeq-queries range and past SERIES_BELOW, at c = 0, one c per class
        # and one y per non-quartic class, through the entry points `count` prints
        fld = Field(p, 1)
        gen = find_generator(fld)
        dec = quartic_decomposition(fld, gen) if p % 4 == 1 else None
        reps = [gen.g ** l for l in range(len(gen.class_roots))]
        top = SERIES_BELOW + 8
        for c in [fld.zero()] + reps:
            values = [count_N(c, n, fld, gen, dec) for n in range(1, top + 1)]
            assert values == gf_N(fld, gen, dec, c).series(top), (p, c)
            assert all(type(v) is int for v in values)
        for y in reps[1:]:
            values = [count_M(y, n + 1, fld, gen, dec) for n in range(1, top + 1)]
            assert values == gf_M(fld, gen, dec, y).series(top), (p, y)
            assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("p, m", [(13, 1), (7, 2), (65521, 1), (65519, 1), (7, 7)],
                             ids=["q=13", "q=49", "q=65521", "q=65519", "q=823543"])
    def test_coefficient_3000(self, p, m):
        fld = Field(p, m)
        gen = find_generator(fld)
        reps = [gen.g ** l for l in range(len(gen.class_roots))]
        gfs = ([gf_N(fld, gen, None, c) for c in [fld.zero()] + reps]
               + [gf_M(fld, gen, None, y) for y in reps[1:]])
        for gf in gfs:
            assert gf.coefficient(3000) == gf.series(3000)[-1]

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


def literal_series(num, den, count):
    """c_1 .. c_count of num/den, den[0] = 1, from c_j = num[j] - sum_(i>=1) den[i] c_(j-i),
    every tap read, c_j = 0 below 0."""
    coeffs = []
    for j in range(count + 1):
        coeffs.append((num[j] if j < len(num) else 0)
                      - sum(den[i] * coeffs[j - i] for i in range(1, min(j, len(den) - 1) + 1)))
    return coeffs[1:]


def kept_terms(part):
    """How many of c_1, c_2, ... the part keeps (its prefix also holds c_(-k) .. c_0)."""
    return max(0, len(part._kept) - len(part.den))


def kept_bound(part):
    k = len(part.den) - 1
    return max(SERIES_BELOW, max(1, len(part.num) - k) + 2 * k)


class TestKeptPrefix:
    ONE_TAP = [(1, -3), (1, 0, 7), (1, 0, 0, 0, 7)]
    MULTI_TAP = [(1, 2, -5), (1, 0, 10, 40, 205)]
    NUMS = {"short-num": (0, 1), "num-past-series-threshold": tuple(range(-3, SERIES_BELOW + 10))}

    @pytest.mark.parametrize("den", ONE_TAP + MULTI_TAP)
    @pytest.mark.parametrize("num", NUMS.values(), ids=NUMS.keys())
    def test_reads_in_either_order(self, num, den):
        # descending n first, so the early reads find the prefix short and the later
        # ones find it long; then ascending on the same part, across SERIES_BELOW
        part = RationalPart(num=num, den=den)
        top = max(1, len(num) - len(den) + 1) + SERIES_BELOW + 12
        expected = literal_series(num, den, top)
        order = list(range(top, 0, -1)) + list(range(1, top + 1))
        assert [part.coefficient(n) for n in order] == [expected[n - 1] for n in order]
        assert part.series(top) == expected

    def test_series_lists_are_copies(self):
        fd = field_data(13, 1)
        gf = gf_N(fd.field, fd.gen, fd.dec, fd.field.one())
        part = gf.parts[1]
        expected = literal_series(part.num, part.den, 40)
        for listed in (part.series(40), gf.series(40), part.series(SERIES_BELOW * 3)):
            listed[:] = [-1] * len(listed)
        # the shared generating function of a later call reads unchanged terms
        again = gf_N(fd.field, fd.gen, fd.dec, fd.field.one())
        assert again is gf
        assert [part.coefficient(n) for n in range(1, 41)] == expected
        assert part.series(40) == expected
        geometric = literal_series(gf.parts[0].num, gf.parts[0].den, 40)
        assert again.series(40) == [a + b for a, b in zip(geometric, expected)]
        assert again.series(8) == [fd.oracle_N(1, n) for n in range(1, 9)]

    @pytest.mark.parametrize("den", ONE_TAP + MULTI_TAP + [(1,)])
    @pytest.mark.parametrize("num", NUMS.values(), ids=NUMS.keys())
    def test_prefix_stays_within_its_bound(self, num, den):
        part = RationalPart(num=num, den=den)
        assert part.coefficient(10**4) == literal_series(num, den, 10**4)[-1]
        assert kept_terms(part) <= kept_bound(part)
        assert len(part.series(3 * 10**3)) == 3 * 10**3
        assert kept_terms(part) <= kept_bound(part)

    def test_equality_and_hash_ignore_the_prefix(self):
        read, fresh = (RationalPart(num=(0, 3, -5, -15, 81), den=(1, 0, 26, -312, 1053))
                       for _ in range(2))
        read.coefficient(SERIES_BELOW - 1)
        assert kept_terms(read) > kept_terms(fresh) == 0
        assert read == fresh and hash(read) == hash(fresh)


class TestWarmRead:
    @pytest.mark.parametrize("p", [65537, 65521, 65519])
    def test_repeat_count_is_a_lookup(self, monkeypatch, p):
        # after one read below SERIES_BELOW, a repeat count runs no recurrence and no
        # x^h mod P, on every part of every class
        fld = Field(p, 1)
        gen = find_generator(fld)
        reps = [gen.g ** l for l in range(len(gen.class_roots))]
        ns = (1, 2, 5, 16, SERIES_BELOW - 1)

        def counts():
            return ([count_N(c, n, fld, gen) for c in [fld.zero()] + reps for n in ns]
                    + [count_M(y, n + 1, fld, gen) for y in reps[1:] for n in ns])
        first, calls, terms = counts(), [], RationalPart._terms

        def extended(part, count):
            calls.append(("_terms", count))
            return terms(part, count)

        def powered(*args):
            calls.append(("_powmod", args[1]))
            return _powmod(*args)
        monkeypatch.setattr(RationalPart, "_terms", extended)
        monkeypatch.setattr(genfunc, "_powmod", powered)
        assert (counts(), calls) == (first, [])

    @pytest.mark.parametrize("p", [7, 13, 65521])
    def test_every_part_reads_its_series_below_the_threshold(self, p):
        # one-tap parts too: F_7's correction part over 1 + 7x^2 and every geometric
        # part keep their series, which a fresh part read from the top fills at once
        fld = Field(p, 1)
        gen = find_generator(fld)
        reps = [gen.g ** l for l in range(len(gen.class_roots))]
        gfs = ([gf_N(fld, gen, None, c) for c in [fld.zero()] + reps]
               + [gf_M(fld, gen, None, y) for y in reps[1:]])
        parts = [part for gf in gfs for part in gf.parts]
        if p == 7:
            assert (1, 0, 7) in {part.den for part in parts}
        top = SERIES_BELOW - 1
        for part in parts:
            fresh = RationalPart(num=part.num, den=part.den)
            values = [fresh.coefficient(n) for n in range(top, 0, -1)][::-1]
            assert values == [part.series(n)[-1] for n in range(1, top + 1)], part
            assert [part.coefficient(n) for n in range(1, top + 1)] == values, part
            assert kept_terms(fresh) == top


def hankel(part, b):
    """H_ij = c_(s+b+i+j), i, j < k, from the literal series."""
    k = len(part.den) - 1
    s = max(1, len(part.num) - k)
    c = [0] + literal_series(part.num, part.den, s + b + 2 * k)
    return [[c[s + b + i + j] for j in range(k)] for i in range(k)]


def past_the_series(part):
    """n past SERIES_BELOW with both parities of n - s, near it and far from it."""
    s = max(1, len(part.num) - len(part.den) + 1)
    low = max(s + 2, SERIES_BELOW)
    return [low, low + 1, 3 * low, 3 * low + 1]


class TestSumOfSquares:
    """The Hankel form r^T H r of `coefficient` as `_squares`' sum of squares."""

    @staticmethod
    def form(pivots, x):
        value = 0
        for hv, d in reversed(pivots):
            y = sum(h * xi for h, xi in zip(hv, x))
            assert (y * y + value) % d == 0
            value = (y * y + value) // d
        return value

    def check_part(self, part):
        top = max(past_the_series(part))
        expected = literal_series(part.num, part.den, top)
        for n in past_the_series(part):
            assert part.coefficient(n) == expected[n - 1] == part.series(n)[-1], (part, n)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_random_symmetric_forms(self, k):
        # small entries make zero diagonals, and zero pivots after a step, common
        rng = random.Random(k)
        for _ in range(200):
            H = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1):
                    H[i][j] = H[j][i] = rng.choice([0, 0, 1, -1, rng.randint(-10**6, 10**6)])
            pivots = _squares(H)
            assert len(pivots) == sympy.Matrix(H).rank()
            for _ in range(5):
                x = [rng.randint(-10**30, 10**30) for _ in range(k)]
                assert self.form(pivots, x) == sum(
                    x[i] * H[i][j] * x[j] for i in range(k) for j in range(k))

    def test_every_class_of_49_has_rank_2(self):
        fd = field_data(7, 2)
        reps = [fd.gen.g ** l for l in range(4)]
        gfs = ([gf_N(fd.field, fd.gen, fd.dec, c) for c in [fd.field.zero()] + reps]
               + [gf_M(fd.field, fd.gen, fd.dec, y) for y in reps[1:]])
        for gf in gfs:
            part = gf.parts[1]
            self.check_part(part)
            assert sorted(part._pivots) == [0, 1]
            for b, pivots in part._pivots.items():
                assert len(pivots) == 2 == sympy.Matrix(hankel(part, b)).rank()

    def test_zero_diagonal(self):
        # c_1 .. c_5 = 0, 1, 0, -2, 0: for b = 0 the diagonal of H is zero and the first
        # pivot is e_i + e_j
        part = RationalPart(num=(0, 0, 1, 1), den=(1, 1, 2, 2))
        H = hankel(part, 0)
        assert [H[i][i] for i in range(3)] == [0, 0, 0] and any(map(any, H))
        self.check_part(part)
        hv, d = part._pivots[0][0]
        assert d == 2 and hv == [1, 1, -2]

    def test_all_zero_part(self):
        part = RationalPart(num=(0, 0, 0, 0, 0), den=(1, 0, 10, 40, 205))
        self.check_part(part)
        assert part._pivots == {0: [], 1: []}

    @pytest.mark.parametrize("k", range(1, 6))
    def test_random_parts(self, k):
        rng = random.Random(100 + k)
        for _ in range(12):
            den = (1,) + tuple(rng.choice([0, rng.randint(-30, 30)]) for _ in range(k))
            num = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, k + 3)))
            self.check_part(RationalPart(num=num, den=den))


class TestSharedGeneratingFunctions:
    def test_one_instance_per_class(self):
        fd = field_data(13, 1)
        reps = [fd.gen.g ** l for l in range(4)]
        for c in [fd.field.zero()] + reps:
            other = c * fd.gen.g ** 4 if not c.is_zero() else c  # same class
            assert gf_N(fd.field, fd.gen, fd.dec, c) is gf_N(fd.field, fd.gen, None, other)
        for y in reps[1:]:
            assert gf_M(fd.field, fd.gen, fd.dec, y) is gf_M(fd.field, fd.gen, None, y)
        assert gf_N(fd.field, fd.gen, fd.dec, reps[1]) is not gf_M(fd.field, fd.gen, fd.dec,
                                                                   reps[1])

    def test_another_decomposition_is_another_entry(self):
        fd = field_data(13, 1)
        broken = QuarticDecomposition(s=fd.dec.s, t=fd.dec.t + 1)
        g = fd.gen.g  # class 1, whose numerator reads t
        sound, wrong = gf_N(fd.field, fd.gen, fd.dec, g), gf_N(fd.field, fd.gen, broken, g)
        assert sound != wrong
        assert gf_N(fd.field, fd.gen, fd.dec, g) is sound
        assert sound.series(8) == [fd.oracle_N(g.encode(), n) for n in range(1, 9)]

    def test_memo_is_bounded_by_the_fields_kept(self):
        assert _class_gf.cache_info().maxsize == 8 * BUILD_CACHE_SIZE
        # eight classes per field: c = 0, four of c and three non-quartic ones of y
        fd = field_data(13, 1)
        _class_gf.cache_clear()
        reps = [fd.gen.g ** l for l in range(4)]
        for c in [fd.field.zero()] + reps:
            gf_N(fd.field, fd.gen, fd.dec, c)
        for y in reps[1:]:
            gf_M(fd.field, fd.gen, fd.dec, y)
        assert _class_gf.cache_info().currsize == 8


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
        for code in range(1, fd.q):
            y = fd.field.from_int(code)
            if quartic_class(y, fd.gen) == 0:
                continue
            got = gf_M(fd.field, fd.gen, fd.dec, y).series(7)
            expected = [fd.oracle_M(y, n + 1) for n in range(1, 8)]
            assert got == expected, (fd.q, code)

    def test_quartic_y_rejected(self):
        fd = field_data(13, 1)
        with pytest.raises(QuarticYError):
            gf_M(fd.field, fd.gen, fd.dec, fd.field.from_int(3))  # 3 = g^4


class TestMissingDecomposition:
    def test_found_once_per_generator(self, monkeypatch):
        calls, decompose = [], cyclotomy.quartic_decomposition

        def counted(fld, gen):
            calls.append(fld.q)
            return decompose(fld, gen)
        monkeypatch.setattr(cyclotomy, "quartic_decomposition", counted)
        fld = Field(13, 1)
        gen = find_generator(fld)
        values = [(count_N(fld.from_int(code), 6, fld, gen), count_M(gen.g, 6, fld, gen),
                   gf_N(fld, gen, None, fld.zero()).coefficient(3)) for code in range(13)]
        assert calls == [13]
        dec = decompose(fld, gen)
        assert values == [(count_N(fld.from_int(code), 6, fld, gen, dec),
                           count_M(gen.g, 6, fld, gen, dec),
                           gf_N(fld, gen, dec, fld.zero()).coefficient(3)) for code in range(13)]

    def test_failed_search_raises_on_every_read(self, monkeypatch):
        def failing(fld, gen):
            raise InvariantError("injected defect")
        monkeypatch.setattr(cyclotomy, "quartic_decomposition", failing)
        fld = Field(13, 1)
        gen = find_generator(fld)
        for _ in range(2):
            with pytest.raises(InvariantError):
                count_N(fld.one(), 4, fld, gen)
        monkeypatch.undo()
        assert count_N(fld.one(), 4, fld, gen) == count_N(fld.one(), 4, fld, gen,
                                                          quartic_decomposition(fld, gen))

    def test_computed_when_omitted(self, field_1mod4):
        fd = field_1mod4
        for code in range(1, fd.q):
            x = fd.field.from_int(code)
            assert (gf_N(fd.field, fd.gen, None, x)
                    == gf_N(fd.field, fd.gen, fd.dec, x))
            if quartic_class(x, fd.gen) != 0:
                assert (gf_M(fd.field, fd.gen, None, x)
                        == gf_M(fd.field, fd.gen, fd.dec, x))


class TestCorrectionTables:
    def test_sixteen_rows_printable(self, field_1mod4):
        fd = field_1mod4
        rows = [_class_part(fd.q, fd.dec.s, fd.dec.t, fd.q % 8, i)[0] for i in range(4)]
        assert all(len(row) == 5 for row in rows)

    def test_first_coefficient_sign(self, field_1mod4):
        # class 0 carries +3x, the others -x
        fd = field_1mod4
        rows = [_class_part(fd.q, fd.dec.s, fd.dec.t, fd.q % 8, i)[0] for i in range(4)]
        assert rows[0][1] == 3
        assert all(rows[i][1] == -1 for i in (1, 2, 3))


class TestRecurrence:
    def test_q5_explicit_coefficients(self):
        fd = field_data(5, 1)
        assert denominator(5, fd.dec.s)[1:] == (0, 10, 40, 205)

    def test_q1mod8_coefficient_vector(self):
        fd = field_data(17, 1)
        q, s = 17, fd.dec.s
        assert denominator(q, s)[1:] == (0, -6 * q, 8 * q * s,
                                         q * q - 4 * q * s * s)

    def test_q3mod4_denominator_reads_no_s(self):
        assert denominator(7, None) == (1, 0, 7)

    @pytest.mark.parametrize("pm", ALL_FIELDS + [(43, 1)], ids=lambda pm: f"q={pm[0]**pm[1]}")
    def test_oracle_counts_satisfy_recurrence(self, pm):
        # at every c, 0 included, and for q = 3 mod 4 with den = 1 + q x^2
        fd = field_data(*pm)
        den = denominator(fd.q, None if fd.dec is None else fd.dec.s)
        for code in range(fd.q):
            counts = [fd.oracle_N(code, n) for n in range(1, 9)]
            res = recurrence_check(fd.q, den, counts)
            assert res == [0] * (9 - len(den)), (fd.q, code)

    def test_taps_give_the_order_4_residuals(self, field_1mod4):
        # off the oracle's counts, the loop over taps equals the order-4 recurrence
        # written out, D(n) + d_1 D(n-1) + ... + d_4 D(n-4)
        fd = field_1mod4
        _, d1, d2, d3, d4 = den = denominator(fd.q, fd.dec.s)
        counts = [fd.oracle_N(1, n) + n * n for n in range(1, 9)]
        dv = [count - fd.q ** n for n, count in enumerate(counts)]
        assert recurrence_check(fd.q, den, counts) == [
            dv[i] + d1 * dv[i - 1] + d2 * dv[i - 2] + d3 * dv[i - 3] + d4 * dv[i - 4]
            for i in range(4, 8)]

    def test_one_wrong_count_breaks_the_recurrence(self):
        fd = field_data(7, 1)
        counts = [fd.oracle_N(3, n) for n in range(1, 9)]
        counts[4] += 1  # N_5
        assert recurrence_check(7, (1, 0, 7), counts) == [0, 0, 1, 0, 7, 0]


class TestDenominatorBridge:
    def test_reversal_of_gauss_sum_polynomial(self, field_1mod4):
        # den(x) = prod over l of (1 - T_{g^l} x) mod each prime ell of the table: the
        # reversal of the quartic whose roots are the Gauss sums, with multiplicity
        fd = field_1mod4
        den = denominator(fd.q, fd.dec.s)
        for ell, *eta in build_table(fd.field, fd.gen).rows.tolist():
            expanded = [1]
            for e in eta:
                T = 1 + 4 * e
                expanded = [(a - T * b) % ell for a, b in zip(expanded + [0], [0] + expanded)]
            assert expanded == [a % ell for a in den]
