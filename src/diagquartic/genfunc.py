"""Rational generating functions for the counting sequences.

A generating function is stored as a sum of rational parts, each a pair of
integer coefficient vectors (ascending powers, denominator constant term 1).
`coefficient(n)` reads one coefficient by Fiduccia's method, x^n modulo the
reversed denominator, in O(log n) big-int polynomial products; `series(n)`
runs the denominator recurrence and lists all n coefficients.  Both stay in
exact integers.
`gf_N` and `gf_M` compute the (s, t) decomposition when `dec` is None.
`recurrence_check(dec, c, counts)` reads q from `c.field`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomy import QuarticDecomposition, quartic_decomposition
from .errors import BadDenominatorError, QuarticYError
from .field import Element, Field, GeneratorData, check_field, quartic_class

__all__ = [
    "RationalPart", "RationalGF", "gf_N", "gf_M",
    "denominator", "recurrence_check",
]


@dataclass(frozen=True)
class RationalPart:
    """num(x)/den(x) with integer coefficients and den[0] = 1."""

    num: tuple[int, ...]
    den: tuple[int, ...]

    def __post_init__(self):
        if not self.den or self.den[0] != 1:
            raise BadDenominatorError(f"denominator {self.den} lacks constant term 1")

    def series(self, count: int) -> list[int]:
        """Coefficients c_1 .. c_count of the power series at 0."""
        coeffs = [0] * (count + 1)
        for n in range(count + 1):
            c = self.num[n] if n < len(self.num) else 0
            for i in range(1, min(n, len(self.den) - 1) + 1):
                c -= self.den[i] * coeffs[n - i]
            coeffs[n] = c
        return coeffs[1:]

    def coefficient(self, n: int) -> int:
        """Coefficient c_n of x^n, n >= 1, in O(log n) polynomial products.

        Past the numerator the coefficients obey c_j = -sum_i den[i] c_(j-i).
        With k = deg den, this holds for every j >= s + k, so c_n is the dot
        product of c_s .. c_(s+k-1) with the remainder of x^(n-s) modulo the
        monic reversed denominator (Fiduccia, SIAM J. Comput. 1985).  Taking
        s >= 1 keeps every initial term inside `series`.
        """
        if n < 1:
            raise ValueError(f"coefficient index must be at least 1, got {n}")
        k = len(self.den) - 1
        s = max(1, len(self.num) - k)
        if n < s + k:
            return self.series(n)[n - 1]
        initial = self.series(s + k - 1)[s - 1:]
        return sum(r * c for r, c in zip(_x_power_mod(n - s, self.den), initial))


def _x_power_mod(n: int, den: tuple[int, ...]) -> list[int]:
    """x^n modulo x^k + den[1] x^(k-1) + ... + den[k], as k ascending coefficients.

    Left-to-right square-and-multiply; a product of degree < 2k is reduced
    with x^i = -sum_j den[j] x^(i-j), from the top term down.
    """
    k = len(den) - 1

    def reduced(poly: list[int]) -> list[int]:
        for i in range(len(poly) - 1, k - 1, -1):
            top = poly[i]
            if top:
                for j in range(1, k + 1):
                    poly[i - j] -= top * den[j]
        return poly[:k]

    rem = reduced([1])  # x^0; empty when k = 0, as everything is 0 mod 1
    for bit in bin(n)[2:]:
        square = [0] * (2 * k - 1)
        for i, a in enumerate(rem):
            square[2 * i] += a * a
            twice = 2 * a  # each cross term a_i a_j, i < j, is taken once
            for j in range(i + 1, len(rem)):
                square[i + j] += twice * rem[j]
        rem = reduced(square)
        if bit == "1":
            rem = reduced([0] + rem)
    return rem


@dataclass(frozen=True)
class RationalGF:
    """A sum of rational parts; its series is the elementwise sum of part series."""

    parts: tuple[RationalPart, ...]

    def coefficient(self, n: int) -> int:
        """Coefficient of x^n, n >= 1: the sum of the parts' coefficients."""
        return sum(part.coefficient(n) for part in self.parts)

    def series(self, count: int) -> list[int]:
        total = [0] * count
        for part in self.parts:
            for i, c in enumerate(part.series(count)):
                total[i] += c
        return total


def _geometric(q: int, scale: int = 1) -> RationalPart:
    # scale * x / (1 - qx)
    return RationalPart(num=(0, scale), den=(1, -q))


def denominator(q: int, s: int) -> tuple[int, ...]:
    """Denominator of `gf_N` and `gf_M` (coefficients of 1 .. x^4); read from
    x^4 down, the monic quartic whose roots are the Gauss sums T_{g^l}."""
    if q % 8 == 1:
        return (1, 0, -6 * q, 8 * q * s, q * q - 4 * q * s * s)
    return (1, 0, 2 * q, 8 * q * s, 9 * q * q - 4 * q * s * s)


def _correction_poly(q: int, s: int, t: int, ind_mod4: int) -> tuple[int, int, int]:
    """The degree <= 3 residue-class polynomial (coefficients of x, x^2, x^3)."""
    if q % 8 == 1:
        table = {
            0: (3, -6 * s - 3, -q + 4 * s * s),
            1: (-1, 2 * s + 8 * t - 3, -q - 8 * s * t),
            2: (-1, 2 * s - 3, -q + 16 * t * t),
            3: (-1, 2 * s - 8 * t - 3, -q + 8 * s * t),
        }
    else:
        table = {
            0: (3, 2 * s + 1, 3 * q - 4 * s * s),
            1: (-1, 2 * s - 8 * t + 1, 3 * q + 8 * s * t),
            2: (-1, -6 * s + 1, -5 * q - 16 * t * t),
            3: (-1, 2 * s + 8 * t + 1, 3 * q - 8 * s * t),
        }
    return table[ind_mod4]


def gf_N(fld: Field, gen: GeneratorData, dec: QuarticDecomposition | None,
         c: Element) -> RationalGF:
    """Generating function of n -> N_n(c), the zero count of x_1^4+...+x_n^4 = c."""
    check_field(fld, gen.g, c)
    q = fld.q
    if q % 4 == 3:
        if c.is_zero():
            corr = RationalPart(num=(0, 0, 1 - q), den=(1, 0, q))
        elif quartic_class(c, gen) == 0:  # ind_g(c) mod 2: c a square
            corr = RationalPart(num=(0, 1, 1), den=(1, 0, q))
        else:
            corr = RationalPart(num=(0, -1, 1), den=(1, 0, q))
        return RationalGF(parts=(_geometric(q), corr))

    if dec is None:
        dec = quartic_decomposition(fld, gen)
    s, t = dec.s, dec.t
    den = denominator(q, s)
    if c.is_zero():
        if q % 8 == 1:
            num = (0, 0, 3 * (q - 1), -6 * s * (q - 1), -(q - 4 * s * s) * (q - 1))
        else:
            num = (0, 0, -(q - 1), -6 * s * (q - 1), -(9 * q - 4 * s * s) * (q - 1))
        return RationalGF(parts=(_geometric(q), RationalPart(num=num, den=den)))

    b1, b2, b3 = _correction_poly(q, s, t, quartic_class(c, gen))
    lead = (q - 4 * s * s) if q % 8 == 1 else (9 * q - 4 * s * s)
    num = (0, b1, b2, 6 * s + b3, lead)
    return RationalGF(parts=(_geometric(q), RationalPart(num=num, den=den)))


def is_quartic(y: Element, gen: GeneratorData) -> bool:
    """Fourth-power test; for q = 3 mod 4 quartics coincide with squares."""
    return y.is_zero() or quartic_class(y, gen) == 0


def gf_M(fld: Field, gen: GeneratorData, dec: QuarticDecomposition | None,
         y: Element) -> RationalGF:
    """Generating function of n -> M_{n+1}(y), zeros of x_1^4+...+x_n^4+y*x_{n+1}^4 = 0."""
    check_field(fld, gen.g, y)
    q = fld.q
    # One class serves both the quartic test and the correction row; zero
    # takes class 0 so that the test rejects it with the fourth powers.
    ind = 0 if y.is_zero() else quartic_class(y, gen)
    if ind == 0:
        raise QuarticYError(f"y = {y!r} is zero or a fourth power")
    if q % 4 == 3:
        return RationalGF(parts=(_geometric(q, scale=q),
                                 RationalPart(num=(0, q - 1), den=(1, 0, q))))

    if dec is None:
        dec = quartic_decomposition(fld, gen)
    s, t = dec.s, dec.t
    den = denominator(q, s)
    if q % 8 == 1:
        b1, b2, b3 = _correction_poly(q, s, t, ind)
        num = (0, (q - 1) * b1, (q - 1) * (3 + b2), (q - 1) * b3)
    else:
        # -1 = g^((q-1)/2) has index 2 mod 4 when q = 5 mod 8
        b1, b2, b3 = _correction_poly(q, s, t, (ind + 2) % 4)
        num = (0, (q - 1) * b1, (q - 1) * (-1 + b2), (q - 1) * b3)
    return RationalGF(parts=(_geometric(q, scale=q), RationalPart(num=num, den=den)))


def recurrence_check(dec: QuarticDecomposition, c: Element, counts: list[int]) -> list[int]:
    """Residuals of the order-4 recurrence on D(n) = N_n(c) - q^(n-1), n = 5..len(counts).

    The recurrence is D(n) = -(d_1 D(n-1) + ... + d_4 D(n-4)), where
    (1, d_1, ..., d_4) = `denominator(q, s)`.  `counts` holds N_1(c) ..
    N_nmax(c) from a route other than the generating function, such as the
    oracle: the series of `gf_N` obeys its own denominator by construction.
    All residuals must be zero.
    """
    if c.is_zero():
        raise ValueError("recurrence check is stated for c != 0")
    if len(counts) < 5:
        raise ValueError("the recurrence needs N_1 .. N_5 at least")
    q = c.field.q
    dvals = [count - q ** n for n, count in enumerate(counts)]
    _, d1, d2, d3, d4 = denominator(q, dec.s)
    residuals = []
    for i in range(4, len(counts)):
        residuals.append(dvals[i] + d1 * dvals[i - 1] + d2 * dvals[i - 2]
                         + d3 * dvals[i - 3] + d4 * dvals[i - 4])
    return residuals
