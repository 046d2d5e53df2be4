"""Rational generating functions for the counting sequences.

A generating function is stored as a sum of rational parts, each a pair of
integer coefficient vectors (ascending powers, denominator constant term 1).
`series(n)` runs the denominator recurrence over its nonzero taps and lists
all n coefficients.  `coefficient(n)` reads one in one of three regimes, all in
exact integers: a part with a one-tap denominator 1 + d x^k (the geometric
x/(1 - qx), and the q = 3 mod 4 correction 1 + qx^2) is one power; below
SERIES_BELOW, the measured crossover, it reads the series; from there it takes
Fiduccia's method: x^h mod P, P the monic reversed denominator, by `_powmod` in
O(log n) products of `field._mulmod` over Z, then a Hankel form.
`gf_N` and `gf_M` compute the (s, t) decomposition when `dec` is None, and take
their other part from `_class_part`, pure in q, s, t and r = q mod 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomy import QuarticDecomposition, quartic_decomposition
from .errors import BadDenominatorError, QuarticYError
from .field import Element, Field, GeneratorData, _mulmod, _powmod, check_field, quartic_class

__all__ = [
    "RationalPart", "RationalGF", "gf_N", "gf_M",
    "denominator", "recurrence_check",
]

SERIES_BELOW = 88


@dataclass(frozen=True)
class RationalPart:
    """num(x)/den(x) with integer coefficients and den[0] = 1."""

    num: tuple[int, ...]
    den: tuple[int, ...]

    def __post_init__(self):
        if not self.den or self.den[0] != 1:
            raise BadDenominatorError(f"denominator {self.den} lacks constant term 1")

    def series(self, count: int) -> list[int]:
        """Coefficients c_1 .. c_count of the power series at 0, by the recurrence
        over the nonzero taps of den, after k zeros standing for c_(-k) .. c_(-1)."""
        k, size = len(self.den) - 1, max(count + 1, 0)
        taps = [(i, -d) for i, d in enumerate(self.den) if i and d]
        coeffs = [0] * k + list(self.num[:size]) + [0] * (size - len(self.num))
        for j in range(k + 1, k + size):
            c = coeffs[j]
            for i, d in taps:
                c += d * coeffs[j - i]
            coeffs[j] = c
        return coeffs[k + 1:]

    def coefficient(self, n: int) -> int:
        """Coefficient c_n of x^n, n >= 1, in exact integers, in three regimes.

        With k = deg den and s = max(1, len(num) - k), c_j = -sum_i den[i]
        c_(j-i) for every j >= s + k.  If den = 1 + d x^k and n >= s, c_n =
        c_(s+r) (-d)^j with (j, r) = divmod(n - s, k) (never below s, where the
        power would be a float).  Below SERIES_BELOW (or s + 2) c_n is read off
        `series`: on the k = 4 parts of `gf_N` and `gf_M` that is level with the
        Hankel form at n = 88.  From there x^a -> c_(s+a) vanishes on multiples
        of the monic reversed denominator P (Fiduccia, SIAM J. Comput. 1985), so
        with n - s = 2h + b, h >= 1, and r = x^h mod P (`_powmod`), c_n =
        sum_(i,j<k) r_i r_j c_(s+b+i+j); s >= 1 keeps the initial terms in `series`.
        """
        if n < 1:
            raise ValueError(f"coefficient index must be at least 1, got {n}")
        k = len(self.den) - 1
        s = max(1, len(self.num) - k)
        if k and not any(self.den[1:k]) and n >= s:
            j, r = divmod(n - s, k)
            return self.series(s + r)[s + r - 1] * (-self.den[k]) ** j
        if n < max(s + 2, SERIES_BELOW):
            return self.series(n)[n - 1]
        h, b = divmod(n - s, 2)
        x = ([0, 1] + [0] * k)[:k]  # x mod P: k = 1 is one tap, and mod 1 all is 0
        r = _powmod(x, h, _mulmod, (self.den[::-1], 0))
        initial = self.series(s + b + 2 * k - 2)[s + b - 1:]
        return sum(ri * sum(rj * c for rj, c in zip(r, initial[i:])) for i, ri in enumerate(r))


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


def denominator(q: int, s: int | None) -> tuple[int, ...]:
    """Denominator of `gf_N` and `gf_M`: 1 + q x^2 if q = 3 mod 4, where s is not read,
    else the reversal of the monic quartic whose roots are the Gauss sums T_{g^l}."""
    return _class_part(q, s, 0, q % 8, 0)[1]  # den reads neither t nor the class


def _class_part(q, s, t, r: int, i: int | None, twisted: bool = False) -> tuple[tuple, tuple]:
    """(num, den) of the part beside the geometric one: of `gf_N` at c = 0 (i None)
    or at c in C_i, or (twisted) of `gf_M` at y in C_i, for q = r mod 8 and, when
    r = 1 or 5, q = s^2 + 4t^2 (r = 3, 7 reads neither s nor t).

    Pure in its arguments, so q, s and t may be ring elements.  Each r states the
    denominator, N_n(0)'s numerator over q - 1 and its rows to x^4 (d = 2's end in
    zeros), of which only the one read is built.  gf_M follows from M_(n+1)(y) =
    N_n(0) + (q - 1) N_n(-y), -y in C_(i+h) and -1 in C_h; the top terms cancel.
    """
    d = 2 if r % 4 == 3 else 4
    h = (r - 1) // 2 % d  # -1 = g^((q-1)/2), and (q - 1)/2 = (r - 1)/2 mod 4
    j = None if i is None else (i + h) % d if twisted else i
    if d == 2:
        den, zero = (1, 0, q), (0, 0, -1, 0, 0)
        row = (0, 1, 1, 0, 0) if j == 0 else (0, -1, 1, 0, 0)
    elif r == 1:  # f even
        lead = q - 4 * s * s
        den, zero = (1, 0, -6 * q, 8 * q * s, q * lead), (0, 0, 3, -6 * s, -lead)
        row = (None if j is None else
               (0, 3, -6 * s - 3, 6 * s - lead, lead) if j == 0 else
               (0, -1, 2 * s + 8 * t - 3, 6 * s - q - 8 * s * t, lead) if j == 1 else
               (0, -1, 2 * s - 3, 6 * s - q + 16 * t * t, lead) if j == 2 else
               (0, -1, 2 * s - 8 * t - 3, 6 * s - q + 8 * s * t, lead))
    else:  # r = 5: f odd
        lead = 9 * q - 4 * s * s
        den, zero = (1, 0, 2 * q, 8 * q * s, q * lead), (0, 0, -1, -6 * s, -lead)
        row = (None if j is None else
               (0, 3, 2 * s + 1, 6 * s + 3 * q - 4 * s * s, lead) if j == 0 else
               (0, -1, 2 * s - 8 * t + 1, 6 * s + 3 * q + 8 * s * t, lead) if j == 1 else
               (0, -1, -6 * s + 1, 6 * s - 5 * q - 16 * t * t, lead) if j == 2 else
               (0, -1, 2 * s + 8 * t + 1, 6 * s + 3 * q - 8 * s * t, lead))
    qm = q - 1  # no numerator has an x^0 term, and N_n(0)'s has no x term
    if i is None:
        return (0, 0, qm * zero[2], qm * zero[3], qm * zero[4])[:d + 1], den
    if twisted:
        return (0, qm * row[1], qm * (zero[2] + row[2]), qm * (zero[3] + row[3]))[:d], den
    return row[:d + 1], den


def _decomposition(fld: Field, gen: GeneratorData, dec: QuarticDecomposition | None,
                   r: int) -> tuple[int, int]:
    """(s, t) of `dec`, computed when None; (0, 0) when r = 3 mod 4, which has none."""
    if r % 4 == 3:
        return 0, 0
    dec = dec or quartic_decomposition(fld, gen)
    return dec.s, dec.t


def gf_N(fld: Field, gen: GeneratorData, dec: QuarticDecomposition | None,
         c: Element) -> RationalGF:
    """Generating function of n -> N_n(c), the zero count of x_1^4+...+x_n^4 = c."""
    check_field(fld, gen.g, c)
    i = None if c.is_zero() else quartic_class(c, gen)
    q, r = fld.q, fld.q % 8
    num, den = _class_part(q, *_decomposition(fld, gen, dec, r), r, i)
    return RationalGF(parts=(_geometric(q), RationalPart(num=num, den=den)))


def gf_M(fld: Field, gen: GeneratorData, dec: QuarticDecomposition | None,
         y: Element) -> RationalGF:
    """Generating function of n -> M_{n+1}(y), zeros of x_1^4+...+x_n^4+y*x_{n+1}^4 = 0."""
    check_field(fld, gen.g, y)
    # One class serves both the quartic test and the numerator's row; zero
    # takes class 0 so that the test rejects it with the fourth powers.
    i = 0 if y.is_zero() else quartic_class(y, gen)
    if i == 0:
        raise QuarticYError(f"y = {y!r} is zero or a fourth power")
    q, r = fld.q, fld.q % 8
    num, den = _class_part(q, *_decomposition(fld, gen, dec, r), r, i, twisted=True)
    return RationalGF(parts=(_geometric(q, scale=q), RationalPart(num=num, den=den)))


def recurrence_check(q: int, den: tuple[int, ...], counts: list[int]) -> list[int]:
    """Residuals sum_i den[i] D(n - i) of D(n) = N_n(c) - q^(n-1), n = k+1..len(counts).

    With den = `denominator(q, s)` of degree k, D(n) is the coefficient of x^n
    in num/den with deg num <= k, so every residual is zero, at every c, 0
    included.  `counts` holds N_1(c) .. N_nmax(c), or rows of arrays over c, from a
    route other than the generating function, such as the oracle: the series of
    `gf_N` obeys its own denominator by construction.
    """
    dvals = [count - q ** n for n, count in enumerate(counts)]
    taps = [(i, d) for i, d in enumerate(den) if d]
    return [sum(d * dvals[j - i] for i, d in taps) for j in range(len(den) - 1, len(counts))]
