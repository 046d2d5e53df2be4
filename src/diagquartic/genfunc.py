"""Rational generating functions for the counting sequences.

A generating function is stored as a sum of rational parts, each a pair of
integer coefficient vectors (ascending powers, denominator constant term 1).
`series(n)` runs the denominator recurrence over its nonzero taps and lists
all n coefficients.  `coefficient(n)` reads one in one of three regimes, all in
exact integers: a part with a one-tap denominator 1 + d x^k (the geometric
x/(1 - qx), and the q = 3 mod 4 correction 1 + qx^2) is one power; below
SERIES_BELOW it reads the series; from there it takes Fiduccia's method: x^h mod P,
P the monic reversed denominator, by `_powmod` in O(log n) squares of
`field._mulmod` over Z (Toom-Cook squares for the quartics), then a Hankel form,
taken as a sum of at most k squares (`_squares`).  Each part keeps the prefix of
its series that calls have read, up to max(SERIES_BELOW, s + 2k) terms (k = deg den,
s = max(1, len(num) - k)): every regime reads its terms there, and a longer series
runs on a copy.  It also keeps the pivots of its Hankel form, one list per parity.
`gf_N` and `gf_M` take (s, t) from `dec`, or when it is None from the generator
(`GeneratorData.decomposition`, found once per generator), and return one shared
generating function per (q, s, t, q mod 8, class, twisted) from `_class_gf`, a
memo of the last GF_CACHE_SIZE of them, pure in those ints as `_class_part` is.
"""

from __future__ import annotations

import dataclasses
import functools
from operator import mul

from .cyclotomy import QuarticDecomposition
from .errors import BadDenominatorError, QuarticYError
from .field import (BUILD_CACHE_SIZE, Element, Field, GeneratorData, _mulmod, _powmod,
                    check_field, quartic_class)

__all__ = [
    "RationalPart", "RationalGF", "gf_N", "gf_M",
    "denominator", "recurrence_check",
]

SERIES_BELOW = 88
# Generating functions `_class_gf` keeps: at most 8 per field (c = 0, four classes of c,
# three non-quartic classes of y) for each of the BUILD_CACHE_SIZE fields a process keeps.
GF_CACHE_SIZE = 8 * BUILD_CACHE_SIZE


@dataclasses.dataclass(frozen=True)
class RationalPart:
    """num(x)/den(x) with integer coefficients and den[0] = 1.

    `_kept` holds c_(-k) .. c_j, k = deg den: k zeros, then the terms calls have read
    so far, never past max(SERIES_BELOW, s + 2k) of them; `_pivots[b]` holds the
    `_squares` pivots of the Hankel form that `coefficient` reads for n - s = b mod 2,
    once built.  Equality and hashing ignore both."""

    num: tuple[int, ...]
    den: tuple[int, ...]
    _kept: list[int] = dataclasses.field(default_factory=list, init=False, repr=False,
                                         compare=False)
    _pivots: dict[int, list[tuple[list[int], int]]] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.den or self.den[0] != 1:
            raise BadDenominatorError(f"denominator {self.den} lacks constant term 1")
        self._kept.extend([0] * (len(self.den) - 1))

    def _terms(self, count: int) -> list[int]:
        """c_(-k) .. c_count at least, by the recurrence over the nonzero taps of den:
        the kept prefix, run on in place up to its bound and on a copy past it."""
        terms, k = self._kept, len(self.den) - 1
        if len(terms) > k + count:
            return terms
        if count > max(SERIES_BELOW, max(1, len(self.num) - k) + 2 * k):
            terms = terms.copy()
        num, taps = self.num, [(i, -d) for i, d in enumerate(self.den) if i and d]
        for j in range(len(terms) - k, count + 1):
            c = num[j] if j < len(num) else 0
            for i, d in taps:
                c += d * terms[k + j - i]
            terms.append(c)
        return terms

    def series(self, count: int) -> list[int]:
        """Coefficients c_1 .. c_count of the power series at 0, a new list."""
        k = len(self.den) - 1
        return self._terms(count)[k + 1:k + 1 + max(count, 0)]

    def coefficient(self, n: int) -> int:
        """Coefficient c_n of x^n, n >= 1, in exact integers, in three regimes.

        With k = deg den and s = max(1, len(num) - k), c_j = -sum_i den[i]
        c_(j-i) for every j >= s + k.  If den = 1 + d x^k and n >= s, c_n =
        c_(s+r) (-d)^j with (j, r) = divmod(n - s, k) (never below s, where the
        power would be a float).  Below SERIES_BELOW (or s + 2) c_n is read off
        the series.  From there x^a -> c_(s+a) vanishes on multiples of the monic
        reversed denominator P (Fiduccia, SIAM J. Comput. 1985), so with n - s =
        2h + b, h >= 1, and r = x^h mod P (`_powmod`), c_n = r^T H r, H_ij =
        c_(s+b+i+j), i, j < k: the sum of squares of `_squares`, whose pivots the
        part keeps per b.  s >= 1 keeps the initial terms in the series.  On the k = 4
        parts of `gf_N` and `gf_M`, a series read on a fresh part is level with a
        Hankel read on a part that keeps its pivots near n = 60, and cheaper through
        n = 120 than a first Hankel read, which builds them; below SERIES_BELOW every
        later read is a lookup in the kept prefix.  Every regime reads that prefix;
        for k >= 1 none reads past c_(s+2k-1) or c_87.
        """
        if n < 1:
            raise ValueError(f"coefficient index must be at least 1, got {n}")
        k = len(self.den) - 1
        s = max(1, len(self.num) - k)
        if k and not any(self.den[1:k]) and n >= s:
            j, r = divmod(n - s, k)
            return self._terms(s + r)[k + s + r] * (-self.den[k]) ** j
        if n < max(s + 2, SERIES_BELOW):
            return self._terms(n)[k + n]
        h, b = divmod(n - s, 2)
        x = ([0, 1] + [0] * k)[:k]  # x mod P: k = 1 is one tap, and mod 1 all is 0
        r = _powmod(x, h, _mulmod, (self.den[::-1], 0))
        pivots = self._pivots.get(b)
        if pivots is None:
            initial = self._terms(s + b + 2 * k - 2)[k + s + b:]
            pivots = self._pivots[b] = _squares([initial[i:i + k] for i in range(k)])
        form = 0
        for hv, d in reversed(pivots):
            y = sum(map(mul, hv, r))
            form = (y * y + form) // d
        return form


def _squares(form: list[list[int]]) -> list[tuple[list[int], int]]:
    """Pivots (hv_0, d_0), (hv_1, d_1), ... with x^T H x = ((hv_0 . x)^2 + ((hv_1 . x)^2
    + ...) / d_1) / d_0 for every integer vector x, H = `form` a symmetric integer matrix:
    Lagrange's reduction to a sum of squares, kept in integers.  Each step takes v = e_i
    with H_ii != 0, or else e_i + e_j with H_ij != 0, hv = H v and d = v^T hv != 0, and
    goes on with d H - hv hv^T, which has v in its kernel besides H's, so there are rank H
    steps; every division, run from the last pivot back, is exact."""
    pivots = []
    while True:
        i = next((i for i, row in enumerate(form) if row[i]), None)
        if i is not None:
            hv, d = form[i], form[i][i]
        else:
            pair = next(((i, j) for i, row in enumerate(form) for j in range(i) if row[j]),
                        None)
            if pair is None:
                return pivots
            i, j = pair
            hv = [u + w for u, w in zip(form[i], form[j])]
            d = 2 * form[i][j]
        pivots.append((hv, d))
        form = [[d * h - u * w for h, w in zip(row, hv)] for row, u in zip(form, hv)]


@dataclasses.dataclass(frozen=True)
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


@functools.lru_cache(maxsize=GF_CACHE_SIZE)
def _class_gf(q: int, s: int, t: int, r: int, i: int | None, twisted: bool) -> RationalGF:
    """The generating function of `gf_N` at c = 0 (i None) or at c in C_i, or (twisted)
    of `gf_M` at y in C_i, built once per argument tuple and shared by every call:
    the geometric part x/(1 - qx), scaled by q when twisted, and `_class_part`'s, which
    read nothing else."""
    num, den = _class_part(q, s, t, r, i, twisted)
    return RationalGF(parts=(RationalPart(num=(0, q if twisted else 1), den=(1, -q)),
                             RationalPart(num=num, den=den)))


def _decomposition(gen: GeneratorData, dec: QuarticDecomposition | None,
                   r: int) -> tuple[int, int]:
    """(s, t) of `dec`, or of the generator when None; (0, 0) when r = 3 mod 4, which
    has none."""
    if r % 4 == 3:
        return 0, 0
    dec = dec or gen.decomposition
    return dec.s, dec.t


def gf_N(fld: Field, gen: GeneratorData, dec: QuarticDecomposition | None,
         c: Element) -> RationalGF:
    """Generating function of n -> N_n(c), the zero count of x_1^4+...+x_n^4 = c."""
    check_field(fld, gen.g, c)
    i = None if c.is_zero() else quartic_class(c, gen)
    r = fld.q % 8
    return _class_gf(fld.q, *_decomposition(gen, dec, r), r, i, False)


def gf_M(fld: Field, gen: GeneratorData, dec: QuarticDecomposition | None,
         y: Element) -> RationalGF:
    """Generating function of n -> M_{n+1}(y), zeros of x_1^4+...+x_n^4+y*x_{n+1}^4 = 0."""
    check_field(fld, gen.g, y)
    # One class serves both the quartic test and the numerator's row; zero
    # takes class 0 so that the test rejects it with the fourth powers.
    i = 0 if y.is_zero() else quartic_class(y, gen)
    if i == 0:
        raise QuarticYError(f"y = {y!r} is zero or a fourth power")
    r = fld.q % 8
    return _class_gf(fld.q, *_decomposition(gen, dec, r), r, i, True)


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
