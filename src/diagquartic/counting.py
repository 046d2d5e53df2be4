"""Solution counts for diagonal forms over F_q.

Four independent routes are provided and cross-checked in the tests:

* `count_N` / `count_M`, one series coefficient of the rational generating
  functions (the production path),
* an oracle based on additive convolution of power histograms (exact, O(n q^2)),
* closed forms for n <= 4 assembled from the epsilon tables (`count_small`),
* dimension-j cyclotomic numbers for n <= 4 (`count_via_cyclotomy`).

The fifth, exponential sums, is `expsums.reconstruct_N`.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

from . import genfunc
from .cyclotomy import QuarticDecomposition, cyclo_dim_enum
from .errors import InvariantError, TooLargeError, WrongResidueClassError, ZeroRHSError
# The convolution primitive and its guards live in `field`.  They keep their
# names here: the benchmark tracer (perfbench/tracer.py) binds
# counting._group_convolve and counting._addition_tables.
from .field import (  # noqa: F401
    _ADD_TABLE_CACHE,
    ORACLE_COST_GUARD,
    ORACLE_TABLE_BYTES_GUARD,
    Element,
    Field,
    GeneratorData,
    _addition_tables,
    _group_convolve,
    check_convolution_cost,
    quartic_class,
)


class PowerResidueProfile:
    """Histogram of x -> x^e over F_q, indexed by canonical encoding."""

    def __init__(self, fld: Field, e: int):
        if e < 1:
            raise ValueError("exponent must be positive")
        self.field = fld
        self.e = e
        self.d = gcd(e, fld.q - 1)
        counts = [0] * fld.q
        for x in fld.elements():
            counts[(x ** e).encode()] += 1
        self.counts = counts


def power_profile(fld: Field, e: int) -> PowerResidueProfile:
    profile = PowerResidueProfile(fld, e)
    # d-th power residue rule: w(0) = 1, w(c) in {0, d} for c != 0
    counts = profile.counts
    if counts[0] != 1:
        raise InvariantError(f"x^{e} has {counts[0]} roots of 0 in F_{fld.q}")
    if any(c not in (0, profile.d) for c in counts[1:]):
        raise InvariantError(f"x^{e} breaks the {profile.d}-th power residue rule in F_{fld.q}")
    if sum(counts) != fld.q:
        raise InvariantError(f"x^{e} histogram sums to {sum(counts)}, not q = {fld.q}")
    return profile


def oracle_histograms(fld: Field, coeffs: list[Element], e: int):
    """After each a_k, yield the zero counts of a_1 x_1^e + ... + a_k x_k^e = c
    for each c (by encoding); only the latest histogram is held."""
    if not coeffs:
        raise ValueError("at least one variable required")
    check_convolution_cost(fld, len(coeffs))
    base = power_profile(fld, e).counts
    hist = None
    for a in coeffs:
        if a.is_zero():
            raise ValueError("coefficients must be nonzero")
        scaled = [0] * fld.q
        for code, cnt in enumerate(base):
            if cnt:
                scaled[(a * fld.from_int(code)).encode()] += cnt
        hist = scaled if hist is None else _group_convolve(fld, hist, scaled)
        yield hist


def oracle_histogram(fld: Field, coeffs: list[Element], e: int) -> list[int]:
    """For each c (by encoding), the number of zeros of sum a_i x_i^e = c."""
    for hist in oracle_histograms(fld, coeffs, e):
        pass
    return hist


def oracle_count(coeffs: list[Element], c: Element, e: int) -> int:
    """Exact zero count of a_1 x_1^e + ... + a_n x_n^e = c by convolution."""
    fld = c.field
    return oracle_histogram(fld, coeffs, e)[c.encode()]


def brute_force_count(coeffs: list[Element], c: Element, e: int) -> int:
    """Literal q^n enumeration; defense-in-depth check on the convolution oracle."""
    fld = c.field
    n = len(coeffs)
    if fld.q**n > ORACLE_COST_GUARD // 10:
        raise TooLargeError("q^n too large for literal enumeration")
    count = 0
    for xs in itertools.product(list(fld.elements()), repeat=n):
        total = fld.zero()
        for a, x in zip(coeffs, xs):
            total = total + a * (x ** e)
        if total == c:
            count += 1
    return count


# epsilon tables: residue-class corrections as coefficient rows over
# (1, q, s, t, sq, tq, st, s^2, t^2), selected by q mod 8 then ind_g(c) mod 4.
_EPS_N2 = {
    1: {0: (0, 0, -6, 0, 0, 0, 0, 0, 0), 1: (0, 0, 2, 8, 0, 0, 0, 0, 0),
        2: (0, 0, 2, 0, 0, 0, 0, 0, 0), 3: (0, 0, 2, -8, 0, 0, 0, 0, 0)},
    5: {0: (0, 0, 2, 0, 0, 0, 0, 0, 0), 1: (0, 0, 2, -8, 0, 0, 0, 0, 0),
        2: (0, 0, -6, 0, 0, 0, 0, 0, 0), 3: (0, 0, 2, 8, 0, 0, 0, 0, 0)},
}
_EPS_N3 = {
    1: {0: (0, 17, 0, 0, 0, 0, 0, 4, 0), 1: (0, -7, 0, 0, 0, 0, -8, 0, 0),
        2: (0, -7, 0, 0, 0, 0, 0, 0, 16), 3: (0, -7, 0, 0, 0, 0, 8, 0, 0)},
    5: {0: (0, -3, 0, 0, 0, 0, 0, -4, 0), 1: (0, 5, 0, 0, 0, 0, 8, 0, 0),
        2: (0, -3, 0, 0, 0, 0, 0, 0, -16), 3: (0, 5, 0, 0, 0, 0, -8, 0, 0)},
}
_EPS_N4 = {
    1: {0: (0, 0, 0, 0, -60, 0, 0, 0, 0), 1: (0, 0, 0, 0, 20, 48, 0, 0, 0),
        2: (0, 0, 0, 0, 20, 0, 0, 0, 0), 3: (0, 0, 0, 0, 20, -48, 0, 0, 0)},
    5: {0: (0, 0, 0, 0, -28, 0, 0, 0, 0), 1: (0, 0, 0, 0, 4, 16, 0, 0, 0),
        2: (0, 0, 0, 0, 20, 0, 0, 0, 0), 3: (0, 0, 0, 0, 4, -16, 0, 0, 0)},
}


def _eps(table, q: int, s: int, t: int, ind4: int) -> int:
    row = table[q % 8][ind4]
    basis = (1, q, s, t, s * q, t * q, s * t, s * s, t * t)
    return sum(a * b for a, b in zip(row, basis))


def count_small(c: Element, n: int, dec: QuarticDecomposition, fld: Field,
                gen: GeneratorData) -> int:
    """Closed-form N_n(c) for 1 <= n <= 4, c != 0, q = 1 mod 4."""
    q = fld.q
    if q % 4 != 1:
        raise WrongResidueClassError(f"q = {q} is not 1 mod 4")
    s, t = dec.s, dec.t
    if c.is_zero():
        raise ZeroRHSError("closed forms cover c != 0 only; use count_N for c = 0")
    i = quartic_class(c, gen)
    if n == 1:
        return 4 if i == 0 else 0
    if n == 2:
        base = -3 if q % 8 == 1 else 1
        return q + base + _eps(_EPS_N2, q, s, t, i)
    if n == 3:
        return q * q + 6 * s + _eps(_EPS_N3, q, s, t, i)
    if n == 4:
        base = -17 * q if q % 8 == 1 else 7 * q
        return q**3 - 4 * s * s + base + _eps(_EPS_N4, q, s, t, i)
    raise ValueError(f"count_small covers n in 1..4, got {n}")


def count_N(c: Element, n: int, fld: Field, gen: GeneratorData,
            dec: QuarticDecomposition | None = None) -> int:
    """N_n(c), the coefficient of x^n in the generating function `gf_N`."""
    if n < 1:
        raise ValueError("n must be positive")
    return genfunc.gf_N(fld, gen, dec, c).coefficient(n)


def count_via_cyclotomy(c: Element, n: int, fld: Field, gen: GeneratorData) -> int:
    """N_n(c) from dimension-j cyclotomic numbers, n <= 4, c != 0.

    Zeros with j nonzero coordinates contribute C(n, j) * 4^j * [4-i,...,4-i]_4
    where i = ind_g(c) mod 4.
    """
    if c.is_zero():
        raise ZeroRHSError("cyclotomic route covers c != 0 only")
    if fld.q % 4 != 1:
        raise WrongResidueClassError(f"q = {fld.q} is not 1 mod 4")
    if not 1 <= n <= 4:
        raise ValueError("cyclotomic route covers n in 1..4")
    i = quartic_class(c, gen)
    inv_index = (4 - i) % 4
    total = 0
    for j in range(1, n + 1):
        total += comb(n, j) * 4**j * cyclo_dim_enum([inv_index] * j, 4, fld, gen)
    return total


def count_M(y: Element, n: int, fld: Field, gen: GeneratorData,
            dec: QuarticDecomposition | None = None) -> int:
    """M_n(y) for y non-quartic and n >= 2: the coefficient of x^(n-1) in `gf_M`."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return genfunc.gf_M(fld, gen, dec, y).coefficient(n - 1)
