"""Cyclotomic classes, a view of `field.log_table`, and cyclotomic numbers.

Order-4 numbers come in two flavors: exact enumeration over the classes (all
k^2 numbers (i, j)_k at once, `cyclotomic_matrix`), and the classical
closed-form A-E table driven by the decomposition q = s^2 + 4t^2.
Dimension-n numbers [i_1, ..., i_n]_k are likewise available exactly, as the
value at 1 of the additive convolution of the class indicator vectors (the
oracle's own primitive, `field._group_convolve`), by reduction to ordinary
cyclotomic numbers, and (for equal indices, k = 4) in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import BadOrderError, InvariantError, NonIntegralError, WrongResidueClassError
from .field import (
    Field,
    GeneratorData,
    _group_convolve,
    check_convolution_cost,
    check_field,
    log_table,
    prime_subfield_residue,
)


@dataclass(frozen=True)
class QuarticDecomposition:
    """The normalized (s, t) with q = s^2 + 4t^2 and s = 1 mod 4.

    For p = 1 mod 4 the sign of t is pinned by 2t = s*zeta mod p, where zeta
    is the prime-field residue of g^(3(q-1)/4); for p = 3 mod 4 the pair is
    ((-p)^(m/2), 0).  Both s and t therefore depend on the chosen generator
    only through the sign of t.
    """

    s: int
    t: int


def quartic_decomposition(fld: Field, gen: GeneratorData) -> QuarticDecomposition:
    check_field(fld, gen.g)
    q, p, m = fld.q, fld.p, fld.m
    if q % 4 != 1:
        raise WrongResidueClassError(f"q = {q} is not 1 mod 4")
    if p % 4 == 3:
        # m is even here, else q = 3 mod 4
        s = (-p) ** (m // 2)
        return QuarticDecomposition(s=s, t=0)
    zeta = prime_subfield_residue(gen.g ** (3 * (q - 1) // 4))
    if (zeta * zeta + 1) % p != 0:
        raise InvariantError(f"zeta = {zeta} does not square to -1 mod {p}")
    candidates = []
    for s in range(-isqrt(q), isqrt(q) + 1):
        if s % 4 != 1 or s % p == 0:
            continue
        rest = q - s * s
        if rest < 0 or rest % 4 != 0:
            continue
        tt = isqrt(rest // 4)
        if 4 * tt * tt != rest:
            continue
        for t in ({tt, -tt} if tt else {0}):
            if (2 * t - s * zeta) % p == 0:
                candidates.append(QuarticDecomposition(s=s, t=t))
    if len(candidates) != 1:
        raise InvariantError(f"expected unique (s, t) for q = {q}, got {candidates}")
    return candidates[0]


class CyclotomicClasses:
    """The k cyclotomic classes C_i = {g^(i + k*u)} of F_q^*, read off `log_table`:
    `class_of[x]` is ind_g(x) mod k for every encoding x (-1 at 0), and
    `classes[i]` holds the encodings of C_i in the order g^i, g^(i+k), ..."""

    def __init__(self, fld: Field, gen: GeneratorData, k: int):
        q = fld.q
        if (q - 1) % k != 0:
            raise BadOrderError(f"k = {k} does not divide q - 1 = {q - 1}")
        self.f = (q - 1) // k
        log = log_table(fld, gen)
        self.class_of = np.where(log < 0, -1, log % k)
        antilog = np.empty(q - 1, dtype=np.int64)
        antilog[log[1:]] = np.arange(1, q)
        self.classes = [antilog[i::k] for i in range(k)]


def cyclotomic_matrix(k: int, fld: Field, gen: GeneratorData) -> np.ndarray:
    """All (i, j)_k = #{x in C_i : 1 + x in C_j} as a k x k int array, by one
    count over the pairs (x, 1 + x)."""
    class_of = CyclotomicClasses(fld, gen, k).class_of
    xs = np.arange(1, fld.q)
    low = xs % fld.p  # adding 1 raises the lowest base-p digit by one mod p
    i, j = class_of[xs], class_of[xs - low + (low + 1) % fld.p]
    keep = j >= 0  # 1 + x = 0 lies in no class
    return np.bincount(i[keep] * k + j[keep], minlength=k * k).reshape(k, k)


def cyclotomic_number_enum(i: int, j: int, k: int, fld: Field, gen: GeneratorData) -> int:
    """(i, j)_k = #{x in C_i : 1 + x in C_j}, by direct enumeration."""
    return int(cyclotomic_matrix(k, fld, gen)[i % k, j % k])


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den != 0:
        raise NonIntegralError(f"{what}: {num} not divisible by {den}")
    return num // den


# Lemma-2.4 style coefficient tables: (i, j) -> (constant, coeff s, coeff t)
# for 16*(i, j)_4 = q + const + cs*s + ct*t.
_QUARTIC_TABLE_F_EVEN = {
    (0, 0): (-11, -6, 0),
    (0, 1): (-3, 2, 8), (1, 0): (-3, 2, 8), (3, 3): (-3, 2, 8),
    (0, 2): (-3, 2, 0), (2, 0): (-3, 2, 0), (2, 2): (-3, 2, 0),
    (0, 3): (-3, 2, -8), (3, 0): (-3, 2, -8), (1, 1): (-3, 2, -8),
    (1, 2): (1, -2, 0), (2, 1): (1, -2, 0), (1, 3): (1, -2, 0),
    (3, 1): (1, -2, 0), (2, 3): (1, -2, 0), (3, 2): (1, -2, 0),
}
_QUARTIC_TABLE_F_ODD = {
    (0, 0): (-7, 2, 0), (2, 0): (-7, 2, 0), (2, 2): (-7, 2, 0),
    (0, 1): (1, 2, -8), (1, 3): (1, 2, -8), (3, 2): (1, 2, -8),
    (0, 2): (1, -6, 0),
    (0, 3): (1, 2, 8), (1, 2): (1, 2, 8), (3, 1): (1, 2, 8),
    (1, 0): (-3, -2, 0), (1, 1): (-3, -2, 0), (2, 1): (-3, -2, 0),
    (2, 3): (-3, -2, 0), (3, 0): (-3, -2, 0), (3, 3): (-3, -2, 0),
}


def cyclotomic_number_quartic(i: int, j: int, dec: QuarticDecomposition, q: int) -> int:
    """Closed-form (i, j)_4 from the A-E table for the parity of f = (q-1)/4,
    which is even exactly when q = 1 mod 8."""
    if q % 4 != 1:
        raise WrongResidueClassError(f"q = {q} is not 1 mod 4")
    table = _QUARTIC_TABLE_F_EVEN if q % 8 == 1 else _QUARTIC_TABLE_F_ODD
    const, cs, ct = table[(i % 4, j % 4)]
    num = q + const + cs * dec.s + ct * dec.t
    return _exact_div(num, 16, f"(i={i}, j={j})_4")


def cyclo_dim_enum(indices: list[int], k: int, fld: Field, gen: GeneratorData) -> int:
    """[i_1, ..., i_n]_k: tuples from C_{i_1} x ... x C_{i_n} summing to 1.

    The count is the value at 1 (encoding 1) of 1_{C_{i_1}} * ... * 1_{C_{i_n}},
    the additive convolution of the class indicator vectors, in exact integers.
    """
    if not indices:
        raise ValueError("at least one index required")
    check_convolution_cost(fld, len(indices))
    class_of = CyclotomicClasses(fld, gen, k).class_of
    hist = None
    for i in indices:
        indicator = (class_of == i % k).astype(int).tolist()
        hist = indicator if hist is None else _group_convolve(fld, hist, indicator)
    return hist[1]


def cyclo_dim2(i1: int, i2: int, k: int, fld: Field, gen: GeneratorData) -> int:
    """[i_1, i_2]_k = (i_2 - i_1, -i_1)_k."""
    return cyclotomic_number_enum(i2 - i1, -i1, k, fld, gen)


def cyclo_dim3(i1: int, i2: int, i3: int, k: int, fld: Field, gen: GeneratorData) -> int:
    """Dimension-3 reduction: a boundary term plus a sum of products of pairs."""
    f, half = (fld.q - 1) // k, (fld.q - 1) // 2
    a = cyclotomic_matrix(k, fld, gen).tolist()  # Python ints: the sums stay exact
    alpha = f if (i1 - i2 - half) % k == 0 and i3 % k == 0 else 0
    total = sum(a[(v - i3) % k][-i3 % k] * a[(i2 - i1) % k][(v - i1) % k]
                for v in range(k))
    return alpha + total


def cyclo_dim4(i1: int, i2: int, i3: int, i4: int, k: int, fld: Field,
               gen: GeneratorData) -> int:
    """Dimension-4 reduction: boundary terms plus a double sum of triples."""
    f, half = (fld.q - 1) // k, (fld.q - 1) // 2
    a = cyclotomic_matrix(k, fld, gen).tolist()  # Python ints: the sums stay exact
    first_pair_neg = (i2 - i1 - half) % k == 0
    second_pair_neg = (i4 - i3 - half) % k == 0
    gamma = 0
    if second_pair_neg:
        gamma += a[(i2 - i1) % k][-i1 % k] * f
    if first_pair_neg:
        gamma += a[(i4 - i3) % k][-i3 % k] * f
    total = sum(
        a[(v2 - v1) % k][-v1 % k]
        * a[(i2 - i1) % k][(v1 - i1) % k]
        * a[(i4 - i3) % k][(v2 - i3) % k]
        for v1 in range(k) for v2 in range(k))
    return gamma + total


# Closed forms for the diagonal entries [i, ..., i]_4, keyed by q mod 8 then i.
# Each row lists coefficients of (1, q, q^2, q^3, s, t, sq, tq, st, s^2, t^2)
# in the numerator; the divisor is 16, 64 or 256 by dimension.
_DIAG_COEFFS = {
    (2, 1): {
        0: (-11, 1, 0, 0, -6, 0, 0, 0, 0, 0, 0),
        1: (-3, 1, 0, 0, 2, -8, 0, 0, 0, 0, 0),
        2: (-3, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0),
        3: (-3, 1, 0, 0, 2, 8, 0, 0, 0, 0, 0),
    },
    (2, 5): {
        0: (-7, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0),
        1: (1, 1, 0, 0, 2, 8, 0, 0, 0, 0, 0),
        2: (1, 1, 0, 0, -6, 0, 0, 0, 0, 0, 0),
        3: (1, 1, 0, 0, 2, -8, 0, 0, 0, 0, 0),
    },
    (3, 1): {
        0: (21, 14, 1, 0, 24, 0, 0, 0, 0, 4, 0),
        1: (9, -10, 1, 0, 0, 24, 0, 0, 8, 0, 0),
        2: (9, -6, 1, 0, 0, 0, 0, 0, 0, -4, 0),
        3: (9, -10, 1, 0, 0, -24, 0, 0, -8, 0, 0),
    },
    (3, 5): {
        0: (9, -6, 1, 0, 0, 0, 0, 0, 0, -4, 0),
        1: (-3, 2, 1, 0, 0, -24, 0, 0, -8, 0, 0),
        2: (-3, -6, 1, 0, 24, 0, 0, 0, 0, 0, -16),
        3: (-3, 2, 1, 0, 0, 24, 0, 0, 8, 0, 0),
    },
    (4, 1): {
        0: (-34, -79, -4, 1, -60, 0, -60, 0, 0, -20, 0),
        1: (-18, 13, -4, 1, -12, -48, 20, -48, -32, 0, 16),
        2: (-18, 13, -4, 1, -12, 0, 20, 0, 0, 0, -48),
        3: (-18, 13, -4, 1, -12, 48, 20, 48, 32, 0, 16),
    },
    (4, 5): {
        0: (-10, 25, -4, 1, -12, 0, -28, 0, 0, 12, 0),
        1: (6, -11, -4, 1, -12, 48, 4, -16, 32, 0, 16),
        2: (6, 21, -4, 1, -60, 0, 20, 0, 0, 0, 80),
        3: (6, -11, -4, 1, -12, -48, 4, 16, -32, 0, 16),
    },
}
_DIAG_DIVISORS = {2: 16, 3: 64, 4: 256}


def cyclo_diag_quartic(n: int, i: int, dec: QuarticDecomposition, q: int) -> int:
    """Closed-form [i, ..., i]_4 (n copies) for n in {2, 3, 4}."""
    if q % 4 != 1:
        raise WrongResidueClassError(f"q = {q} is not 1 mod 4")
    if n not in _DIAG_DIVISORS:
        raise ValueError(f"no closed form for dimension {n}")
    coeffs = _DIAG_COEFFS[(n, q % 8)][i % 4]
    s, t = dec.s, dec.t
    basis = (1, q, q * q, q**3, s, t, s * q, t * q, s * t, s * s, t * t)
    num = sum(a * b for a, b in zip(coeffs, basis))
    return _exact_div(num, _DIAG_DIVISORS[n], f"[{i}]*{n} dim-{n}")
