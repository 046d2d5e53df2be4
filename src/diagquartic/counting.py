"""Solution counts for diagonal quartic forms over F_q.

Four of the five routes, cross-checked by `verify` and the tests:

* `count_N` / `count_M`, one series coefficient of the rational generating
  functions (the production path),
* an oracle for any a_1 x_1^4 + ... + a_n x_n^4 = c: the histogram of x^4 ((x^2)^2 off the
  digit array), stored once per field, scaled by each distinct a_k (a permutation of the
  encodings) and convolved (`_group_convolve`: one gather from the q x q addition table, one
  exact integer matrix-vector product, O(q^2) per variable; one variable reads no table),
  its histograms and table charged to `field.check_bytes` by `check_convolution_cost`,
* closed forms for n <= 4 assembled from the epsilon tables (`count_small`),
* a (d+1)-state recurrence on the cyclotomic numbers (i, j)_d (`count_via_cyclotomy`,
  on the matrices A_l of `cyclotomy.transfer_matrices`).

The fifth, exponential sums, is `expsums.reconstruct_series`.  The tests hold the
oracle to a literal q^n enumeration.  `_closed_small` and `cyclotomy._transfer_matrices`
are pure in q, s, t and the (i, j)_d, so the tests also run them on polynomials.
"""

from __future__ import annotations

from math import gcd

from . import genfunc
from .cyclotomy import QuarticDecomposition, transfer_matrices
from .errors import InvariantError, TooLargeError, WrongResidueClassError, ZeroRHSError
from .field import (
    Element, Field, GeneratorData, _digits, _negatives, _stored, _times_matrix, _weights,
    check_bytes, check_field, quartic_class)


# Rows of the digit array `power_profile` squares at once: beside the digit array
# and the squares, its working arrays hold POWER_PROFILE_ROWS x m entries each,
# whatever q.
POWER_PROFILE_ROWS = 2**12
# Bound on n*q^2, the work of the oracle's convolutions over (F_q, +) for n variables.
ORACLE_COST_GUARD = 10**9


def power_profile(fld: Field) -> np.ndarray:
    """Histogram of x -> x^4 over F_q by encoding, checked against the d-th power residue
    rule, d = gcd(4, q - 1): the digit array squared once, x^2 = sum_i x_i (x alpha^i),
    POWER_PROFILE_ROWS rows at a time, into the encodings of x^2, read twice for x^4."""
    import numpy as np
    d, digits, p, q = gcd(4, fld.q - 1), _digits(fld), fld.p, fld.q
    shifts = [_times_matrix(fld.element([0] * i + [1])) for i in range(fld.m)]
    weights = _weights(fld)
    square = np.empty(q, dtype=np.int64)
    for start in range(0, q, POWER_PROFILE_ROWS):
        x = digits[start:start + POWER_PROFILE_ROWS]
        x = sum(x[:, i, None] * (x @ shift % p) for i, shift in enumerate(shifts)) % p
        square[start:start + POWER_PROFILE_ROWS] = x @ weights
    del digits  # released before the gather, so the peak does not grow
    counts = np.bincount(square[square], minlength=q)
    # w(0) = 1, w(c) in {0, d} for c != 0
    if counts[0] != 1:
        raise InvariantError(f"x^4 has {counts[0]} roots of 0 in F_{q}")
    if np.any((counts[1:] != 0) & (counts[1:] != d)):
        raise InvariantError(f"x^4 breaks the {d}-th power residue rule in F_{q}")
    return counts


def check_convolution_cost(fld: Field, n: int) -> None:
    """Raise TooLargeError unless the oracle's n histograms, and for n >= 2 its
    convolutions over F_q and the q x q int64 addition table they read, fit the cost
    guard and `field.check_bytes`.  A histogram holds q counts below q^n, of n*bits(q)
    bits each.  The q x nnz(h2) block a convolution gathers from the table never holds
    more than its q^2 entries, so the table's charge bounds the gather too."""
    q = fld.q
    if n > 1 and n * q**2 > ORACLE_COST_GUARD:
        raise TooLargeError(f"convolution cost n*q^2 = {n}*{q}^2 exceeds guard")
    check_bytes(f"{n} histograms of counts below {q}^{n}", n * q * n * q.bit_length() // 8)
    if n > 1:
        check_bytes(f"the addition table of F_{q}", 8 * q**2)


def _addition_tables(fld: Field) -> np.ndarray:
    """enc(a + b) for all encoding pairs, as a q x q int64 array.

    Addition is digitwise mod p, so row a is sum_i ((d_i(a) + d_i(b)) mod p) p^i
    over all b, computed from the digit array one row at a time.
    """
    import numpy as np
    digits, weights = _digits(fld), _weights(fld)
    table = np.empty((fld.q, fld.q), dtype=np.int64)
    for a in range(fld.q):
        table[a] = ((digits[a] + digits) % fld.p) @ weights
    return table


def _group_convolve(fld: Field, h1: list[int], h2: list[int]) -> list[int]:
    """Additive convolution over (F_q, +): out[c] = sum_b h1[c - b] * h2[b].

    The addition table T has T[c, enc(-b)] = enc(c - b), so out is one gather and
    one matrix-vector product, h1[T[:, neg]] @ h2[cols], over the encodings b in
    cols where h2 is nonzero, with neg their `_negatives`.  No partial sum
    exceeds sum|h1| * sum|h2|: while that bound and both totals are below 2^63
    the product runs in int64, and otherwise on Python ints (dtype object), so
    the counts stay exact.
    """
    import numpy as np
    table = _stored(("add", fld), lambda: _addition_tables(fld))
    s1, s2 = sum(map(abs, h1)), sum(map(abs, h2))
    dtype = np.int64 if max(s1, s2, s1 * s2) < 2**63 else object
    v1, v2 = np.array(h1, dtype=dtype), np.array(h2, dtype=dtype)
    cols = np.flatnonzero(v2)
    return (v1[table[:, _negatives(fld, cols)]] @ v2[cols]).tolist()


def oracle_histograms(fld: Field, coeffs: list[Element]):
    """After each a_k, yield the zero counts of a_1 x_1^4 + ... + a_k x_k^4 = c
    for each c (by encoding); only the latest histogram is held."""
    import numpy as np
    if not coeffs:
        raise ValueError("at least one variable required")
    check_field(fld, *coeffs)
    check_convolution_cost(fld, len(coeffs))
    base = _stored(("power", fld), lambda: power_profile(fld))
    digits, weights = _digits(fld), _weights(fld)
    hist, scalings = None, {}
    for a in coeffs:
        if a.is_zero():
            raise ValueError("coefficients must be nonzero")
        if a.encode() not in scalings:  # x -> a x is a permutation of the encodings
            scaled = np.empty(fld.q, dtype=np.int64)
            scaled[digits @ _times_matrix(a) % fld.p @ weights] = base
            scalings[a.encode()] = scaled.tolist()
        scaled = scalings[a.encode()]
        hist = scaled if hist is None else _group_convolve(fld, hist, scaled)
        yield hist


def oracle_histogram(fld: Field, coeffs: list[Element]) -> list[int]:
    """For each c (by encoding), the number of zeros of sum a_i x_i^4 = c."""
    for hist in oracle_histograms(fld, coeffs):
        pass
    return hist


def oracle_count(coeffs: list[Element], c: Element) -> int:
    """Exact zero count of a_1 x_1^4 + ... + a_n x_n^4 = c by convolution."""
    return oracle_histogram(c.field, coeffs)[c.encode()]


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


def _closed_small(q, s, t, r: int, i: int, n: int):
    """N_n(c) for c in C_i and 1 <= n <= 4, q = r mod 8 = s^2 + 4t^2 with r in
    {1, 5}: a main term plus the epsilon row.  Pure in its arguments, so q, s and
    t may be ring elements."""
    basis = (1, q, s, t, s * q, t * q, s * t, s * s, t * t)
    if n == 1:
        return 4 if i == 0 else 0
    if n == 2:
        main, table = q + (-3 if r == 1 else 1), _EPS_N2
    elif n == 3:
        main, table = q * q + 6 * s, _EPS_N3
    elif n == 4:
        main, table = q**3 - 4 * s * s + (-17 * q if r == 1 else 7 * q), _EPS_N4
    else:
        raise ValueError(f"count_small covers n in 1..4, got {n}")
    return main + sum(a * b for a, b in zip(table[r][i], basis))


def count_small(c: Element, n: int, dec: QuarticDecomposition, fld: Field,
                gen: GeneratorData) -> int:
    """Closed-form N_n(c) for 1 <= n <= 4, c != 0, q = 1 mod 4."""
    check_field(fld, gen.g, c)
    q = fld.q
    if q % 4 != 1:
        raise WrongResidueClassError(f"q = {q} is not 1 mod 4")
    if c.is_zero():
        raise ZeroRHSError("closed forms cover c != 0 only; use count_N for c = 0")
    return _closed_small(q, dec.s, dec.t, q % 8, quartic_class(c, gen), n)


def count_N(c: Element, n: int, fld: Field, gen: GeneratorData,
            dec: QuarticDecomposition | None = None) -> int:
    """N_n(c), the coefficient of x^n in the generating function `gf_N`."""
    if n < 1:
        raise ValueError("n must be positive")
    return genfunc.gf_N(fld, gen, dec, c).coefficient(n)


def count_via_cyclotomy(c: Element, n: int, fld: Field, gen: GeneratorData,
                        y: Element | None = None) -> int:
    """Zeros of x_1^4 + ... + x_(n-1)^4 + y x_n^4 = c (y = 1: N_n(c); c = 0: M_n(y)).

    The count is read off A_0^(n-1) A_(ind y) e_0, from the first column of
    A_(ind y), with the A_l of `cyclotomy.transfer_matrices`, d = gcd(4, q - 1): O(q)
    once, then O(d^3 log n) products, on Python ints: the counts pass 2^63."""
    check_field(fld, gen.g, c)
    if n < 1:
        raise ValueError("n must be positive")
    steps = transfer_matrices(fld, gen, len(gen.class_roots))
    state = steps[0 if y is None else quartic_class(y, gen)][:, 0].astype(object)
    power, n = steps[0].astype(object), n - 1
    while n:
        state = power @ state if n & 1 else state
        n >>= 1
        power = power @ power if n else power
    return state[0] if c.is_zero() else state[1 + quartic_class(c, gen)]


def count_M(y: Element, n: int, fld: Field, gen: GeneratorData,
            dec: QuarticDecomposition | None = None) -> int:
    """M_n(y) for y non-quartic and n >= 2: the coefficient of x^(n-1) in `gf_M`."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return genfunc.gf_M(fld, gen, dec, y).coefficient(n - 1)
