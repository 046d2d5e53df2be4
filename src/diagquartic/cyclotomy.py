"""Cyclotomic classes, a view of `field.log_table`, and cyclotomic numbers.

Order-4 numbers come in two flavors: exact enumeration over the classes (all
k^2 numbers (i, j)_k at once, `cyclotomic_matrix`), and Gauss's closed form
driven by the decomposition q = s^2 + 4t^2 (Berndt, Evans & Williams, *Gauss
and Jacobi Sums*, 1998, ch. 2): the 16 numbers (i, j)_4 take five values A-E,
laid out by rows i = 0..3 as ABCD, BDEE, CECE, DEEB for q = 1 mod 8 (f even)
and ABCD, EEDB, AEAE, EDBE for q = 5 mod 8 (f odd).
Dimension-n numbers [i_1, ..., i_n]_k come exactly from the class transfer matrices
A_l (`transfer_matrices`, which `counting.count_via_cyclotomy` also reads), by
reduction to ordinary cyclotomic numbers, and (for equal indices, k = 4) in closed form.
The (i, j)_k and the A_l are built once per (g, k) and kept, read-only, in
`field._stored` (kinds "cyclo" and "transfer"); `field.check_bytes` charges the class
array, the (i, j)_k and the A_l's object build before each is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import BadOrderError, InvariantError, NonIntegralError, WrongResidueClassError
from .field import Field, GeneratorData, _stored, check_bytes, check_field, log_table


@dataclass(frozen=True)
class QuarticDecomposition:
    """The normalized (s, t) with q = s^2 + 4t^2 and s = 1 mod 4.

    For p = 1 mod 4 the sign of t is pinned by 2t = s*zeta mod p, where zeta =
    g^(3(q-1)/4) = class_roots[3] lies in F_p, encoded as its residue; for p = 3 mod 4
    the pair is ((-p)^(m/2), 0).  Both s and t therefore depend on the chosen generator
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
    zeta = gen.class_roots[3]
    if zeta >= p or (zeta * zeta + 1) % p != 0:
        raise InvariantError(f"zeta = {zeta} is no square root of -1 in F_{p}")
    candidates = []
    for s in range(-isqrt(q), isqrt(q) + 1):
        if s % 4 != 1 or s % p == 0:
            continue
        rest = q - s * s  # >= 0, and 0 mod 4: s is odd and q = 1 mod 4
        tt = isqrt(rest // 4)
        if 4 * tt * tt != rest:
            continue
        for t in {tt, -tt}:
            if (2 * t - s * zeta) % p == 0:
                candidates.append(QuarticDecomposition(s=s, t=t))
    if len(candidates) != 1:
        raise InvariantError(f"expected unique (s, t) for q = {q}, got {candidates}")
    return candidates[0]


class CyclotomicClasses:
    """The k cyclotomic classes C_i = {g^(i + k*u)} of F_q^*, read off `log_table`:
    `class_of[x]` is ind_g(x) mod k for every encoding x (-1 at 0), so C_i is the
    encodings where `class_of == i`."""

    def __init__(self, fld: Field, gen: GeneratorData, k: int):
        import numpy as np
        q = fld.q
        if k < 1 or (q - 1) % k != 0:
            raise BadOrderError(f"k = {k} is not a positive divisor of q - 1 = {q - 1}")
        check_bytes(f"the class array of F_{q}", 8 * q)
        log = log_table(fld, gen)
        self.class_of = log % k
        self.class_of[0] = -1  # 0, the one encoding with no log


def cyclotomic_matrix(k: int, fld: Field, gen: GeneratorData) -> np.ndarray:
    """All (i, j)_k = #{x in C_i : 1 + x in C_j} as a read-only k x k int array,
    by one count over the pairs (x, 1 + x), stored per (g, k)."""
    check_bytes(f"the {k} x {k} cyclotomic numbers", 8 * k * k)
    check_field(fld, gen.g)
    return _stored(("cyclo", gen.g, k), lambda: _count_pairs(k, fld, gen))


def _count_pairs(k: int, fld: Field, gen: GeneratorData) -> np.ndarray:
    import numpy as np
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


# Gauss's table, keyed by q mod 8: row i of the layout names the letter of
# (i, j)_4 for j = 0..3, and each letter is (const, cs, ct) in
# 16 (i, j)_4 = q + const + cs*s + ct*t.
_QUARTIC_LETTERS = {
    1: ("ABCD BDEE CECE DEEB".split(),
        {"A": (-11, -6, 0), "B": (-3, 2, 8), "C": (-3, 2, 0), "D": (-3, 2, -8),
         "E": (1, -2, 0)}),
    5: ("ABCD EEDB AEAE EDBE".split(),
        {"A": (-7, 2, 0), "B": (1, 2, -8), "C": (1, -6, 0), "D": (1, 2, 8),
         "E": (-3, -2, 0)}),
}


def cyclotomic_number_quartic(i: int, j: int, dec: QuarticDecomposition, q: int) -> int:
    """Closed-form (i, j)_4: the letter A-E at row i, column j of Gauss's layout
    for q mod 8 (ABCD/BDEE/CECE/DEEB when f = (q-1)/4 is even, ABCD/EEDB/AEAE/EDBE
    when it is odd; Berndt, Evans & Williams, ch. 2), then that letter's formula."""
    if q % 4 != 1:
        raise WrongResidueClassError(f"q = {q} is not 1 mod 4")
    layout, letters = _QUARTIC_LETTERS[q % 8]
    const, cs, ct = letters[layout[i % 4][j % 4]]
    num = q + const + cs * dec.s + ct * dec.t
    return _exact_div(num, 16, f"(i={i}, j={j})_4")


def _transfer_matrices(cyc, q, h: int) -> np.ndarray:
    """The A_l from the d x d cyclotomic numbers cyc[i][j] = (i, j)_d, with -1 in C_h.

    A_l - I adds d summands over C_l (a x^4, a in C_l, for d = gcd(4, q - 1)) to the counts
    (N(0), N(C_0), ..., N(C_(d-1))): N'(0) = N(0) + (q - 1) N(C_(l+h)), N'(C_j) = N(C_j) +
    d [j = l] N(0) + d sum_k (l - j + h, k - j)_d N(C_k).  Pure in its arguments, so q and
    the (i, j)_d may be ring elements; Python int entries keep products exact."""
    import numpy as np
    d = len(cyc)
    return np.array([[[1] + [(q - 1) * (k == (l + h) % d) for k in range(d)]]
                     + [[d * (j == l)] + [(j == k) + d * cyc[(l - j + h) % d][(k - j) % d]
                                          for k in range(d)] for j in range(d)]
                     for l in range(d)], dtype=object)


def transfer_matrices(fld: Field, gen: GeneratorData, k: int) -> np.ndarray:
    """A_0 .. A_(k-1) as one read-only k x (k+1) x (k+1) int64 array (entries <= q),
    built by `_transfer_matrices` from the field's (i, j)_k in O(q) and stored per (g, k)."""
    import numpy as np
    check_bytes(f"the object build of {k} transfer matrices", 36 * k * (k + 1) ** 2)
    check_field(fld, gen.g)
    return _stored(("transfer", gen.g, k), lambda: _transfer_matrices(
        cyclotomic_matrix(k, fld, gen).tolist(), fld.q, (fld.q - 1) // 2 % k).astype(np.int64))


def cyclo_dim_enum(indices: list[int], k: int, fld: Field, gen: GeneratorData) -> int:
    """[i_1, ..., i_n]_k: tuples from C_{i_1} x ... x C_{i_n} summing to 1, read as
    (B_(i_n) ... B_(i_1) e_0)[1] (1 lies in C_0), where B_l = (A_l - I)/k, exact, adds
    one summand from C_l.  O(q) once, then n exact (k + 1)-square int64-by-object products."""
    import numpy as np
    if not indices:
        raise ValueError("at least one index required")
    steps = transfer_matrices(fld, gen, k)
    state = np.array([1] + [0] * k, dtype=object)
    for i in indices:
        state = (steps[i % k] @ state - state) // k
    return state[1]


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
    """Dimension-4 reduction: boundary terms plus a double sum of triples,
    sum over v1, v2 of (v2 - v1, -v1)_k u[v1] w[v2] with u[v1] = (i2 - i1, v1 - i1)_k
    and w[v2] = (i4 - i3, v2 - i3)_k, one gather of a column of the matrix and one
    dot with w per v1, in O(k) memory.  int64 is exact: a row or a column of the
    (i, j)_k sums to at most f = (q - 1)/k, so each inner dot is at most f^2 and the
    total at most f^3 < 2^60 (q <= 2^20)."""
    import numpy as np
    f, half = (fld.q - 1) // k, (fld.q - 1) // 2
    a = cyclotomic_matrix(k, fld, gen)
    first_pair_neg = (i2 - i1 - half) % k == 0
    second_pair_neg = (i4 - i3 - half) % k == 0
    gamma = 0
    if second_pair_neg:
        gamma += int(a[(i2 - i1) % k, -i1 % k]) * f
    if first_pair_neg:
        gamma += int(a[(i4 - i3) % k, -i3 % k]) * f
    vs = np.arange(k)
    u = a[(i2 - i1) % k, (vs - i1) % k]
    w = a[(i4 - i3) % k, (vs - i3) % k]
    inner = np.array([a[(vs - v1) % k, -v1 % k] @ w for v1 in range(k)], dtype=np.int64)
    return gamma + int(u @ inner)


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
