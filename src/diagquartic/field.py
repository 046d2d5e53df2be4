"""Arithmetic in F_{p^m} with a deterministic modulus and generator.

Elements are coefficient vectors over Z/p in the basis 1, x, ..., x^{m-1}.
Every element has a canonical integer encoding sum(c_i * p^i), a bijection
onto [0, q-1], used in all I/O.

One kernel does the arithmetic: `_mulmod`, the product of two length-m
coefficient tuples mod the monic modulus f, and its square-and-multiply
`_powmod`.  `Element` products and powers call it, and so does
`is_irreducible`, which runs Rabin's test in the ring F_p[x]/(f) itself.

`quartic_class` gives ind_g(x) mod d, d = gcd(4, q-1), by Euler's criterion through
the norm N_e to F_(p^e), e = 1 if d | p-1 and 2 otherwise: x^((q-1)/d) =
N_e(x)^((p^e-1)/d) (Lidl & Niederreiter, Finite Fields, ch. 2), by the doubling chain
of Itoh & Tsujii (Inform. and Comput. 78, 1988) over the F_p-linear Frobenius map,
whose matrices, not tables, a Field builds on first use; `trace` sums its conjugates.

Jobs that touch every element read whole-field tables over the encodings:
`log_table` holds ind_g(x) for every x, built once per generator, and is
what `index_of` and the cyclotomic classes read; `_group_convolve`, the one
additive convolution over (F_q, +) that the oracle and the dimension-n
cyclotomic numbers share, reads the addition table; `trace_table` holds
Tr(x) mod p for every encoding.  All three kinds share one store (`_stored`)
under one byte guard, and the oldest tables leave it first, whatever their kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (
    FieldMismatchError,
    FieldTooLargeError,
    InvariantError,
    NotInPrimeSubfieldError,
    NotPrimeError,
    TooLargeError,
    ZeroHasNoIndexError,
)

DEFAULT_FIELD_BOUND = 2**20
# Bound on n*q^2, the work of n convolutions over (F_q, +).
ORACLE_COST_GUARD = 10**9
# Bound on the bytes of the q x q addition table (q <= 5792), on the n
# histograms of n convolutions, and on the arrays the table store holds
# together.
ORACLE_TABLE_BYTES_GUARD = 2**28


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for n below the field bound."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# ---------------------------------------------------------------------------
# The field kernel: products in F_p[x]/(f) on length-m coefficient tuples,
# constant term first, f monic of degree m.
# ---------------------------------------------------------------------------

def _mulmod(a: tuple[int, ...], b: tuple[int, ...], f: tuple[int, ...],
            p: int) -> tuple[int, ...]:
    """a*b mod (f, p): the schoolbook product, reduced from the top term down."""
    m = len(a)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        lead = prod[k] % p
        if lead:
            for j, fc in enumerate(f[:m], k - m):
                prod[j] -= lead * fc
    return tuple([c % p for c in prod[:m]])


def _powmod(a: tuple[int, ...], n: int, f: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a^n mod (f, p) by square-and-multiply from the top bit of n, n >= 0."""
    if n == 0:
        return (1,) + (0,) * (len(a) - 1)
    result = a
    for bit in bin(n)[3:]:
        result = _mulmod(result, result, f, p)
        if bit == "1":
            result = _mulmod(result, a, f, p)
    return result


def is_irreducible(modulus: tuple[int, ...] | list[int], p: int) -> bool:
    """Test a monic degree-m polynomial f over Z/p for irreducibility.

    Rabin's test (SIAM J. Comput. 9, 1980), run in R = F_p[x]/(f): if
    x^(p^m) = x in R, then R is a product of fields F_(p^d) with d | m, and
    it is one field exactly when, for every prime l | m, h = x^(p^(m/l)) - x
    is a unit of R, that is h^(p^m - 1) = 1.
    """
    m = len(modulus) - 1
    if m < 1 or modulus[-1] != 1:
        return False
    if m == 1:
        return True
    f = tuple(c % p for c in modulus)
    x = (0, 1) + (0,) * (m - 2)
    one = (1,) + (0,) * (m - 1)
    if _powmod(x, p**m, f, p) != x:
        return False
    for ell in factorize(m):
        h = _powmod(x, p ** (m // ell), f, p)
        h = tuple([(c - xc) % p for c, xc in zip(h, x)])
        if _powmod(h, p**m - 1, f, p) != one:
            return False
    return True


def minimal_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The monic irreducible of degree m over Z/p with smallest encoding.

    The lower coefficients (c_0, ..., c_{m-1}) are scanned in order of the
    integer sum(c_i * p^i), so the result is deterministic.
    """
    if m == 1:
        return (0, 1)
    for code in range(p**m):
        candidate = [code // p**i % p for i in range(m)] + [1]
        if is_irreducible(candidate, p):
            return tuple(candidate)
    raise InvariantError(f"no irreducible of degree {m} over F_{p}")


class Field:
    """F_{p^m} with an explicit monic modulus polynomial."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p) or p == 2:
            raise NotPrimeError(f"p = {p} is not an odd prime")
        if m < 1:
            raise ValueError(f"m = {m} must be positive")
        q = p**m
        if q > DEFAULT_FIELD_BOUND:
            raise FieldTooLargeError(f"q = {q} exceeds bound {DEFAULT_FIELD_BOUND}")
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            modulus = minimal_irreducible(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self._frobenius_columns: dict[int, list[tuple[int, ...]]] = {}

    def _frobenius(self, s: int, a: tuple[int, ...]) -> tuple[int, ...]:
        """a^(p^s), m >= 2: a times the F_p-matrix whose row i holds (x^i)^(p^s)
        mod f, built on the first call for s and kept as its m columns."""
        columns = self._frobenius_columns.get(s)
        if columns is None:
            x_s = _powmod((0, 1) + (0,) * (self.m - 2), self.p**s, self.modulus, self.p)
            columns = self._frobenius_columns[s] = list(zip(*[
                _powmod(x_s, i, self.modulus, self.p) for i in range(self.m)]))
        return tuple([sum(map(mul, a, column)) % self.p for column in columns])

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    # -- element construction -------------------------------------------------

    def element(self, coeffs) -> Element:
        c = [x % self.p for x in coeffs]
        c += [0] * (self.m - len(c))
        if len(c) != self.m:
            raise ValueError("too many coefficients")
        return Element(self, tuple(c))

    def from_int(self, code: int) -> Element:
        """Decode the canonical integer encoding sum(c_i * p^i)."""
        if not 0 <= code < self.q:
            raise ValueError(f"encoding {code} out of range [0, {self.q})")
        coeffs = []
        for _ in range(self.m):
            coeffs.append(code % self.p)
            code //= self.p
        return Element(self, tuple(coeffs))

    def zero(self) -> Element:
        return Element(self, (0,) * self.m)

    def one(self) -> Element:
        return Element(self, (1,) + (0,) * (self.m - 1))

    def elements(self):
        """All q elements, in encoding order."""
        return (self.from_int(i) for i in range(self.q))


@dataclass(frozen=True)
class Element:
    """An element of F_{p^m} as a residue vector in the power basis."""

    field: Field
    coeffs: tuple[int, ...]

    def encode(self) -> int:
        code = 0
        for c in reversed(self.coeffs):
            code = code * self.field.p + c
        return code

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: Element) -> None:
        if self.field != other.field:
            raise FieldMismatchError("operands from different fields")

    def __add__(self, other: Element) -> Element:
        self._check(other)
        p = self.field.p
        return Element(self.field, tuple((a + b) % p
                                         for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: Element) -> Element:
        self._check(other)
        p = self.field.p
        return Element(self.field, tuple((a - b) % p
                                         for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> Element:
        p = self.field.p
        return Element(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: Element) -> Element:
        self._check(other)
        f = self.field
        return Element(f, _mulmod(self.coeffs, other.coeffs, f.modulus, f.p))

    def __truediv__(self, other: Element) -> Element:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return self * other.inverse()

    def inverse(self) -> Element:
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return self ** (self.field.q - 2)

    def __pow__(self, n: int) -> Element:
        if n < 0:
            return self.inverse() ** (-n)
        f = self.field
        if f.m == 1:
            return Element(f, (pow(self.coeffs[0], n, f.p),))
        return Element(f, _powmod(self.coeffs, n, f.modulus, f.p))

    def __repr__(self) -> str:
        return f"<{self.encode()} in F_{self.field.q}>"


@dataclass
class GeneratorData:
    """A generator g of F_q^* with its class roots.

    `class_roots[i]` is the encoding of g^(i(q-1)/d), d = gcd(4, q-1): the
    d-th roots of unity that `quartic_class` looks x^((q-1)/d) up in.
    """

    g: Element
    class_roots: tuple[int, ...]

    @property
    def field(self) -> Field:
        return self.g.field


def multiplicative_order_is_full(x: Element, factors: dict[int, int]) -> bool:
    if x.is_zero():
        return False
    q1 = x.field.q - 1
    one = x.field.one()
    return all(x ** (q1 // ell) != one for ell in factors)


def find_generator(fld: Field, override: int | None = None) -> GeneratorData:
    """The generator with smallest canonical encoding (or a validated override)."""
    if override is not None:
        g = fld.from_int(override)
        if not multiplicative_order_is_full(g, factorize(fld.q - 1)):
            raise ValueError(f"element {override} does not generate F_{fld.q}^*")
    else:
        g = next(all_generators(fld), None)
        if g is None:
            raise InvariantError(f"no generator of F_{fld.q}^* found")
    d = math.gcd(4, fld.q - 1)
    root = g ** ((fld.q - 1) // d)
    return GeneratorData(g=g, class_roots=tuple((root ** i).encode() for i in range(d)))


def all_generators(fld: Field):
    """Every generator of F_q^*, in encoding order."""
    factors = factorize(fld.q - 1)
    for code in range(1, fld.q):
        cand = fld.from_int(code)
        if multiplicative_order_is_full(cand, factors):
            yield cand


def quartic_class(x: Element, gen: GeneratorData) -> int:
    """ind_g(x) mod d, d = gcd(4, q-1), by Euler's criterion through the norm.

    x^((q-1)/d) = g^(i(q-1)/d) exactly when ind_g(x) = i mod d (Lidl & Niederreiter,
    Finite Fields, ch. 9), and x^((q-1)/d) = N_e(x)^((p^e-1)/d), N_e(x) = prod_{i<k}
    x^(p^(ei)), k = m/e, e = 1 if d | p-1 and 2 otherwise (ibid., ch. 2).  Itoh &
    Tsujii's chain (Inform. and Comput. 78, 1988) walks the bits of k from N_1 = x
    by N_2j = N_j * Phi^(ej)(N_j) and N_(j+1) = x * Phi^e(N_j).
    """
    fld = x.field
    if gen.field != fld:
        raise FieldMismatchError("generator from a different field")
    if x.is_zero():
        raise ZeroHasNoIndexError("ind_g(0) is undefined")
    p, f, d = fld.p, fld.modulus, len(gen.class_roots)
    e = 1 if (p - 1) % d == 0 else 2
    norm, j = x.coeffs, 1
    for bit in bin(fld.m // e)[3:]:
        norm, j = _mulmod(norm, fld._frobenius(e * j, norm), f, p), 2 * j
        if bit == "1":
            norm, j = _mulmod(x.coeffs, fld._frobenius(e, norm), f, p), j + 1
    if e == 1:  # the norm is a residue mod p
        return gen.class_roots.index(pow(norm[0], (p - 1) // d, p))
    return gen.class_roots.index(Element(fld, _powmod(norm, (p * p - 1) // d, f, p)).encode())


def check_field(fld: Field, *xs: Element) -> None:
    """FieldMismatchError unless every x is an element of fld."""
    for x in xs:
        if x.field != fld:
            raise FieldMismatchError(f"{x!r} is not an element of {fld!r}")


def index_of(x: Element, gen: GeneratorData) -> int:
    """Discrete log base g, in [0, q-2], read from `log_table`."""
    if x.is_zero():
        raise ZeroHasNoIndexError("ind_g(0) is undefined")
    return int(log_table(x.field, gen)[x.encode()])


def trace(x: Element) -> int:
    """Tr(x) = x + x^p + ... + x^(p^(m-1)), as a residue mod p, by conjugates."""
    conjugate, total = x.coeffs, x
    for _ in range(x.field.m - 1):
        conjugate = x.field._frobenius(1, conjugate)
        total = total + Element(x.field, conjugate)
    return prime_subfield_residue(total)


def prime_subfield_residue(x: Element) -> int:
    """The residue c with x = c*1, or NotInPrimeSubfieldError."""
    if any(c != 0 for c in x.coeffs[1:]):
        raise NotInPrimeSubfieldError(f"{x!r} has nonzero higher coefficients")
    return x.coeffs[0]


# ---------------------------------------------------------------------------
# Whole-field tables over the canonical encodings.
# ---------------------------------------------------------------------------

def _digits(fld: Field) -> np.ndarray:
    """The q x m array of base-p digits of every encoding, lowest first."""
    codes = np.arange(fld.q, dtype=np.int64)
    return np.stack([codes // fld.p**i % fld.p for i in range(fld.m)], axis=1)


_TABLES: dict[tuple, np.ndarray] = {}  # ("add" | "trace", fld) or ("log", g), oldest first


def _stored(key: tuple, build) -> np.ndarray:
    """_TABLES[key], built as build() on a miss and made read-only.  Once the
    stored arrays exceed ORACLE_TABLE_BYTES_GUARD bytes together, the oldest
    tables go first, whatever their kind."""
    table = _TABLES.get(key)
    if table is None:
        table = build()
        table.setflags(write=False)
        _TABLES[key] = table
        while (len(_TABLES) > 1
               and sum(t.nbytes for t in _TABLES.values()) > ORACLE_TABLE_BYTES_GUARD):
            del _TABLES[next(iter(_TABLES))]
    return table


def check_convolution_cost(fld: Field, n: int) -> None:
    """Raise TooLargeError unless n convolutions over F_q, the q x q addition
    table they read and the n histograms they yield fit the cost and byte
    guards.  A histogram holds q counts below q^n, of n*bits(q) bits each."""
    if n * fld.q**2 > ORACLE_COST_GUARD:
        raise TooLargeError(f"convolution cost n*q^2 = {n}*{fld.q}^2 exceeds guard")
    hist_bytes = n * fld.q * n * fld.q.bit_length() // 8
    if hist_bytes > ORACLE_TABLE_BYTES_GUARD:
        raise TooLargeError(f"{n} histograms of counts below {fld.q}^{n} take about "
                            f"{hist_bytes} bytes, past guard {ORACLE_TABLE_BYTES_GUARD}")
    table_bytes = fld.q**2 * np.dtype(np.intp).itemsize
    if table_bytes > ORACLE_TABLE_BYTES_GUARD:
        raise TooLargeError(f"addition table of {table_bytes} bytes exceeds "
                            f"guard {ORACLE_TABLE_BYTES_GUARD}")


def _addition_tables(fld: Field) -> np.ndarray:
    """enc(a + b) for all encoding pairs, as a q x q int array.

    Addition is digitwise mod p, so row a is sum_i ((d_i(a) + d_i(b)) mod p) p^i
    over all b, computed from the digit array one row at a time.
    """
    digits = _digits(fld)
    weights = fld.p ** np.arange(fld.m, dtype=np.int64)
    table = np.empty((fld.q, fld.q), dtype=np.intp)
    for a in range(fld.q):
        table[a] = ((digits[a] + digits) % fld.p) @ weights
    return table


def _group_convolve(fld: Field, h1: list[int], h2: list[int]) -> list[int]:
    """Additive convolution over (F_q, +): out[a+b] += h1[a] * h2[b]."""
    table = _stored(("add", fld), lambda: _addition_tables(fld))
    out = [0] * fld.q
    for a, v in enumerate(h1):
        if v:
            row = table[a]
            for b, w in enumerate(h2):
                if w:
                    out[row[b]] += v * w
    return out


def _trace_table(fld: Field) -> np.ndarray:
    basis = np.array([trace(fld.element([0] * i + [1])) for i in range(fld.m)],
                     dtype=np.int64)
    return (_digits(fld) @ basis) % fld.p


def trace_table(fld: Field) -> np.ndarray:
    """Tr(x) mod p for every encoding x, as a read-only int64 array.

    Tr is F_p-linear, so the table is digits @ (Tr(1), Tr(a), ..., Tr(a^(m-1)))
    mod p, a the root of the modulus: m calls to `trace` per field.
    """
    return _stored(("trace", fld), lambda: _trace_table(fld))


def _log_table(g: Element) -> np.ndarray:
    fld = g.field
    n = fld.q - 1
    step = math.isqrt(n - 1) + 1  # step^2 >= n
    weights = fld.p ** np.arange(fld.m, dtype=np.int64)
    block = np.empty((step, fld.m), dtype=np.int64)
    acc = fld.one()
    for j in range(step):
        block[j] = acc.coeffs
        acc = acc * g
    # acc = g^step; row i of its multiplication matrix holds the digits of a^i * g^step
    giant = np.array([(fld.element([0] * i + [1]) * acc).coeffs for i in range(fld.m)],
                     dtype=np.int64)
    log = np.full(fld.q, -1, dtype=np.int64)
    for start in range(0, n, step):
        size = min(step, n - start)
        log[block[:size] @ weights] = np.arange(start, start + size)
        block = block @ giant % fld.p
    if log[0] != -1 or (log[1:] < 0).any():
        raise InvariantError(f"{g!r} does not generate F_{fld.q}^*")
    return log


def log_table(fld: Field, gen: GeneratorData) -> np.ndarray:
    """ind_g(x) for every encoding x, and -1 at 0, as a read-only int64 array.

    Built once per generator (Lidl & Niederreiter, Finite Fields, ch. 9): the
    digit rows of g^0 .. g^(B-1), B = ceil(sqrt(q-1)), then each next block of
    B powers as the last times the F_p-matrix of multiplication by g^B."""
    check_field(fld, gen.g)
    return _stored(("log", gen.g), lambda: _log_table(gen.g))
