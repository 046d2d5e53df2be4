"""Arithmetic in F_{p^m} with a deterministic modulus and generator.

Elements are coefficient vectors over Z/p in the basis 1, x, ..., x^{m-1}.
Every element has a canonical integer encoding sum(c_i * p^i), a bijection
onto [0, q-1], used in all I/O.

`quartic_class` gives the cyclotomic class ind_g(x) mod gcd(4, q-1) by
Euler's criterion, one power of x and no discrete log; the counts need
nothing more.  `index_of` is the full discrete log, by baby-step/giant-step
for every q.

Jobs that touch every element read whole-field tables built from the q x m
array of base-p digits of the encodings: `_group_convolve`, the one additive
convolution over (F_q, +) that the oracle and the dimension-n cyclotomic
numbers share, reads the addition table; `trace_table` holds Tr(x) mod p for
every encoding.  Both caches are bounded in bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

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
# Bound on the bytes of the q x q addition table (q <= 5792), and on the
# arrays each table cache holds together.
ORACLE_TABLE_BYTES_GUARD = 2**28


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
# Polynomial helpers over Z/p.  Coefficient lists, constant term first,
# trailing zeros trimmed.
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], modulus: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(modulus) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mc in enumerate(modulus):
                a[shift + i] = (a[shift + i] - lead * mc) % p
        _trim(a)
        if not a:
            break
    return a


def _poly_mulmod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, modulus, p)


def _poly_powmod(a: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(list(a), modulus, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _trim(out)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        monic_b = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, monic_b, p)
    return a


def is_irreducible(modulus: list[int], p: int) -> bool:
    """Test a monic degree-m polynomial over Z/p for irreducibility.

    Uses the standard criterion: x^(p^m) = x mod f, and for every prime l | m
    the polynomial x^(p^(m/l)) - x is coprime to f.
    """
    m = len(modulus) - 1
    if m < 1 or modulus[-1] != 1:
        return False
    if m == 1:
        return True
    x = [0, 1]
    xq = _poly_powmod(x, p**m, modulus, p)
    if _poly_sub(xq, x, p):
        return False
    for ell in factorize(m):
        xsub = _poly_powmod(x, p ** (m // ell), modulus, p)
        d = _poly_sub(xsub, x, p)
        if len(_poly_gcd(list(modulus), d, p)) - 1 != 0:
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
        coeffs = []
        v = code
        for _ in range(m):
            coeffs.append(v % p)
            v //= p
        candidate = coeffs + [1]
        if is_irreducible(candidate, p):
            return tuple(candidate)
    raise InvariantError(f"no irreducible of degree {m} over F_{p}")


class Field:
    """F_{p^m} with an explicit monic modulus polynomial."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None,
                 bound: int = DEFAULT_FIELD_BOUND):
        if not is_prime(p) or p == 2:
            raise NotPrimeError(f"p = {p} is not an odd prime")
        if m < 1:
            raise ValueError(f"m = {m} must be positive")
        q = p**m
        if q > bound:
            raise FieldTooLargeError(f"q = {q} exceeds bound {bound}")
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            modulus = minimal_irreducible(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus

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
        prod = _poly_mulmod(list(self.coeffs), list(other.coeffs),
                            list(f.modulus), f.p)
        prod += [0] * (f.m - len(prod))
        return Element(f, tuple(prod))

    def __truediv__(self, other: Element) -> Element:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return self * other.inverse()

    def inverse(self) -> Element:
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return self ** (self.field.q - 2)

    def __pow__(self, e: int) -> Element:
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        if f.m == 1:
            return Element(f, (pow(self.coeffs[0], e, f.p),))
        power = _poly_powmod(list(self.coeffs), e, list(f.modulus), f.p)
        return Element(f, tuple(power + [0] * (f.m - len(power))))

    def __repr__(self) -> str:
        return f"<{self.encode()} in F_{self.field.q}>"


@dataclass
class GeneratorData:
    """A generator g of F_q^* with its order witness and class roots.

    `class_roots[i]` is the encoding of g^(i(q-1)/d), d = gcd(4, q-1): the
    d-th roots of unity that `quartic_class` looks x^((q-1)/d) up in.
    """

    g: Element
    order_factorization: dict[int, int]
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
    factors = factorize(fld.q - 1)
    if override is not None:
        g = fld.from_int(override)
        if g.is_zero() or not multiplicative_order_is_full(g, factors):
            raise ValueError(f"element {override} does not generate F_{fld.q}^*")
    else:
        g = next(all_generators(fld), None)
        if g is None:
            raise InvariantError(f"no generator of F_{fld.q}^* found")
    d = math.gcd(4, fld.q - 1)
    root = g ** ((fld.q - 1) // d)
    return GeneratorData(g=g, order_factorization=factors,
                         class_roots=tuple((root ** i).encode() for i in range(d)))


def all_generators(fld: Field):
    """Every generator of F_q^*, in encoding order."""
    factors = factorize(fld.q - 1)
    for code in range(1, fld.q):
        cand = fld.from_int(code)
        if multiplicative_order_is_full(cand, factors):
            yield cand


def quartic_class(x: Element, gen: GeneratorData) -> int:
    """ind_g(x) mod d, d = gcd(4, q-1), by Euler's criterion.

    x^((q-1)/d) is the d-th root of unity g^(i(q-1)/d) exactly when
    ind_g(x) = i mod d (Lidl & Niederreiter, Finite Fields, ch. 9).
    """
    if x.is_zero():
        raise ZeroHasNoIndexError("ind_g(0) is undefined")
    d = len(gen.class_roots)
    return gen.class_roots.index((x ** ((x.field.q - 1) // d)).encode())


def index_of(x: Element, gen: GeneratorData) -> int:
    """Discrete log base g, in [0, q-2], by baby-step/giant-step; keeps no table."""
    if x.is_zero():
        raise ZeroHasNoIndexError("ind_g(0) is undefined")
    fld = x.field
    n = fld.q - 1
    mstep = math.isqrt(n - 1) + 1
    baby: dict[int, int] = {}
    acc = fld.one()
    for j in range(mstep):
        baby.setdefault(acc.encode(), j)
        acc = acc * gen.g
    giant_step = gen.g.inverse() ** mstep
    gamma = x
    for i in range(mstep + 1):
        j = baby.get(gamma.encode())
        if j is not None:
            return (i * mstep + j) % n
        gamma = gamma * giant_step
    raise InvariantError("BSGS failed; generator invalid?")


def trace(x: Element) -> int:
    """Tr(x) = x + x^p + ... + x^(p^(m-1)), returned as a residue mod p."""
    fld = x.field
    total = reduce(lambda a, b: a + b,
                   (x ** (fld.p**i) for i in range(fld.m)))
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


def _bounded_get(cache: dict, fld: Field, build) -> np.ndarray:
    """cache[fld], built on a miss.  Once the arrays in the cache exceed
    ORACLE_TABLE_BYTES_GUARD bytes together, the oldest entries go first."""
    table = cache.get(fld)
    if table is None:
        table = build(fld)
        table.setflags(write=False)
        cache[fld] = table
        while (len(cache) > 1
               and sum(t.nbytes for t in cache.values()) > ORACLE_TABLE_BYTES_GUARD):
            del cache[next(iter(cache))]
    return table


def check_convolution_cost(fld: Field, n: int) -> None:
    """Raise TooLargeError unless n convolutions over F_q, and the q x q
    addition table they read, fit the cost and byte guards."""
    if n * fld.q**2 > ORACLE_COST_GUARD:
        raise TooLargeError(f"convolution cost n*q^2 = {n}*{fld.q}^2 exceeds guard")
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


_ADD_TABLE_CACHE: dict[Field, np.ndarray] = {}


def _group_convolve(fld: Field, h1: list[int], h2: list[int]) -> list[int]:
    """Additive convolution over (F_q, +): out[a+b] += h1[a] * h2[b]."""
    table = _bounded_get(_ADD_TABLE_CACHE, fld, _addition_tables)
    out = [0] * fld.q
    for a, v in enumerate(h1):
        if v:
            row = table[a]
            for b, w in enumerate(h2):
                if w:
                    out[row[b]] += v * w
    return out


_TRACE_TABLE_CACHE: dict[Field, np.ndarray] = {}


def _trace_table(fld: Field) -> np.ndarray:
    basis = np.array([trace(fld.element([0] * i + [1])) for i in range(fld.m)],
                     dtype=np.int64)
    return (_digits(fld) @ basis) % fld.p


def trace_table(fld: Field) -> np.ndarray:
    """Tr(x) mod p for every encoding x, as a read-only int64 array.

    Tr is F_p-linear, so the table is digits @ (Tr(1), Tr(a), ..., Tr(a^(m-1)))
    mod p, a the root of the modulus: m calls to `trace` per field.
    """
    return _bounded_get(_TRACE_TABLE_CACHE, fld, _trace_table)
