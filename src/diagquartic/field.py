"""Arithmetic in F_{p^m} with a deterministic modulus and generator.

Elements are coefficient vectors over Z/p in the basis 1, x, ..., x^{m-1}.
Every element has a canonical integer encoding sum(c_i * p^i), a bijection
onto [0, q-1], used in all I/O.

One product serves three rings: `_mulmod`, two length-m coefficient vectors times
each other mod a monic f, over F_p (f the modulus) or over Z (genfunc's reversed
denominator, or f = x^2 + 1 for Z[i]).  Its squares over Z at m = 4, those of genfunc's
x^h mod a quartic, are Toom-Cook squares (`_toom_square`, 7 big-integer squares in place
of 10 products); every other product, `Element` squares too, is the schoolbook one.
`Element` products call it; `_powmod`, the field kernel's square-and-multiply loop, runs
it for powers, for `is_irreducible` (Rabin's test in F_p[x]/(f) itself), for genfunc's
x^h mod P and for the power (a + bi)^m in Z[i] of `cyclotomy.quartic_decomposition`, and
runs `_gmul` in F_p[i], each with its ring as one argument.  Residues mod p keep the
builtin `pow`, and `is_prime` is a deterministic Miller-Rabin test.

`quartic_class` gives ind_g(x) mod d, d = gcd(4, q-1), by Euler's criterion through
the norm N_e to F_(p^e), e = 1 if d | p-1 and 2 otherwise: x^((q-1)/d) =
N_e(x)^((p^e-1)/d), and N_e(x) is a resultant (Lidl & Niederreiter, Finite Fields,
ch. 1-2), taken by Euclid's algorithm over F_p, or over F_p[i] for e = 2, with no
product in F_q per query.  `trace` reads Tr(alpha^k), the power sums of the modulus's
roots by Newton's identities, which a Field computes once.

Jobs that touch every element step the q x m digit array (`_digits`), as the histogram of
x^4, the oracle's addition table (both in `counting`) and `trace_table` (Tr(x) mod p,
computed where its one reader needs it) do, or read whole-field tables over the encodings,
never one `Element` per encoding: `log_table` holds ind_g(x) for every x, built once per
generator, and is what `index_of` and the cyclotomic classes read.  Each whole-field array
is charged to one byte guard (`check_bytes`) before it is allocated; the log table, the
oracle's addition table and histogram of x^4, and the tables `cyclotomy` and `expsums` build
once per generator (the (i, j)_k, the Gauss periods) share one store (`_stored`)
held to it together, counting every byte (no dtype object); the oldest tables leave it
first, whatever their kind, and STORE_COUNTS counts each kind's hits, builds and evictions.
These jobs, here and in the other modules, are numpy's only users, and each imports it in
its own body: a process that only counts off the series never loads numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING

from .errors import (
    FieldMismatchError,
    FieldTooLargeError,
    InvariantError,
    NotPrimeError,
    TooLargeError,
    ZeroHasNoIndexError,
)

if TYPE_CHECKING:
    from .cyclotomy import QuarticDecomposition

DEFAULT_FIELD_BOUND = 2**20
ORACLE_TABLE_BYTES_GUARD = 2**28  # read by `check_bytes` and `_stored` only
# Bound on the fields one process keeps set up for reuse: the CLI's (Field, generator)
# builds, and eight generating functions per field in `genfunc`.
BUILD_CACHE_SIZE = 64


def check_bytes(what: str, nbytes: int) -> None:
    """Raise TooLargeError unless `what`, nbytes bytes, fits ORACLE_TABLE_BYTES_GUARD (read
    at call time), before it is allocated: the digit array, the log table, the class array,
    the (i, j)_k and each build of the A_l asked for (`cyclotomy`), the oracle rows that
    `verify` keeps (`cli`), and the oracle's histograms and q x q addition table
    (`counting.check_convolution_cost`: q <= 5792)."""
    if nbytes > ORACLE_TABLE_BYTES_GUARD:
        raise TooLargeError(f"{what} would take {nbytes} bytes, past guard "
                            f"{ORACLE_TABLE_BYTES_GUARD}")


# The least strong pseudoprime to the bases 2, 3, 5 and 7 (Pomerance, Selfridge & Wagstaff,
# Math. Comp. 35, 1980): below it their Miller-Rabin test is exact.
MILLER_RABIN_BOUND = 3_215_031_751


def is_prime(n: int) -> bool:
    """Whether n is prime, by the Miller-Rabin test to the bases 2, 3, 5 and 7, exact
    for n below MILLER_RABIN_BOUND; ValueError from there."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"n = {n} is not below {MILLER_RABIN_BOUND}, where the bases "
                         "2, 3, 5 and 7 stop deciding primality")
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r, d odd
    d = (n - 1) >> r
    for b in (2, 3, 5, 7):  # is b^d = 1, or b^(d 2^j) = -1 for some j < r?
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
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
# The product kernel: length-m coefficient vectors, constant term first, times
# each other mod a monic f of degree m, over F_p or (p = 0) over Z.
# ---------------------------------------------------------------------------

def _toom_square(a) -> list[int]:
    """The 7 coefficients of a(x)^2, a = (a_0, a_1, a_2, a_3) exact integers, from 7
    big-integer squares (Toom-Cook): a(0)^2, a(+-1)^2, a(+-2)^2, a(3)^2 and a_3^2, the
    values of a(x)^2 at 0, +-1, +-2, 3 and infinity, interpolated back with exact
    divisions by 2, 4, 3, 12 and 120.  The schoolbook square takes 10 products."""
    a0, a1, a2, a3 = a
    even, odd = a0 + a2, a1 + a3  # a(+-1) = even +- odd
    even2, odd2 = a0 + 4 * a2, 2 * a1 + 8 * a3  # a(+-2) = even2 +- odd2
    c0, c6 = a0 * a0, a3 * a3
    plus, minus = (even + odd) ** 2, (even - odd) ** 2
    e1, o1 = (plus + minus) >> 1, (plus - minus) >> 1
    plus, minus = (even2 + odd2) ** 2, (even2 - odd2) ** 2
    e2, o2 = (plus + minus) >> 1, (plus - minus) >> 2
    # e1 = c0 + c2 + c4 + c6, e2 = c0 + 4 c2 + 16 c4 + 64 c6; o1 = c1 + c3 + c5,
    # o2 = c1 + 4 c3 + 16 c5 and, once c2 and c4 are known, o3 = c1 + 9 c3 + 81 c5
    c4 = (e2 - 4 * e1 + 3 * c0 - 60 * c6) // 12
    c2 = e1 - c0 - c4 - c6
    o3 = ((a0 + 3 * a1 + 9 * a2 + 27 * a3) ** 2 - c0 - 9 * c2 - 81 * c4 - 729 * c6) // 3
    c5 = (3 * o3 - 8 * o2 + 5 * o1) // 120
    c3 = (o2 - o1) // 3 - 5 * c5
    return [c0, o1 - c3 - c5, c2, c3, c4, c5, c6]


def _mulmod(a, b, ring: tuple[tuple[int, ...], int]):
    """a*b mod (f, p) = ring, f monic with its constant term first, p the
    characteristic (a tuple of residues back) or 0 for exact integers (a list back),
    reduced from the top term down.  An exact-integer square (b is a) of length 4,
    genfunc's x^h mod its quartic, is `_toom_square`; any other product, a square
    too, is the schoolbook one over the nonzero digits of b (over F_p the Toom
    divisions by 3 and 5 are not invertible for every p, and small residues gain
    nothing)."""
    f, p = ring
    m = len(a)
    if a is b and not p and m == 4:
        prod = _toom_square(a)
    else:
        prod = [0] * (2 * m - 1)
        for j, bj in enumerate(b):
            if bj:
                for i, ai in enumerate(a, j):
                    prod[i] += ai * bj
    low = f[:m]
    for k in range(2 * m - 2, m - 1, -1):
        lead = prod[k] % p if p else prod[k]
        if lead:
            for j, fc in enumerate(low, k - m):
                prod[j] -= lead * fc
    return tuple([c % p for c in prod[:m]]) if p else prod[:m]


def _powmod(a, n: int, mul, ring):
    """a^n, n >= 1, by square-and-multiply from the top bit of n, with the product
    mul(x, y, ring); a square passes x twice, as one object."""
    result = a
    for bit in bin(n)[3:]:
        result = mul(result, result, ring)
        if bit == "1":
            result = mul(result, a, ring)
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
    ring, x = (f, p), (0, 1) + (0,) * (m - 2)
    one = (1,) + (0,) * (m - 1)
    if _powmod(x, p**m, _mulmod, ring) != x:
        return False
    for ell in factorize(m):
        h = _powmod(x, p ** (m // ell), _mulmod, ring)
        h = tuple([(c - xc) % p for c, xc in zip(h, x)])
        if _powmod(h, p**m - 1, _mulmod, ring) != one:
            return False
    return True


def minimal_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The monic irreducible of degree m over Z/p with smallest encoding.

    The lower coefficients (c_0, ..., c_{m-1}) are scanned in order of the
    integer sum(c_i * p^i), so the result is deterministic.
    """
    for code in range(p**m):
        candidate = [code // p**i % p for i in range(m)] + [1]
        if is_irreducible(candidate, p):
            return tuple(candidate)
    raise InvariantError(f"no irreducible of degree {m} over F_{p}")


class Field:
    """F_{p^m} with an explicit monic modulus polynomial."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        if m < 1:
            raise ValueError(f"m = {m} must be positive")
        bound = DEFAULT_FIELD_BOUND  # checked before p is factored or p^m formed
        if p > 2 and (p > bound or p ** min(m, bound.bit_length()) > bound):
            raise FieldTooLargeError(f"q = p^{m} = 10^{m * math.log10(p):.1f} > {bound}")
        if not is_prime(p) or p == 2:
            raise NotPrimeError(f"p = {p} is not an odd prime")
        q = p**m
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
        self._ring = (modulus, p)  # the ring argument of `_mulmod`
        # Tr(alpha^k) for k < m, alpha the root of the modulus: the power sums of its
        # roots, by Newton's identities s_k = -(k c_(m-k) + sum_(0<j<k) c_(m-j) s_(k-j))
        traces = [m % p]
        for k in range(1, m):
            traces.append(-(k * modulus[m - k] + sum(
                modulus[m - j] * traces[k - j] for j in range(1, k))) % p)
        self._traces = tuple(traces)

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, modulus={self.modulus})"

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Field) and self.p == other.p
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
        return not any(self.coeffs)

    def _check(self, other: Element) -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"operands from {self.field!r} and {other.field!r}")

    def __add__(self, other: Element) -> Element:
        self._check(other)
        p = self.field.p
        return Element(self.field, tuple((a + b) % p
                                         for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> Element:
        p = self.field.p
        return Element(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: Element) -> Element:
        self._check(other)
        f = self.field
        return Element(f, _mulmod(self.coeffs, other.coeffs, f._ring))

    def __pow__(self, n: int) -> Element:
        if n < 0:
            raise ValueError(f"exponent {n} must be non-negative")
        f = self.field
        if f.m == 1:
            return Element(f, (pow(self.coeffs[0], n, f.p),))
        if n == 0:
            return f.one()
        return Element(f, _powmod(self.coeffs, n, _mulmod, f._ring))

    def __repr__(self) -> str:
        return f"<{self.encode()} in F_{self.field.q}>"


@dataclass
class GeneratorData:
    """A generator g of F_q^* with its class roots.

    `class_roots[i]` is the encoding of g^(i(q-1)/d), d = gcd(4, q-1): the
    d-th roots of unity that `quartic_class` looks x^((q-1)/d) up in.  Its
    `norm_factor` and `decomposition` are found once each, on first read.
    """

    g: Element
    class_roots: tuple[int, ...]

    @property
    def field(self) -> Field:
        return self.g.field

    @cached_property
    def norm_factor(self) -> list[tuple[int, int]]:
        """The `_norm_factor` over F_p[i], i = class_roots[1], built on first read."""
        return _norm_factor(self.field, self.class_roots)

    @cached_property
    def decomposition(self) -> QuarticDecomposition:
        """(s, t) by `cyclotomy.quartic_decomposition`, found on first read; a failed
        certificate keeps nothing and raises again on the next read."""
        from .cyclotomy import quartic_decomposition  # cyclotomy imports this module
        return quartic_decomposition(self.field, self)


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
    """Every generator of F_q^*, in encoding order.  For m >= 2 the scan starts at
    code p: the codes below it are c*1, in F_p^*, of order dividing p - 1 < q - 1."""
    factors = factorize(fld.q - 1)
    for code in range(1 if fld.m == 1 else fld.p, fld.q):
        cand = fld.from_int(code)
        if multiplicative_order_is_full(cand, factors):
            yield cand


def _gmul(x: tuple[int, int], y: tuple[int, int], p: int) -> tuple[int, int]:
    """(u + v i)(u' + v' i) in F_p[i] = F_(p^2), i^2 = -1 (p = 3 mod 4), reduced."""
    return (x[0] * y[0] - x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p


def _gpow(x: tuple[int, int], n: int, p: int) -> tuple[int, int]:
    """x^n in F_p[i], n >= 1."""
    return _powmod(x, n, _gmul, p)


def _rem_residues(A: list[int], B: list[int], p: int) -> list[int]:
    """A mod B over F_p, with a nonzero top term; A is consumed, and the terms are
    left unreduced."""
    dB = len(B) - 1
    inv = pow(B[-1], -1, p)
    for k in range(len(A) - 1, dB - 1, -1):  # A -= t T^(k - dB) B, t = A[k] / lc(B)
        t = A[k] * inv % p
        if t:
            for j in range(dB):
                A[k - dB + j] -= t * B[j]
    del A[dB:]
    while not A[-1] % p:
        A.pop()
    return A


def _rem_gaussian(A: list[tuple[int, int]], B: list[tuple[int, int]],
                  p: int) -> list[tuple[int, int]]:
    """A mod B over F_p[i], a coefficient u + v i a pair (u, v), reduced."""
    dB, (bu, bv) = len(B) - 1, B[-1]
    w = pow(bu * bu + bv * bv, -1, p)  # 1/(u + v i) = (u - v i)/(u^2 + v^2)
    iu, iv = bu * w, -bv * w
    for k in range(len(A) - 1, dB - 1, -1):
        au, av = A[k]
        tu, tv = (au * iu - av * iv) % p, (au * iv + av * iu) % p
        for j, (bu, bv) in enumerate(B[:-1], k - dB):
            au, av = A[j]
            A[j] = (au - tu * bu + tv * bv, av - tu * bv - tv * bu)
    R = [(u % p, v % p) for u, v in A[:dB]]
    while R[-1] == (0, 0):
        R.pop()
    return R


def _resultant(A: list, B: list, p: int):
    """Res(A, B) = lc(A)^(deg B) prod_(A(r) = 0) B(r) by Euclid's algorithm (Lidl &
    Niederreiter, Finite Fields, ch. 1): Res(A, B) = (-1)^(deg A deg B) lc(B)^(deg A
    - deg R) Res(B, R), R = A mod B, down to Res(A, b) = b^(deg A).  Coefficients
    are residues mod p, or pairs (u, v) for u + v i in F_p[i]; constant term first,
    top term nonzero.  A is consumed.  Each division lowers deg B, so there are at
    most min(deg A, deg B) of them.  A constant B, as every element of F_p is, is
    b^(deg A) at once, one power before the ring is chosen."""
    if len(B) == 1:
        b = B[0]
        return _gpow(b, len(A) - 1, p) if type(b) is tuple else pow(b, len(A) - 1, p)
    rem, mul, power, acc, minus_one = (
        (_rem_gaussian, _gmul, _gpow, (1, 0), (-1, 0)) if type(A[0]) is tuple
        else (_rem_residues, lambda x, y, p: x * y % p, pow, 1, -1))
    if len(A) < len(B):  # Res(A, B) = (-1)^(deg A deg B) Res(B, A)
        A, B, acc = B, A, minus_one if (len(A) - 1) * (len(B) - 1) % 2 else acc
    while len(B) > 1:
        dA, dB = len(A) - 1, len(B) - 1
        R = rem(A, B, p)
        acc = mul(acc, power(B[-1], dA + 1 - len(R), p), p)
        if dA & dB & 1:
            acc = mul(acc, minus_one, p)
        A, B = B, R
    return mul(acc, power(B[0], len(A) - 1, p), p)


def _norm_factor(fld: Field, class_roots: tuple[int, ...]) -> list[tuple[int, int]]:
    """f_2 = prod_(j < m/2) (T - alpha^(p^(2j))), alpha the root of the modulus: its
    factor over F_(p^2) = F_p[i], i = class_roots[1], as pairs (u, v) for the
    coefficients u + v i, constant term first.  The class roots must be the powers
    of i, and i^2 = -1 (encoded p - 1)."""
    i = fld.from_int(class_roots[1])
    powers = tuple((i**j).encode() for j in range(4))
    if class_roots[2] != fld.p - 1 or class_roots != powers:
        raise InvariantError(f"class roots {class_roots} are not the powers of a "
                             "square root of -1")
    k = next(j for j in range(1, fld.m) if i.coeffs[j])  # -1 is no square in F_p
    factor, root = [fld.one()], fld.element([0, 1])
    for _ in range(fld.m // 2):
        factor = [c + -(root * b)
                  for c, b in zip([fld.zero()] + factor, factor + [fld.zero()])]
        root = root ** (fld.p**2)
    w = pow(i.coeffs[k], -1, fld.p)  # c = u + v i: v = c_k / i_k, u = c_0 - v i_0
    return [((c.coeffs[0] - c.coeffs[k] * w * i.coeffs[0]) % fld.p,
             c.coeffs[k] * w % fld.p) for c in factor]


def quartic_class(x: Element, gen: GeneratorData) -> int:
    """ind_g(x) mod d, d = gcd(4, q-1), by Euler's criterion through the norm.

    x^((q-1)/d) = g^(i(q-1)/d) exactly when ind_g(x) = i mod d (Lidl & Niederreiter,
    Finite Fields, ch. 9), and x^((q-1)/d) = N_e(x)^((p^e-1)/d), e = 1 if d | p-1 and
    2 otherwise (ibid., ch. 2).  For x = a(alpha), the norm N_e(x) = prod_(j < m/e)
    a(alpha^(p^(ej))) is Res(f_e, a) (ibid., ch. 1), f_e the factor of the modulus
    over F_(p^e) with those roots: the modulus for e = 1; for e = 2 `_norm_factor`
    over F_p[i], i = class_roots[1], kept on the generator.  Euclid takes at most m/e
    divisions, and none for x in F_p.
    """
    fld = x.field
    if gen.field != fld:
        raise FieldMismatchError("generator from a different field")
    if x.is_zero():
        raise ZeroHasNoIndexError("ind_g(0) is undefined")
    p, d = fld.p, len(gen.class_roots)
    a = list(x.coeffs)
    while not a[-1]:
        a.pop()
    if (p - 1) % d == 0:
        roots = gen.class_roots
        root = pow(_resultant(list(fld.modulus), a, p), (p - 1) // d, p)
    else:
        roots = ((1, 0), (0, 1), (p - 1, 0), (0, p - 1))  # i^k = class_roots[k]
        root = _gpow(_resultant(list(gen.norm_factor), [(c, 0) for c in a], p),
                     (p * p - 1) // d, p)
    if root not in roots:
        raise InvariantError(f"x^((q-1)/{d}) = {root} is not among the class roots "
                             f"{gen.class_roots} of {gen.g!r}")
    return roots.index(root)


def check_field(fld: Field, *xs: Element) -> None:
    """FieldMismatchError unless every x is an element of fld."""
    for x in xs:
        if x.field != fld:
            raise FieldMismatchError(f"{x!r} is an element of {x.field!r}, not {fld!r}")


def index_of(x: Element, gen: GeneratorData) -> int:
    """Discrete log base g, in [0, q-2], read from `log_table`."""
    if x.is_zero():
        raise ZeroHasNoIndexError("ind_g(0) is undefined")
    return int(log_table(x.field, gen)[x.encode()])


def trace(x: Element) -> int:
    """Tr(x) = x + x^p + ... + x^(p^(m-1)) as a residue mod p: Tr is F_p-linear, so
    it is sum c_k Tr(alpha^k) over the coefficients c_k of x."""
    return sum(map(mul, x.coeffs, x.field._traces)) % x.field.p


# ---------------------------------------------------------------------------
# Whole-field tables over the canonical encodings.
# ---------------------------------------------------------------------------

def _weights(fld: Field) -> np.ndarray:
    """p^0 .. p^(m-1): a row of base-p digits @ weights is its encoding."""
    import numpy as np
    return fld.p ** np.arange(fld.m, dtype=np.int64)


def _digits(fld: Field) -> np.ndarray:
    """The q x m array of base-p digits of every encoding, lowest first."""
    import numpy as np
    check_bytes(f"the digit array of F_{fld.q}", 8 * fld.q * fld.m)
    digits = np.arange(fld.q, dtype=np.int64)[:, None] // _weights(fld)
    digits %= fld.p  # in place: one q x m array at a time
    return digits


def _negatives(fld: Field, codes: np.ndarray) -> np.ndarray:
    """enc(-x) for each encoding x in `codes`, negated digit by digit mod p."""
    weights = _weights(fld)
    return (-(codes[:, None] // weights) % fld.p) @ weights


def _times_matrix(a: Element) -> np.ndarray:
    """The m x m F_p-matrix of x -> a x: row i holds the digits of a alpha^i, alpha
    the root of the modulus, so digits(x) @ it % p = digits(a x)."""
    import numpy as np
    fld = a.field
    return np.array([(a * fld.element([0] * i + [1])).coeffs for i in range(fld.m)],
                    dtype=np.int64)


# ("add" | "power", fld), ("log" | "periods", g) or ("cyclo", g, k) -> table, oldest first;
# the only kinds passed to `_stored`; tests/test_source_policy.py checks the calls against
# this list
_TABLES: dict[tuple, np.ndarray] = {}
# (kind, "hits" | "builds" | "evictions") -> count over the process's life, kind = key[0]
STORE_COUNTS: Counter[tuple[str, str]] = Counter()


def _stored(key: tuple, build) -> np.ndarray:
    """_TABLES[key], built as build() on a miss and made read-only.  Once the
    stored arrays exceed ORACLE_TABLE_BYTES_GUARD bytes together, the oldest
    tables go first, whatever their kind.  Each hit, build and eviction is
    counted in STORE_COUNTS under its key's kind."""
    table = _TABLES.get(key)
    if table is not None:
        STORE_COUNTS[key[0], "hits"] += 1
        return table
    table = build()
    if table.dtype == object:  # its nbytes would count the pointers, not the ints
        raise InvariantError(f"a {key[0]} table of dtype object escapes the byte guard")
    table.setflags(write=False)
    _TABLES[key] = table
    STORE_COUNTS[key[0], "builds"] += 1
    while (len(_TABLES) > 1
           and sum(t.nbytes for t in _TABLES.values()) > ORACLE_TABLE_BYTES_GUARD):
        oldest = next(iter(_TABLES))
        STORE_COUNTS[oldest[0], "evictions"] += 1
        del _TABLES[oldest]
    return table


def trace_table(fld: Field) -> np.ndarray:
    """Tr(x) mod p for every encoding x, as an int64 array computed on each call: its
    one reader, the Gauss periods of `expsums`, is itself stored once per generator.

    Tr is F_p-linear, so the table is digits @ (Tr(1), Tr(a), ..., Tr(a^(m-1)))
    mod p, a the root of the modulus, with the power sums the Field keeps.
    """
    import numpy as np
    return (_digits(fld) @ np.array(fld._traces, dtype=np.int64)) % fld.p


def _log_table(g: Element) -> np.ndarray:
    import numpy as np
    fld = g.field
    check_bytes(f"the log table of F_{fld.q}", 8 * fld.q)
    n = fld.q - 1
    step = math.isqrt(n - 1) + 1  # step^2 >= n
    weights = _weights(fld)
    block = np.empty((step, fld.m), dtype=np.int64)
    acc = fld.one()
    for j in range(step):
        block[j] = acc.coeffs
        acc = acc * g
    giant = _times_matrix(acc)  # acc = g^step
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
