"""Shared fixtures: test fields, cached oracle histograms and literal checks."""

import itertools
from math import isqrt

import pytest

from diagquartic import cli, genfunc
from diagquartic.counting import oracle_histograms
from diagquartic.cyclotomy import CyclotomicClasses, quartic_decomposition
from diagquartic.field import Field, find_generator, trace

# q = 1 mod 4 and q = 3 mod 4 desk-scale test fields
FIELDS_1MOD4 = [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2),
                (29, 1), (37, 1), (41, 1), (7, 2)]
FIELDS_3MOD4 = [(7, 1), (11, 1), (19, 1), (23, 1), (3, 3)]
ALL_FIELDS = FIELDS_1MOD4 + FIELDS_3MOD4

NMAX = 8


@pytest.fixture(autouse=True)
def fresh_cli_builds():
    """Each test starts with no Field or generator kept by earlier CLI calls, so
    a test that patches `cli.Field` or `cli.find_generator` sees its patch, and with
    no generating function kept by earlier counts."""
    cli._field_and_generator.cache_clear()
    genfunc._class_gf.cache_clear()


class FieldData:
    """A field with its generator, (s, t), classes and oracle histograms."""

    def __init__(self, p, m):
        self.field = Field(p, m)
        self.gen = find_generator(self.field)
        self.q = self.field.q
        if self.q % 4 == 1:
            self.dec = quartic_decomposition(self.field, self.gen)
            self.classes = CyclotomicClasses(self.field, self.gen, 4)
        else:
            self.dec = None
            self.classes = None
        # histograms[n-1][enc(c)] = N(x_1^4 + ... + x_n^4 = c)
        self.histograms = list(oracle_histograms(self.field, [self.field.one()] * NMAX))

    def oracle_N(self, code, n):
        return self.histograms[n - 1][code]

    def oracle_M(self, y, n):
        return split_off_count(self.field, self.histograms, y, n)


def elements(fld):
    """All q elements of `fld`, in encoding order, one `Element` each."""
    return (fld.from_int(i) for i in range(fld.q))


def literal_decompositions(q, p, zeta=None):
    """Every (s, t) with q = s^2 + 4t^2 and s = 1 mod 4, by trying each s in
    [-sqrt(q), sqrt(q)]; given zeta, a square root of -1 mod p, only those with
    s != 0 and 2t = s*zeta mod p."""
    found = []
    for s in range(-isqrt(q), isqrt(q) + 1):
        if s % 4 != 1 or (zeta is not None and s % p == 0):
            continue
        rest = q - s * s  # >= 0, and 0 mod 4: s is odd and q = 1 mod 4
        tt = isqrt(rest // 4)
        if 4 * tt * tt != rest:
            continue
        found += [(s, t) for t in sorted({tt, -tt})
                  if zeta is None or (2 * t - s * zeta) % p == 0]
    return found


def split_off_count(fld, histograms, y, n):
    """Zeros of x_1^4 + ... + x_{n-1}^4 + y x_n^4 = 0, by splitting off x_n.

    `histograms[k-1]` is the oracle histogram of x_1^4 + ... + x_k^4.  The
    count is the sum over x_n of N_{n-1}(-y x_n^4), with the x_n grouped by
    the value u = x_n^4.
    """
    neg_y = -y
    prefix = histograms[n - 2]
    return sum(cnt * prefix[(neg_y * fld.from_int(u)).encode()]
               for u, cnt in enumerate(histograms[0]) if cnt)


def literal_classes(k, gen):
    """The classes C_i = {g^(i + k*u)} as lists of field elements, from powers of g."""
    classes = [[] for _ in range(k)]
    acc = gen.field.one()
    for e in range(gen.field.q - 1):
        classes[e % k].append(acc)
        acc = acc * gen.g
    return classes


def literal_cyclo_dim(indices, k, gen):
    """[i_1, ..., i_n]_k by literal enumeration of C_{i_1} x ... x C_{i_n}:
    each class from `literal_classes`, then f^n tuples of field elements, each
    summed and compared with 1."""
    one = gen.field.one()
    classes = literal_classes(k, gen)
    count = 0
    for combo in itertools.product(*(classes[i % k] for i in indices)):
        total = combo[0]
        for x in combo[1:]:
            total = total + x
        count += total == one
    return count


def literal_remainder(poly, modulus, p):
    """poly mod (modulus, p) by long division by the monic modulus, one leading
    term at a time; coefficient sequences, constant term first."""
    rem = list(poly)
    m = len(modulus) - 1
    while len(rem) > m:
        lead = rem.pop()
        for i in range(m):
            rem[len(rem) - m + i] -= lead * modulus[i]
    return tuple(c % p for c in rem)


def literal_product(a, b, modulus, p):
    """a*b in F_p[x]/(modulus): the full schoolbook product, then its
    `literal_remainder`."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return literal_remainder(prod, modulus, p)


def literal_trace(x):
    """Tr(x) = x + x^p + ... + x^(p^(m-1)), each conjugate a power of x through
    `Element.__pow__`, as a residue mod p."""
    fld = x.field
    total = fld.zero()
    for i in range(fld.m):
        total = total + x ** (fld.p**i)
    if any(total.coeffs[1:]):
        raise AssertionError(f"Tr({x!r}) = {total!r} is not in F_{fld.p}")
    return total.coeffs[0]


def literal_histogram(coeffs):
    """For each c (by encoding), the zeros of a_1 x_1^4 + ... + a_n x_n^4 = c, by
    literal enumeration of the q^n points, each form summed term by term."""
    fld = coeffs[0].field
    terms = [[a * x**4 for x in elements(fld)] for a in coeffs]
    hist = [0] * fld.q
    for point in itertools.product(*terms):
        total = fld.zero()
        for term in point:
            total = total + term
        hist[total.encode()] += 1
    return hist


def literal_omega(ell, p):
    """The w of order p in F_ell that `expsums` takes: the first h^((ell-1)/p) != 1,
    h = 2, 3, ..."""
    return next(w for w in (pow(h, (ell - 1) // p, ell) for h in range(2, ell)) if w != 1)


def character_prime(p):
    """The smallest prime ell = 1 (mod p), by literal trial division, and its w."""
    ell = p + 1
    while any(ell % d == 0 for d in range(2, ell)):
        ell += p
    return ell, literal_omega(ell, p)


def literal_character(x, omega, ell):
    """psi(x) = omega^Tr(x) mod ell, omega of order p in F_ell, with Tr from `field.trace`."""
    return pow(omega, trace(x), ell)


def literal_gauss_sum(u, omega, ell):
    """T_u = sum over v of psi(u * v^4) mod ell, by direct O(q) summation."""
    if u.is_zero():
        raise ValueError("T_u is defined for u != 0")
    return sum(literal_character(u * v**4, omega, ell) for v in elements(u.field)) % ell


def literal_orthogonality_residuals(fld, omega, ell):
    """sum_x psi(x*y) - q [y = 0] mod ell for each y (all should be 0)."""
    residuals = []
    for y in elements(fld):
        total = sum(literal_character(x * y, omega, ell) for x in elements(fld))
        residuals.append((total - (fld.q if y.is_zero() else 0)) % ell)
    return residuals


_CACHE: dict[tuple[int, int], FieldData] = {}


def field_data(p, m) -> FieldData:
    if (p, m) not in _CACHE:
        _CACHE[(p, m)] = FieldData(p, m)
    return _CACHE[(p, m)]


@pytest.fixture(params=ALL_FIELDS, ids=lambda pm: f"q={pm[0]**pm[1]}")
def any_field(request):
    return field_data(*request.param)


@pytest.fixture(params=FIELDS_1MOD4, ids=lambda pm: f"q={pm[0]**pm[1]}")
def field_1mod4(request):
    return field_data(*request.param)


@pytest.fixture(params=FIELDS_3MOD4, ids=lambda pm: f"q={pm[0]**pm[1]}")
def field_3mod4(request):
    return field_data(*request.param)
