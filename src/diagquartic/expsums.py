"""Quartic Gauss periods mod primes ell = 1 (mod p), and the exact reconstruction of counts.

For a prime ell with p | ell - 1 and w of order p in F_ell, psi(x) = w^Tr(x) is an additive
character of F_q with values in F_ell: the sum over a of psi(a*b) is q [b = 0] there too,
and q is a unit.  So, with the Gauss periods eta_l = sum over x in C_l of psi(x) and
T_{g^l} = 1 + 4 eta_l, q N_n(c) = q^n + sum over l of T_{g^l}^n eta_(l + ind(-c)) (mod ell)
for c != 0, and `reconstruct_series` joins these residues by CRT: no rounding, no
tolerance.  It gives N_1(c) .. N_nmax(c) from one class read and, per prime, one product
per n and summand; `reconstruct_N` reads the last entry.

`build_table` reads Tr(x) from `field.trace_table`, which it calls directly, at the
encodings of each class C_l, those where `CyclotomicClasses.class_of` (read off
`field.log_table`) is l, then releases both whole-field arrays.  For each of the three
largest such primes below 2^31 (so w^i * w^j stays in int64), which `field.is_prime`
finds, it gathers psi through w^0 .. w^(p-1) and sums it over each class.  Only the rows
(ell, eta_0 .. eta_3) are kept: one 3 x 5 int64 array, built once per generator,
read-only, in `field._stored` (kind "periods"); the trace table is not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomy import CyclotomicClasses, QuarticDecomposition
from .errors import WrongResidueClassError
from .field import (Element, Field, GeneratorData, _stored, check_field, is_prime, quartic_class,
                    trace_table)
from .genfunc import denominator


@dataclass(frozen=True)
class GaussSumTable:
    """The Gauss periods of one generator: a row (ell, eta_0 .. eta_3) per prime ell."""

    gen: GeneratorData
    rows: np.ndarray


def build_table(fld: Field, gen: GeneratorData) -> GaussSumTable:
    """The Gauss periods eta_l mod each prime, summed once per generator.

    v -> v^4 maps F_q^* 4-to-1 onto C_0, so T_{g^l} = psi(0) + 4 sum over
    w in C_0 of psi(g^l w), and g^l C_0 = C_l.
    """
    if fld.q % 4 != 1:
        raise WrongResidueClassError(f"q = {fld.q} is not 1 mod 4")
    check_field(fld, gen.g)
    return GaussSumTable(gen, _stored(("periods", gen.g), lambda: _periods(fld, gen)))


def _periods(fld: Field, gen: GeneratorData) -> np.ndarray:
    import numpy as np
    p, trace = fld.p, trace_table(fld)
    class_of = CyclotomicClasses(fld, gen, 4).class_of
    traces = [trace[class_of == l] for l in range(4)]
    del trace, class_of  # the prime loop holds only the traces of the four classes
    rows, ell = [], (2**31 - 2) // (2 * p) * (2 * p) + 1
    while len(rows) < 3:
        if is_prime(ell):
            w = next(w for w in (pow(h, (ell - 1) // p, ell) for h in range(2, ell)) if w != 1)
            powers = np.ones(1, dtype=np.int64)  # w^0 .. w^(p-1), doubled by one product
            while len(powers) < p:
                powers = np.concatenate(
                    [powers, powers[:p - len(powers)] * pow(w, len(powers), ell) % ell])
            rows.append([ell] + [int(powers[t].sum()) % ell for t in traces])
        ell -= 2 * p
    return np.array(rows, dtype=np.int64)


def verify_gauss_sum_roots(table: GaussSumTable, dec: QuarticDecomposition) -> list[list[int]]:
    """P(T_{g^l}) mod ell for each row and each l, P = `denominator` read from x^4 down:
    every entry is 0 unless s or the periods are wrong."""
    low_first = denominator(table.gen.field.q, dec.s)[::-1]
    return [[sum(a * pow(1 + 4 * e, k, ell) for k, a in enumerate(low_first)) % ell
             for e in eta] for ell, *eta in table.rows.tolist()]


def reconstruct_max_n(q: int) -> int:
    """The largest n with q^(n-1) < 2^50, the last n `reconstruct_series` admits.

    The bound keeps the route's coverage and its cost: N_n(c) < q^n < 2^50 q <= 2^70
    there, and the three primes of a table, each above 2^30, join past 2^90, so a count
    never needs a fourth.  Lifting it means more primes per table.
    """
    n = 1
    while q ** n < 2 ** 50:
        n += 1
    return n


def reconstruct_series(nmax: int, c: Element, table: GaussSumTable) -> list[int]:
    """N_1(c) .. N_nmax(c), N_n(c) = (q^n + sum over l of T_{g^l}^n eta_(l + ind(-c))) / q.

    x -> -x*c maps C_l onto C_(l + ind(-c)), so lambda_l(c) = sum over x in C_l
    of psi(-x*c) is the Gauss period eta_(l + ind(-c)), one class read per series.
    Each count lies in [0, q^n), so its residues mod the table's primes, joined by
    CRT until their product passes q^n, give it: a prime joins at every n from the
    first with q^n at least the product of the earlier primes.  Per prime, q^n and
    the four T^n step on by one product per n, and one inverse serves every n.
    """
    if c.is_zero():
        raise ValueError("reconstruction is stated for c != 0")
    q = table.gen.field.q
    # q^(n-1) >= 2^50 for every n > 50, so no large power is taken
    if not 1 <= nmax <= 50 or q ** (nmax - 1) >= 2 ** 50:
        top = reconstruct_max_n(q)
        raise ValueError(f"n = {nmax} outside 1..{top}; past {top}, q^(n-1) >= 2^50 "
                         f"and the table's primes may not join past q^n")
    # -1 = g^((q-1)/2), so ind(-c) = ind(c) + (q-1)/2
    shift = (quartic_class(c, table.gen) + (q - 1) // 2) % 4
    counts, modulus = [0] * nmax, 1
    for ell, *eta in table.rows.tolist():
        if modulus > q ** nmax:
            break
        start = 1
        while q ** start < modulus:
            start += 1
        t0, t1, t2, t3 = [1 + 4 * e for e in eta]
        # the summands of q N_n(c) mod ell, q^n and T_{g^l}^n eta_(l + ind(-c)), at n = 0
        u, (u0, u1, u2, u3) = 1, eta[shift:] + eta[:shift]
        # N_n(c) = counts + modulus * x, where q (counts + modulus * x) = the sum mod ell
        inverse = pow(q * modulus, -1, ell)
        for n in range(1, nmax + 1):
            u, u0, u1, u2, u3 = (u * q % ell, u0 * t0 % ell, u1 * t1 % ell, u2 * t2 % ell,
                                 u3 * t3 % ell)
            if n >= start:
                counts[n - 1] += modulus * ((u + u0 + u1 + u2 + u3 - q * counts[n - 1])
                                            * inverse % ell)
        modulus *= ell
    return counts


def reconstruct_N(n: int, c: Element, table: GaussSumTable) -> int:
    """N_n(c), the last entry of `reconstruct_series`."""
    return reconstruct_series(n, c, table)[-1]
