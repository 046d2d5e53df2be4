"""Quartic Gauss periods mod primes ell = 1 (mod p), and the exact reconstruction of counts.

For a prime ell with p | ell - 1 and w of order p in F_ell, psi(x) = w^Tr(x) is an additive
character of F_q with values in F_ell: the sum over a of psi(a*b) is q [b = 0] there too,
and q is a unit.  So, with the Gauss periods eta_l = sum over x in C_l of psi(x) and
T_{g^l} = 1 + 4 eta_l, q N_n(c) = q^n + sum over l of T_{g^l}^n eta_(l + ind(-c)) (mod ell)
for c != 0, and `reconstruct_N` joins these residues by CRT: no rounding, no tolerance.

`build_table` reads Tr(x) from `field.trace_table`, which it calls directly, at the
encodings of each class, which `CyclotomicClasses` reads off `field.log_table`.  For each of
the three largest such primes below 2^31 (so w^i * w^j stays in int64), which
`field.is_prime` finds, it gathers psi through w^0 .. w^(p-1) and sums it over each
class.  Only the rows (ell, eta_0 .. eta_3) are kept: one 3 x 5 int64 array, built once
per generator, read-only, in `field._stored` (kind "periods"); the trace table is not
stored.
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
    traces = [trace[cls] for cls in CyclotomicClasses(fld, gen, 4).classes]
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
    """The largest n with q^(n-1) < 2^50, the last n `reconstruct_N` admits.

    The bound keeps the route's coverage and its cost: N_n(c) < q^n < 2^50 q <= 2^70
    there, and the three primes of a table, each above 2^30, join past 2^90, so a count
    never needs a fourth.  Lifting it means more primes per table.
    """
    n = 1
    while q ** n < 2 ** 50:
        n += 1
    return n


def reconstruct_N(n: int, c: Element, table: GaussSumTable) -> int:
    """N_n(c) = (q^n + sum over l of T_{g^l}^n eta_(l + ind(-c))) / q, exactly.

    x -> -x*c maps C_l onto C_(l + ind(-c)), so lambda_l(c) = sum over x in C_l
    of psi(-x*c) is the Gauss period eta_(l + ind(-c)), one class read per call.
    The count lies in [0, q^n), so the residues mod the table's primes, joined by
    CRT until their product passes q^n, give it.
    """
    if c.is_zero():
        raise ValueError("reconstruction is stated for c != 0")
    q = table.gen.field.q
    nmax = reconstruct_max_n(q)
    if not 1 <= n <= nmax:
        raise ValueError(f"n = {n} outside 1..{nmax}; past {nmax}, q^(n-1) >= 2^50 "
                         f"and the table's primes may not join past q^n")
    shift, bound = quartic_class(-c, table.gen), q ** n
    value, modulus = 0, 1
    for ell, *eta in table.rows.tolist():
        if modulus > bound:
            break
        total = pow(q, n, ell) + sum(pow(1 + 4 * eta[l], n, ell) * eta[(l + shift) % 4]
                                     for l in range(4))
        residue = total * pow(q, -1, ell) % ell
        value += modulus * ((residue - value) * pow(modulus, -1, ell) % ell)
        modulus *= ell
    return value
