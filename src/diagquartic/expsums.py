"""Quartic Gauss-type sums and the floating-point reconstruction of counts.

Everything here is double-precision verification machinery: the exact counting
paths never depend on it.  The polynomial residual tolerance scales with q^2,
and the reconstruction's imaginary tolerance with the size of its terms,
because the sums grow with sqrt(q) per factor.

`build_table` computes psi(x) = exp(2 pi i Tr(x)/p) from `field.trace_table`, which
it calls directly, and sums it over the encodings of each class, which
`CyclotomicClasses` reads off `field.log_table`: the four Gauss periods eta_l = sum
over w in C_l of psi(w) give both T_{g^l} = 1 + 4 eta_l and lambda_l(c) =
eta_{l + ind(-c)}.  Only the periods are kept: summed once per generator, read-only,
in `field._stored` (kind "periods"); the trace table is not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomy import CyclotomicClasses, QuarticDecomposition
from .errors import NotNearIntegerError, ResidualTooLargeError, WrongResidueClassError
from .field import (Element, Field, GeneratorData, _stored, check_field, quartic_class,
                    trace_table)
from .genfunc import denominator

POLY_RESIDUAL_TOL = 1e-6


@dataclass
class GaussSumTable:
    """The four class sums T_{g^l} and the Gauss periods they come from."""

    field: Field
    gen: GeneratorData
    T: tuple[complex, complex, complex, complex]
    eta: tuple[complex, complex, complex, complex]


def build_table(fld: Field, gen: GeneratorData) -> GaussSumTable:
    """Gauss periods eta_l from the trace table, and T_{g^l} = 1 + 4 eta_l.

    v -> v^4 maps F_q^* 4-to-1 onto C_0, so T_{g^l} = psi(0) + 4 sum over
    w in C_0 of psi(g^l w), and g^l C_0 = C_l.
    """
    if fld.q % 4 != 1:
        raise WrongResidueClassError(f"q = {fld.q} is not 1 mod 4")
    check_field(fld, gen.g)
    eta = tuple(complex(e) for e in _stored(("periods", gen.g), lambda: _periods(fld, gen)))
    T = tuple(1 + 4 * e for e in eta)
    return GaussSumTable(field=fld, gen=gen, T=T, eta=eta)


def _periods(fld: Field, gen: GeneratorData) -> np.ndarray:
    import numpy as np
    psi = np.exp(2j * np.pi * trace_table(fld) / fld.p)
    return np.array([psi[cls].sum() for cls in CyclotomicClasses(fld, gen, 4).classes])


def verify_gauss_sum_roots(table: GaussSumTable, dec: QuarticDecomposition) -> list[float]:
    """Residual |P(T_{g^l})| for each l, P = `denominator` read from x^4 down;
    raises if any exceeds POLY_RESIDUAL_TOL * q^2."""
    import numpy as np
    q = table.field.q
    coeffs = denominator(q, dec.s)
    residuals = [float(abs(np.polyval(coeffs, T))) for T in table.T]
    bound = POLY_RESIDUAL_TOL * q * q
    if any(r > bound for r in residuals):
        raise ResidualTooLargeError(
            f"residuals {residuals} exceed {bound}; wrong (s, t) or broken sums")
    return residuals


def reconstruct_max_n(q: int) -> int:
    """The largest n with q^(n-1) < 2^50, the last n `reconstruct_N` admits.

    N_n(c) is near q^(n-1), where doubles lie q^(n-1) / 2^52 apart, and the
    sum over the T^n adds its own rounding.  Over c = g^0..g^3 on 15 fields,
    5 <= q <= 65537, |float - exact| was at most 0.0625 up to this bound
    (q = 5, n = 22; q = 9, n = 16), and one n past it up to 2 (q = 17, 29, 41).
    """
    n = 1
    while q ** n < 2 ** 50:
        n += 1
    return n


def reconstruct_N(n: int, c: Element, table: GaussSumTable) -> int:
    """N_n(c) = q^(n-1) + (1/q) r, r = sum T_{g^l}^n eta_(l + ind(-c)), rounded to integer.

    x -> -x*c maps C_l onto C_(l + ind(-c)), so lambda_l(c) = sum over x in C_l
    of psi(-x*c) is the Gauss period eta_(l + ind(-c)), one class read per call.

    Advisory only: raises NotNearIntegerError unless the value lies within 1/4
    of an integer and |Im r| <= 2^-40 times the sum of the |terms| of r.  The
    exact r is real.  Over c = g^0..g^3 and every admitted n on 12 fields,
    5 <= q <= 1021^2, the real part drifted at most 0.0625 and |Im r| stayed
    below 5.3e-15 times that sum.  A pure real rescaling of the T can still
    land near an integer: on F_5 with every T scaled by 1 + 1e-9, N_22(1)
    comes out 1,246,534 too small and 0.125 off.  Only a comparison with
    another route (`count --all-methods`, `verify --expsums`) catches that.
    """
    if c.is_zero():
        raise ValueError("reconstruction is stated for c != 0")
    q = table.field.q
    nmax = reconstruct_max_n(q)
    if not 1 <= n <= nmax:
        raise ValueError(f"n = {n} outside 1..{nmax}; past {nmax}, q^(n-1) >= 2^50 "
                         f"and the double no longer rounds to N_n(c)")
    shift = quartic_class(-c, table.gen)
    terms = [table.T[l] ** n * table.eta[(l + shift) % 4] for l in range(4)]
    r = sum(terms)
    value = q ** (n - 1) + r.real / q
    nearest = round(value)
    imag_tol = 2.0 ** -40 * sum(abs(term) for term in terms)
    if abs(value - nearest) > 0.25 or abs(r.imag) > imag_tol:
        raise NotNearIntegerError(f"value {value} is {abs(value - nearest)} from an integer "
                                  f"(tol 0.25), |Im r| = {abs(r.imag)} (tol {imag_tol})")
    return nearest
