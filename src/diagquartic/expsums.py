"""Quartic Gauss-type sums and the floating-point reconstruction of counts.

Everything here is double-precision verification machinery: the exact counting
paths never depend on it.  Tolerances scale with q^2 (polynomial residuals)
and q^(n/2) (reconstruction) because the sums grow with sqrt(q) per factor.

`build_table` reads psi(x) = exp(2 pi i Tr(x)/p) off `field.trace_table` and
sums it over the encodings of each class, which `CyclotomicClasses` reads off
`field.log_table`: the four Gauss periods eta_l = sum over w in C_l of psi(w)
give both T_{g^l} = 1 + 4 eta_l and lambda_l(c) = eta_{l + ind(-c)}.
`verify_gauss_sum_roots` and `reconstruct_N` read q from `table.field`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomy import CyclotomicClasses, QuarticDecomposition
from .errors import NotNearIntegerError, ResidualTooLargeError, WrongResidueClassError
from .field import Element, Field, GeneratorData, quartic_class, trace_table
from .genfunc import denominator

POLY_RESIDUAL_TOL = 1e-6
RECONSTRUCT_MAX_N = 60


@dataclass
class GaussSumTable:
    """The four class sums T_{g^l} and the Gauss periods they come from."""

    field: Field
    gen: GeneratorData
    T: tuple[complex, complex, complex, complex]
    eta: tuple[complex, complex, complex, complex]

    def lambda_sum(self, l: int, c: Element) -> complex:
        """lambda_l(c) = sum over x in C_l of psi(-x*c).

        For c != 0, x -> -x*c maps C_l onto C_{l + ind(-c)}, so the sum is
        the Gauss period eta_{l + ind(-c)}; at c = 0 it is f = |C_l|.
        """
        if c.is_zero():
            return complex((self.field.q - 1) // 4)
        return self.eta[(l + quartic_class(-c, self.gen)) % 4]


def build_table(fld: Field, gen: GeneratorData) -> GaussSumTable:
    """Gauss periods eta_l from the trace table, and T_{g^l} = 1 + 4 eta_l.

    v -> v^4 maps F_q^* 4-to-1 onto C_0, so T_{g^l} = psi(0) + 4 sum over
    w in C_0 of psi(g^l w), and g^l C_0 = C_l.
    """
    if fld.q % 4 != 1:
        raise WrongResidueClassError(f"q = {fld.q} is not 1 mod 4")
    psi = np.exp(2j * np.pi * trace_table(fld) / fld.p)
    eta = tuple(complex(psi[cls].sum()) for cls in CyclotomicClasses(fld, gen, 4).classes)
    T = tuple(1 + 4 * e for e in eta)
    return GaussSumTable(field=fld, gen=gen, T=T, eta=eta)


def verify_gauss_sum_roots(table: GaussSumTable, dec: QuarticDecomposition) -> list[float]:
    """Residual |P(T_{g^l})| for each l, P = `denominator` read from x^4 down;
    raises if any exceeds POLY_RESIDUAL_TOL * q^2."""
    q = table.field.q
    coeffs = denominator(q, dec.s)
    residuals = []
    for T in table.T:
        val = 0j
        for c in coeffs:
            val = val * T + c
        residuals.append(abs(val))
    bound = POLY_RESIDUAL_TOL * q * q
    if any(r > bound for r in residuals):
        raise ResidualTooLargeError(
            f"residuals {residuals} exceed {bound}; wrong (s, t) or broken sums")
    return residuals


def reconstruct_N(n: int, c: Element, table: GaussSumTable) -> int:
    """N_n(c) = q^(n-1) + (1/q) sum T_{g^l}^n lambda_l(c), rounded to integer.

    Advisory only: raises if the value is not convincingly near an integer.
    """
    if c.is_zero():
        raise ValueError("reconstruction is stated for c != 0")
    if not 1 <= n <= RECONSTRUCT_MAX_N:
        raise ValueError(f"n = {n} outside the double-precision guard")
    q = table.field.q
    r = sum(table.T[l] ** n * table.lambda_sum(l, c) for l in range(4))
    value = q ** (n - 1) + r.real / q
    nearest = round(value)
    tol = 1e-3 * max(1.0, float(q) ** (n / 2 - 1))
    drift = abs(value - nearest) + abs(r.imag / q)
    if drift > tol:
        raise NotNearIntegerError(f"value {value} is {drift} from integer (tol {tol})")
    return nearest

