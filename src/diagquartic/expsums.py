"""Additive characters, quartic Gauss-type sums and reconstruction of counts.

Everything here is double-precision verification machinery: the exact counting
paths never depend on it.  Tolerances scale with q (orthogonality sums), q^2
(polynomial residuals) and q^(n/2) (reconstruction) because the sums grow with
sqrt(q) per factor.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .cyclotomy import CyclotomicClasses, QuarticDecomposition
from .errors import NotNearIntegerError, ResidualTooLargeError, WrongResidueClassError
from .field import Element, Field, GeneratorData, trace
from .genfunc import denominator

ORTHOGONALITY_TOL = 1e-9
POLY_RESIDUAL_TOL = 1e-6
RECONSTRUCT_MAX_N = 60


def additive_character(x: Element) -> complex:
    """psi(x) = exp(2*pi*i*Tr(x)/p)."""
    return cmath.exp(2j * cmath.pi * trace(x) / x.field.p)


def quartic_gauss_sum(u: Element) -> complex:
    """T_u = sum over v of psi(u * v^4), by direct O(q) summation."""
    if u.is_zero():
        raise ValueError("T_u is defined for u != 0")
    fld = u.field
    return sum(additive_character(u * v**4) for v in fld.elements())


@dataclass
class GaussSumTable:
    """The four class sums T_{g^l} and the lambda_l(c) class character sums."""

    field: Field
    gen: GeneratorData
    classes: CyclotomicClasses
    T: tuple[complex, complex, complex, complex]

    def lambda_sum(self, l: int, c: Element) -> complex:
        """lambda_l(c) = sum over x in C_l of psi(-x*c)."""
        return sum(additive_character(-(x * c)) for x in self.classes.classes[l % 4])


def build_table(fld: Field, gen: GeneratorData) -> GaussSumTable:
    if fld.q % 4 != 1:
        raise WrongResidueClassError(f"q = {fld.q} is not 1 mod 4")
    classes = CyclotomicClasses(fld, gen, 4)
    T = tuple(quartic_gauss_sum(gen.g ** l) for l in range(4))
    return GaussSumTable(field=fld, gen=gen, classes=classes, T=T)


def verify_gauss_sum_roots(table: GaussSumTable, dec: QuarticDecomposition, q: int,
                   tol: float = POLY_RESIDUAL_TOL) -> list[float]:
    """Residual |P(T_{g^l})| for each l, P = `denominator` read from x^4 down;
    raises if any exceeds tol * q^2."""
    coeffs = denominator(q, dec.s)
    residuals = []
    for T in table.T:
        val = 0j
        for c in coeffs:
            val = val * T + c
        residuals.append(abs(val))
    bound = tol * q * q
    if any(r > bound for r in residuals):
        raise ResidualTooLargeError(
            f"residuals {residuals} exceed {bound}; wrong (s, t) or broken sums")
    return residuals


def reconstruct_N(n: int, c: Element, table: GaussSumTable,
                  fld: Field) -> int:
    """N_n(c) = q^(n-1) + (1/q) sum T_{g^l}^n lambda_l(c), rounded to integer.

    Advisory only: raises if the value is not convincingly near an integer.
    """
    if c.is_zero():
        raise ValueError("reconstruction is stated for c != 0")
    if not 1 <= n <= RECONSTRUCT_MAX_N:
        raise ValueError(f"n = {n} outside the double-precision guard")
    q = fld.q
    r = sum(table.T[l] ** n * table.lambda_sum(l, c) for l in range(4))
    value = q ** (n - 1) + r.real / q
    nearest = round(value)
    tol = 1e-3 * max(1.0, float(q) ** (n / 2 - 1))
    drift = abs(value - nearest) + abs(r.imag / q)
    if drift > tol:
        raise NotNearIntegerError(f"value {value} is {drift} from integer (tol {tol})")
    return nearest


def orthogonality_residuals(fld: Field) -> list[float]:
    """|sum_x psi(x*y)| for each y != 0, plus |sum - q| at y = 0 (all should be ~0)."""
    residuals = []
    for y in fld.elements():
        total = sum(additive_character(x * y) for x in fld.elements())
        expect = fld.q if y.is_zero() else 0
        residuals.append(abs(total - expect))
    return residuals
