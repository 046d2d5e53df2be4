"""The generating functions' theorem for every q in a residue class, in exact
symbolic arithmetic.

The transfer matrices A_l of `cyclotomy._transfer_matrices` hold only q, the class
h of -1 and the cyclotomic numbers (i, j)_d.  For d = 4 those are Gauss's
letters A-E (Berndt, Evans & Williams, *Gauss and Jacobi Sums*, ch. 2), affine
in (q, s, t) over 16; for d = 2 they are Gauss's f-odd table (0, 0) = (1, 0) =
(1, 1) = (q - 3)/4 and (0, 1) = (q + 1)/4.  So over QQ[s, t] with q = s^2 + 4t^2
(r = q mod 8 in {1, 5}), and over QQ[q] for r in {3, 7}, the A_l are one
symbolic matrix each, and `genfunc._class_part` one symbolic numerator per class.
The tests compare them:

* P(A_l) = 0 for every l, where P is the monic polynomial of degree K whose
  reversal is (1 - qx) den, den the denominator of `gf_N` and `gf_M`; K = 5,
  or 3 when d = 2.
* The counts e_j^T A_0^n e_0 (N_n at c = 0, j = 0, and at every class C_i,
  j = 1 + i) and e_0^T A_0^n A_l e_0 (M_(n+1) at every non-quartic class C_l)
  equal the series of `gf_N` and `gf_M`, for n = 1..12.

Why that holds for every n.  Write (1 - qx) den = sum_k D_k x^k.  Since P(A_0)
= 0, u_n = e^T A_0^n v obeys sum_(k<=K) D_k u_(n-k) = 0 for every n >= K.  The
generating function is x/(1 - qx) + num/den (qx/(1 - qx) for M) over the
common denominator (1 - qx) den with a numerator of degree <= K, so its
coefficients c_n (c_0 = 0) obey the same recurrence for every n > K.  From
n = K + 1 both recurrences read only indices >= 1, so agreement on n = 1..K
fixes every n: 1..5 for d = 4, 1..3 for d = 2; the tests check 12.

This proves the theorem at every q in the residue class, given two inputs that
it does not prove: Gauss's tables, which `verify`'s `cyclotomic closed=enum`
check and the order-2 test below tie to each field, and the transfer-matrix
derivation of `cyclotomy`, which only the oracle tests and the literal
enumeration of `cyclo_dim_enum`'s numbers check.

The diagonal numbers [i, ..., i]_4 of `cyclotomy._DIAG_COEFFS` (n = 2, 3, 4)
follow from the closed forms: y -> g^i y^4 maps F_q* 4-to-1 onto C_i, so
4^n [i]*n counts the x in (F_q*)^n with x_1^4 + ... + x_n^4 = g^(-i), in
C_(-i), and inclusion-exclusion over the zero variables gives
4^n [i]*n = sum_(k=1..n) (-1)^(n-k) C(n, k) N_k(C_(-i)).  For n = 2 that is
Gauss's letter at (0, -i)_4.

The same numbers come from the transfer matrices, as `cyclotomy.cyclo_dim_enum`
computes them.  The state (N(0), N(C_0), ..., N(C_(d-1))) counts tuples by their
sum, at 0 and at any one element of each class: multiplying by an element of C_0
permutes each class and the tuples, so every element of a class has one count.
A_l - I adds d summands that each range over C_l (the d roots x of a x^4 = u,
for each u in C_l), so B_l = (A_l - I)/d adds one summand from C_l.  From e_0,
the empty tuple, B_(i_n) ... B_(i_1) e_0 counts the tuples of C_(i_1) x ... x
C_(i_n) by their sum, and [i_1, ..., i_n]_d is its entry at C_0, which holds 1.
The tests check that product against all 24 rows of `_DIAG_COEFFS` over
QQ[s, t], and against [i_1, i_2]_d = (i_2 - i_1, -i_1)_d from Gauss's tables
for every pair, over QQ[s, t] and QQ[q].
"""

from math import comb

import numpy as np
import pytest
from sympy import QQ
from sympy.polys.rings import ring

from diagquartic.counting import _closed_small
from diagquartic.cyclotomy import (
    _DIAG_COEFFS,
    _DIAG_DIVISORS,
    _QUARTIC_LETTERS,
    _transfer_matrices,
    cyclotomic_matrix,
)
from diagquartic.field import Field, find_generator
from diagquartic.genfunc import RationalPart, _class_part

TERMS = 12
_, S, T = ring("s,t", QQ)
_, Q2 = ring("q", QQ)


def gauss_order_4(letters, r):
    """(i, j)_4 over QQ[s, t] from Gauss's letters and layout for q = r mod 8."""
    layout, letter = letters[r]
    q = S**2 + 4 * T**2
    return [[(q + c + cs * S + ct * T) // 16 for c, cs, ct in map(letter.get, row)]
            for row in layout]


def gauss_order_2(q):
    """(i, j)_2 for q = 3 mod 4 (f odd), q an int or an element of QQ[q]."""
    return [[(q - 3) // 4, (q + 1) // 4], [(q - 3) // 4, (q - 3) // 4]]


def symbolic(r, letters=_QUARTIC_LETTERS):
    """(q, s, t, h, A) for q = r mod 8: the ring's q, s and t, the class of -1 and
    the transfer matrices built from Gauss's numbers."""
    if r % 4 == 3:
        return Q2, 0, 0, 1, _transfer_matrices(gauss_order_2(Q2), Q2, 1, range(2))
    q, h = S**2 + 4 * T**2, (0 if r == 1 else 2)
    return q, S, T, h, _transfer_matrices(gauss_order_4(letters, r), q, h, range(4))


def annihilator_residues(r, letters=_QUARTIC_LETTERS):
    """The nonzero entries of P(A_l) over every l, by Horner's rule."""
    q, s, t, _, steps = symbolic(r, letters)
    den = _class_part(q, s, t, r, None)[1]
    coeffs = [a - q * b for a, b in zip(den + (0,), (0,) + den)]
    eye = np.identity(len(steps[0]), dtype=object)
    residues = []
    for step in steps:
        value = eye * coeffs[0]
        for c in coeffs[1:]:
            value = value @ step + eye * c
        residues += [x for x in value.flat if x != 0]
    return residues


def series_mismatches(r, letters=_QUARTIC_LETTERS, terms=TERMS):
    """(what, class) for each count whose first `terms` terms differ between the
    matrices and `gf_N` / `gf_M`'s series."""
    q, s, t, _, steps = symbolic(r, letters)
    d = len(steps)

    def powers(state):  # A_0^n state for n = 1..terms
        for _ in range(terms):
            state = steps[0] @ state
            yield state

    def gf(i, twisted=False):  # the series of gf_N (gf_M) with its geometric part
        num, den = _class_part(q, s, t, r, i, twisted)
        return [q ** (n - (not twisted)) + c
                for n, c in enumerate(RationalPart(num=num, den=den).series(terms), 1)]

    e0 = np.array([1] + [0] * d, dtype=object)
    counts = list(powers(e0))
    mismatches = [("N", i) for i in [None, *range(d)]
                  if [u[0 if i is None else 1 + i] for u in counts] != gf(i)]
    return mismatches + [("M", l) for l in range(1, d)
                         if [u[0] for u in powers(steps[l] @ e0)] != gf(l, twisted=True)]


@pytest.mark.parametrize("r", [1, 5, 3, 7])
def test_the_annihilator_kills_every_transfer_matrix(r):
    assert annihilator_residues(r) == []


@pytest.mark.parametrize("r", [1, 5, 3, 7])
def test_generating_functions_match_the_matrices(r):
    assert series_mismatches(r) == []


@pytest.mark.parametrize("r", [1, 5])
def test_closed_forms_match_the_matrices(r):
    q, s, t, _, steps = symbolic(r)
    state = np.array([1, 0, 0, 0, 0], dtype=object)
    for n in range(1, 5):
        state = steps[0] @ state
        assert [_closed_small(q, s, t, r, i, n) for i in range(4)] == list(state[1:]), n


def test_a_wrong_letter_fails():
    # the sign of t flipped in letter B for q = 1 mod 8; K = 5 terms decide
    layout, letters = _QUARTIC_LETTERS[1]
    const, cs, ct = letters["B"]
    mutant = {**_QUARTIC_LETTERS, 1: (layout, {**letters, "B": (const, cs, -ct)})}
    assert series_mismatches(1, mutant, terms=5)
    assert annihilator_residues(1, mutant)


def diagonal_numerators(table):
    """(n, r, i) -> the numerator of [i]*n over QQ[s, t], for every row of `table`."""
    q = S**2 + 4 * T**2
    basis = (1, q, q**2, q**3, S, T, S * q, T * q, S * T, S**2, T**2)
    return {(n, r, i): sum(a * b for a, b in zip(row, basis))
            for (n, r), rows in table.items() for i, row in rows.items()}


def diagonal_mismatches(table=_DIAG_COEFFS):
    """(n, r, i) for each row whose [i]*n differs from the inclusion-exclusion
    over the zero variables, sum_k (-1)^(n-k) C(n, k) N_k(C_(-i)) / 4^n."""
    q = S**2 + 4 * T**2
    return [(n, r, i) for (n, r, i), num in diagonal_numerators(table).items()
            if 4**n * num != _DIAG_DIVISORS[n] * sum(
                (-1) ** (n - k) * comb(n, k) * _closed_small(q, S, T, r, -i % 4, k)
                for k in range(1, n + 1))]


def test_diagonal_numbers_follow_from_the_closed_forms():
    assert len(diagonal_numerators(_DIAG_COEFFS)) == 24
    assert diagonal_mismatches() == []


@pytest.mark.parametrize("r", [1, 5])
def test_diagonal_numbers_of_dimension_2_are_gauss_letters(r):
    gauss = gauss_order_4(_QUARTIC_LETTERS, r)
    numerators = diagonal_numerators(_DIAG_COEFFS)
    assert [numerators[2, r, i] for i in range(4)] == [16 * gauss[0][-i % 4]
                                                        for i in range(4)]


def dimension_number(r, indices):
    """[i_1, ..., i_n]_d for q = r mod 8 as (B_(i_n) ... B_(i_1) e_0)[1], with
    B_l = (A_l - I)/d from `symbolic`'s transfer matrices."""
    steps = symbolic(r)[4]
    d = len(steps)
    state = np.array([1] + [0] * d, dtype=object)
    for i in indices:
        state = ((steps[i % d] - np.identity(d + 1, dtype=object)) // d) @ state
    return state[1]


def transfer_mismatches(table=_DIAG_COEFFS):
    """(n, r, i) for each row whose [i]*n differs from the product of the B_i."""
    return [(n, r, i) for (n, r, i), num in diagonal_numerators(table).items()
            if num != _DIAG_DIVISORS[n] * dimension_number(r, [i] * n)]


def test_the_transfer_matrices_give_the_diagonal_numbers():
    assert transfer_mismatches() == []


@pytest.mark.parametrize("r", [1, 5, 3, 7])
def test_the_transfer_matrices_give_gauss_pairs(r):
    gauss = gauss_order_2(Q2) if r % 4 == 3 else gauss_order_4(_QUARTIC_LETTERS, r)
    pairs = [(i1, i2) for i1 in range(len(gauss)) for i2 in range(len(gauss))]
    assert ([dimension_number(r, pair) for pair in pairs]
            == [gauss[i2 - i1][-i1] for i1, i2 in pairs])


def test_a_wrong_diagonal_row_fails():
    # the sign of the t^2 term flipped in [2, 2, 2]_4 for q = 5 mod 8
    rows = dict(_DIAG_COEFFS[3, 5])
    rows[2] = rows[2][:-1] + (-rows[2][-1],)
    mutant = {**_DIAG_COEFFS, (3, 5): rows}
    assert diagonal_mismatches(mutant) == [(3, 5, 2)]
    assert transfer_mismatches(mutant) == [(3, 5, 2)]


@pytest.mark.parametrize("p", [7, 11, 19, 23, 43])
def test_order_2_table_matches_enumeration(p):
    fld = Field(p, 1)
    assert cyclotomic_matrix(2, fld, find_generator(fld)).tolist() == gauss_order_2(p)
