"""Property tests: the counting routes against the convolution oracle.

Each example draws an odd prime power q <= 49 of either residue class mod 4,
a generator override and, when q = p^m with m > 1, a modulus override; then a
right-hand side c, a variable count n <= 5 and a non-quartic twist y.  On
q = 1 mod 4 and c != 0 the cyclotomic route (n <= 4) and the exponential-sum
reconstruction are checked too.
"""

import functools

from hypothesis import given, settings, strategies as st

from diagquartic.counting import (
    count_M,
    count_N,
    count_via_cyclotomy,
    oracle_count,
    oracle_histogram,
    oracle_histograms,
)
from diagquartic.expsums import build_table, reconstruct_N
from diagquartic.field import (
    Field,
    all_generators,
    find_generator,
    is_irreducible,
    is_prime,
    quartic_class,
)

from conftest import split_off_count

PRIME_POWERS = [(p, m) for p in range(3, 50) if is_prime(p)
                for m in range(1, 4) if p**m <= 49]


@functools.cache
def _moduli(p, m):
    """Every monic irreducible of degree m over F_p, constant term first."""
    candidates = ([code // p**i % p for i in range(m)] + [1] for code in range(p**m))
    return [tuple(c) for c in candidates if is_irreducible(c, p)]


@functools.cache
def _generators(fld):
    return [g.encode() for g in all_generators(fld)]


@st.composite
def cases(draw):
    p, m = draw(st.sampled_from(PRIME_POWERS))
    fld = Field(p, m, modulus=draw(st.sampled_from(_moduli(p, m))) if m > 1 else None)
    gen = find_generator(fld, override=draw(st.sampled_from(_generators(fld))))
    c = fld.from_int(draw(st.integers(0, fld.q - 1)))
    n = draw(st.integers(1, 5))
    twists = [code for code in range(1, fld.q) if quartic_class(fld.from_int(code), gen)]
    y = fld.from_int(draw(st.sampled_from(twists)))
    return fld, gen, c, n, y


@settings(derandomize=True, deadline=None, max_examples=500)
@given(cases())
def test_counts_match_oracle(case):
    fld, gen, c, n, y = case
    one = fld.one()
    expected = oracle_count([one] * n, c)
    assert count_N(c, n, fld, gen) == expected
    assert count_via_cyclotomy(c, n, fld, gen) == expected
    if fld.q % 4 == 1 and not c.is_zero():
        table = build_table(fld, gen)
        assert reconstruct_N(n, c, table) == expected
    if n >= 2:
        full = oracle_histogram(fld, [one] * (n - 1) + [y])[0]
        assert count_M(y, n, fld, gen) == full
        assert count_via_cyclotomy(fld.zero(), n, fld, gen, y) == full
        hists = list(oracle_histograms(fld, [one] * n))
        assert split_off_count(fld, hists, y, n) == full
