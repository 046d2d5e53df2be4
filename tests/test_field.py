"""Field construction, arithmetic, generators, indices, classes and traces."""

import inspect
import random
import time
from collections import Counter
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import Phase, given, settings, strategies as st

from diagquartic import cli, counting
from diagquartic import field as field_module
from diagquartic.cyclotomy import (CyclotomicClasses, cyclotomic_matrix, quartic_decomposition,
                                   transfer_matrices)
from diagquartic.counting import count_M, count_N
from diagquartic.expsums import build_table
from diagquartic.errors import (
    FieldMismatchError,
    FieldTooLargeError,
    InvariantError,
    NotPrimeError,
    TooLargeError,
    ZeroHasNoIndexError,
)
from diagquartic.field import (
    MILLER_RABIN_BOUND,
    Field,
    GeneratorData,
    _gmul,
    _mulmod,
    _powmod,
    check_field,
    factorize,
    find_generator,
    index_of,
    is_irreducible,
    is_prime,
    log_table,
    minimal_irreducible,
    quartic_class,
    trace,
    trace_table,
)

from conftest import ALL_FIELDS, literal_product, literal_remainder, literal_trace


def _monic(p, m):
    """Every monic polynomial of degree m over F_p, constant term first."""
    return [[code // p**i % p for i in range(m)] + [1] for code in range(p**m)]


_MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1}

# non-default moduli: e = 2 (3^4, 7^2), and e = 1 with m odd (d = 4 and d = 2)
OTHER_MODULI = [(3, 4, (2, 0, 0, 1, 1)), (7, 2, (3, 1, 1)), (5, 3, (2, 0, 1, 1)),
                (3, 5, (1, 0, 0, 0, 2, 1))]


class TestConstruction:
    def test_prime_field_modulus_convention(self):
        assert Field(5, 1).modulus == (0, 1)
        assert Field(7, 1).q == 7

    def test_f9_minimal_modulus_is_x2_plus_1(self):
        # -1 is a non-square mod 3, so x^2 + 1 is the minimal irreducible
        assert Field(3, 2).modulus == (1, 0, 1)

    def test_minimal_modulus_matches_enumeration(self):
        # oracle: reject monic quadratics over F_3 with a root
        p = 3
        candidates = []
        for c0 in range(p):
            for c1 in range(p):
                if all((x * x + c1 * x + c0) % p != 0 for x in range(p)):
                    candidates.append((c0, c1, 1))
        best = min(candidates, key=lambda c: c[0] + p * c[1])
        assert Field(3, 2).modulus == best

    def test_rejects_non_prime_and_even(self):
        with pytest.raises(NotPrimeError):
            Field(4, 1)
        with pytest.raises(NotPrimeError):
            Field(2, 3)

    def test_rejects_oversized_field(self):
        with pytest.raises(FieldTooLargeError):
            Field(3, 14)

    @pytest.mark.parametrize("p, m", [(10**30 + 57, 1), (3, 10**8)],
                             ids=["p-31-digits", "m-1e8"])
    def test_bound_checked_before_factoring_p_or_forming_q(self, p, m):
        # trial division of a 31-digit p, or forming the 47.7-million-digit
        # 3^(10^8), would run for far longer than a second
        start = time.perf_counter()
        with pytest.raises(FieldTooLargeError):
            Field(p, m)
        assert time.perf_counter() - start < 1

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            Field(3, 2, modulus=(0, 0, 1))  # x^2 is reducible

    def test_irreducibility_by_root_count(self):
        p = 5
        for code in range(p * p):
            c0, c1 = code % p, code // p
            has_root = any((x * x + c1 * x + c0) % p == 0 for x in range(p))
            assert is_irreducible([c0, c1, 1], p) == (not has_root)

    def test_deterministic(self):
        assert minimal_irreducible(7, 2) == Field(7, 2).modulus

    @pytest.mark.parametrize("call, message", [
        (lambda: Field(5, 0), "must be positive"),
        (lambda: Field(5, 2, modulus=(2, 1)), "monic of degree m"),
        (lambda: Field(5, 1, modulus=(1, 0, 1)), "monic of degree m"),
        (lambda: Field(5, 1).element([1, 2]), "too many coefficients"),
        (lambda: Field(5, 1).from_int(5), "out of range"),
        (lambda: Field(3, 2).from_int(-1), "out of range"),
    ], ids=["m0", "modulus-degree-1-for-m2", "modulus-degree-2-for-m1",
            "element-too-long", "from-int-q", "from-int-negative"])
    def test_rejects_malformed_input(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


def strong_probable_prime(n, b):
    """n passes the Miller-Rabin round to base b: b^d = 1 or b^(d 2^j) = -1 mod n for
    some j < r, n - 1 = d 2^r with d odd."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return pow(b, d, n) == 1 or any(pow(b, d * 2**j, n) == n - 1 for j in range(r))


class TestIsPrime:
    def test_matches_sympy_below_10_5(self):
        assert [n for n in range(10**5) if is_prime(n) != sympy.isprime(n)] == []

    @pytest.mark.parametrize("p", [5, 13, 1048573])
    def test_every_ell_the_gauss_periods_try(self, p):
        # expsums walks ell = 1 mod 2p down from 2^31 until it has three primes
        ell, tried = (2**31 - 2) // (2 * p) * (2 * p) + 1, []
        while sum(map(sympy.isprime, tried)) < 3:
            tried.append(ell)
            ell -= 2 * p
        assert [is_prime(ell) for ell in tried] == [sympy.isprime(ell) for ell in tried]

    def test_strong_pseudoprimes_below_the_bound(self):
        # the least strong pseudoprimes to 2; to 2, 3; and to 2, 3, 5
        for n in (2047, 1373653, 25326001):
            assert not is_prime(n) and not sympy.isprime(n)
        rng = random.Random(7)
        sample = [rng.randrange(MILLER_RABIN_BOUND) for _ in range(3000)]
        assert [is_prime(n) for n in sample] == [sympy.isprime(n) for n in sample]
        assert is_prime(MILLER_RABIN_BOUND - 2) == sympy.isprime(MILLER_RABIN_BOUND - 2)

    def test_bound_is_a_strong_pseudoprime_to_2_3_5_7(self):
        n = MILLER_RABIN_BOUND
        assert not sympy.isprime(n)
        assert all(strong_probable_prime(n, b) for b in (2, 3, 5, 7))
        for bad in (n, n + 1, 2**32):
            with pytest.raises(ValueError):
                is_prime(bad)


class TestIrreducibility:
    CASES = [(3, 2), (3, 3), (3, 4), (3, 6), (5, 2), (5, 3), (5, 4)]

    @pytest.mark.parametrize("p, m", CASES)
    def test_count_matches_gauss_formula(self, p, m):
        # (1/m) sum_{d | m} mu(d) p^(m/d); at m = 6 a test of x^(p^(m/l)) != x
        # in place of the unit condition accepts 188 over F_3, not 116
        expected = sum(_MOBIUS[d] * p ** (m // d) for d in _MOBIUS if m % d == 0) // m
        assert sum(is_irreducible(f, p) for f in _monic(p, m)) == expected

    @pytest.mark.parametrize("p, m", [(p, m) for p, m in CASES if m <= 4])
    def test_matches_trial_division(self, p, m):
        divisors = [g for d in range(1, m // 2 + 1) for g in _monic(p, d)]
        for f in _monic(p, m):
            has_factor = any(not any(literal_remainder(f, g, p)) for g in divisors)
            assert is_irreducible(f, p) == (not has_factor), f

    @pytest.mark.parametrize("p, m, modulus", [
        (5, 8, (2, 0, 0, 0, 0, 0, 0, 0, 1)),
        (3, 12, (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
        (1021, 2, (2, 0, 1)),
        (29, 4, (2, 0, 0, 0, 1)),
        (7, 7, (1, 6, 0, 0, 0, 0, 0, 1)),
    ])
    def test_benchmark_moduli_pinned(self, p, m, modulus):
        # the answers pinned for the benchmark's extension fields depend on these
        assert minimal_irreducible(p, m) == modulus

    def test_non_monic_is_no_modulus(self):
        # x^2 + 1 is irreducible over F_3; 2x^2 + 2 has the same roots, but no
        # modulus has a leading coefficient other than 1
        assert is_irreducible((1, 0, 1), 3)
        assert not is_irreducible((2, 0, 2), 3)


class TestArithmetic:
    def test_prime_field_add(self):
        f3 = Field(3, 1)
        assert (f3.from_int(1) + f3.from_int(2)).is_zero()

    def test_f9_root_squares_to_minus_one(self):
        f9 = Field(3, 2)
        x = f9.element([0, 1])
        assert (x * x).encode() == 2

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            Field(5, 1).one() + Field(7, 1).one()

    def test_mismatch_names_two_fields_that_print_apart(self):
        # F_25 under x^2 + 2 and under x^2 + 3: same p and m, so only the modulus tells
        # the two fields apart in the message
        f25, other = Field(5, 2), Field(5, 2, modulus=(3, 0, 1))
        assert repr(f25) == "Field(p=5, m=2, modulus=(2, 0, 1))" != repr(other)
        with pytest.raises(FieldMismatchError) as err:
            check_field(f25, other.from_int(7))
        assert str(err.value) == ("<7 in F_25> is an element of Field(p=5, m=2, modulus="
                                  "(3, 0, 1)), not Field(p=5, m=2, modulus=(2, 0, 1))")
        with pytest.raises(FieldMismatchError) as err:
            f25.one() + other.one()
        assert str(err.value) == ("operands from Field(p=5, m=2, modulus=(2, 0, 1)) and "
                                  "Field(p=5, m=2, modulus=(3, 0, 1))")

    def test_pow(self):
        f13 = Field(13, 1)
        assert (f13.from_int(2) ** 9).encode() == 5
        assert (f13.from_int(7) ** 0) == f13.one()

    @pytest.mark.parametrize("p", [5, 13, 65521])
    def test_prime_field_pow_matches_repeated_multiplication(self, p):
        fld = Field(p, 1)
        for code in (0, 1, 2, p - 1, p // 3):
            x = fld.from_int(code)
            expected = fld.one()
            for e in range(12):
                assert x ** e == expected, (code, e)
                expected = expected * x

    @pytest.mark.parametrize("p, m", [(5, 1), (65521, 1), (3, 2), (5, 4)])
    def test_negative_exponent_rejected(self, p, m):
        # the prime-field branch would otherwise take pow's modular inverse, and
        # square-and-multiply would read bin(-n) and return a wrong power
        fld = Field(p, m)
        for code in (0, 1, 2, fld.q - 1):
            for e in (-1, -3):
                with pytest.raises(ValueError):
                    fld.from_int(code) ** e

    @pytest.mark.parametrize("p, m", [(3, 2), (7, 2), (3, 3), (5, 4)])
    def test_extension_field_pow_matches_repeated_multiplication(self, p, m):
        fld = Field(p, m)
        one = fld.one()
        for code in (0, 1, 2, p, fld.q - 1, fld.q // 3):
            x = fld.from_int(code)
            expected = one
            for e in range(12):
                assert x ** e == expected, (code, e)
                expected = expected * x

    @pytest.mark.parametrize("p, m, other", [
        (3, 2, (2, 2, 1)), (5, 2, (2, 4, 1)), (3, 3, (2, 2, 2, 1)), (7, 2, (6, 6, 1)),
    ])
    def test_every_product_matches_long_division(self, p, m, other):
        for modulus in (None, other):
            fld = Field(p, m, modulus=modulus)
            elements = list(fld.elements())
            for a in elements:
                for b in elements:
                    assert (a * b).coeffs == literal_product(a.coeffs, b.coeffs,
                                                             fld.modulus, p), (a, b)

    def test_generator_lagrange(self, any_field):
        g = any_field.gen.g
        assert g ** (any_field.q - 1) == any_field.field.one()

    def test_frobenius_additivity(self, any_field):
        fld = any_field.field
        p = fld.p
        pairs = [(1, 2), (3, fld.q - 1), (fld.q // 2, fld.q // 3 + 1)]
        for a, b in pairs:
            x, y = fld.from_int(a % fld.q), fld.from_int(b % fld.q)
            assert (x + y) ** p == x ** p + y ** p
            assert trace(x ** p) == trace(x)

    def test_encoding_roundtrip(self, any_field):
        fld = any_field.field
        for code in range(fld.q):
            assert fld.from_int(code).encode() == code


class TestPowmod:
    """`_powmod` against a literal chain a, a a, a a a, ... for n = 1..64, in
    F_p[x]/(f) and in F_p[i]; genfunc's tests take Z[x] mod a denominator."""

    @pytest.mark.parametrize("p, m", [(5, 3), (3, 12)])
    def test_in_fp_x_mod_f(self, p, m):
        fld = Field(p, m)
        for code in (p, fld.q // 3, fld.q - 2):
            a = chain = fld.from_int(code).coeffs
            for n in range(1, 65):
                power = _powmod(a, n, _mulmod, fld._ring)
                assert power == chain, (code, n)
                # a square (one object) equals the general product of an equal but
                # distinct tuple
                twin = tuple(list(power))
                assert twin is not power
                assert _mulmod(power, power, fld._ring) == _mulmod(power, twin, fld._ring)
                chain = literal_product(chain, a, fld.modulus, p)

    @pytest.mark.parametrize("p", [7, 1019])
    def test_in_fp_i(self, p):
        # the chain runs in the Gaussian integers and is reduced mod p at each n
        for a in [(0, 1), (2, 3), (p - 1, p // 2)]:
            u, v = a
            for n in range(1, 65):
                assert _powmod(a, n, _gmul, p) == (u % p, v % p), (a, n)
                u, v = u * a[0] - v * a[1], u * a[1] + v * a[0]


@st.composite
def signed_vectors(draw):
    """Four coefficients: zeros, mixed signs, up to 10^4 bits each."""
    def coefficient():
        bits = draw(st.integers(0, 10**4))
        return draw(st.one_of(st.just(0), st.integers(-(2**bits), 2**bits)))
    return [coefficient() for _ in range(4)]


# monic quartics, constant term first: the gf denominators reversed, and random ones
QUARTICS = st.one_of(st.sampled_from([(205, 40, 10, 0, 1), (-7203, -2744, -294, 0, 1)]),
                     st.tuples(*[st.integers(-10**6, 10**6)] * 4, st.just(1)))


def check_square_against_schoolbook(a, f):
    # `a` twice is the Toom square; an equal list takes the schoolbook product
    ring = (f, 0)
    assert _mulmod(a, a, ring) == _mulmod(a, list(a), ring), (a, f)


def square_property(**options):
    return settings(derandomize=True, deadline=None, max_examples=300, **options)(
        given(signed_vectors(), QUARTICS)(check_square_against_schoolbook))


test_toom_square_matches_the_schoolbook_product = square_property()


class TestToomSquare:
    def test_edge_vectors(self):
        big = 2**10**4 - 1
        for a in ([0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [big, -big, big, -big],
                  [-big, 0, 0, big], [0, big, -1, 0]):
            check_square_against_schoolbook(a, (205, 40, 10, 0, 1))
            assert field_module._toom_square(a) == [
                sum(a[i] * a[j - i] for i in range(4) if 0 <= j - i < 4) for j in range(7)]

    @pytest.mark.parametrize("right, wrong", [("// 120", "// 60"), ("60 * c6", "64 * c6"),
                                              ("81 * c4", "80 * c4"), ("5 * c5", "4 * c5"),
                                              ("9 * a2", "8 * a2"), (">> 2", ">> 1")])
    def test_a_wrong_interpolation_constant_is_caught(self, monkeypatch, right, wrong):
        source = inspect.getsource(field_module._toom_square)
        assert source.count(right) == 1
        namespace = {}
        exec(source.replace(right, wrong), namespace)
        monkeypatch.setattr(field_module, "_toom_square", namespace["_toom_square"])
        with pytest.raises(AssertionError):  # found, not shrunk
            square_property(database=None, phases=[Phase.generate])()


class TestGenerator:
    @pytest.mark.parametrize("p, expected", [(5, 2), (13, 2), (7, 3)])
    def test_smallest_generator(self, p, expected):
        assert find_generator(Field(p, 1)).g.encode() == expected

    def test_powers_enumerate_group(self, any_field):
        g = any_field.gen.g
        fld = any_field.field
        seen = set()
        acc = fld.one()
        for _ in range(fld.q - 1):
            seen.add(acc.encode())
            acc = acc * g
        assert seen == set(range(1, fld.q))

    def test_override_validation(self):
        f13 = Field(13, 1)
        gen = find_generator(f13, override=6)
        assert gen.g.encode() == 6
        with pytest.raises(ValueError):
            find_generator(f13, override=3)  # order 3

    def test_order_witness(self, any_field):
        # the primes l whose (q-1)/l-th powers `multiplicative_order_is_full` tests
        factors = factorize(any_field.q - 1)
        total = 1
        for prime, mult in factors.items():
            total *= prime**mult
        assert total == any_field.q - 1

    @pytest.mark.parametrize("p, m", [(1021, 2), (7, 2)])
    def test_scan_skips_the_prime_subfield(self, monkeypatch, p, m):
        # for m >= 2 the codes below p are c*1 in F_p^*, of order dividing p - 1
        tested, order_is_full = [], field_module.multiplicative_order_is_full

        def recorded(x, factors):
            tested.append(x.encode())
            return order_is_full(x, factors)
        monkeypatch.setattr(field_module, "multiplicative_order_is_full", recorded)
        gen = find_generator(Field(p, m))
        assert tested and min(tested) == p and tested[-1] == gen.g.encode()

    @pytest.mark.parametrize("p, m", [(p, m) for p, m in ALL_FIELDS if m >= 2])
    def test_smallest_generator_by_literal_scan(self, p, m):
        fld = Field(p, m)

        def order(x):
            acc, k = x, 1
            while acc != fld.one():
                acc, k = acc * x, k + 1
            return k
        smallest = next(code for code in range(1, fld.q)
                        if order(fld.from_int(code)) == fld.q - 1)
        assert find_generator(fld).g.encode() == smallest


class TestIndex:
    @pytest.mark.parametrize("p, x, expected", [(5, 1, 0), (5, 3, 3), (13, 5, 9)])
    def test_known_indices(self, p, x, expected):
        fld = Field(p, 1)
        assert index_of(fld.from_int(x), find_generator(fld)) == expected

    def test_zero_has_no_index(self):
        f5 = Field(5, 1)
        with pytest.raises(ZeroHasNoIndexError):
            index_of(f5.zero(), find_generator(f5))
        with pytest.raises(ZeroHasNoIndexError):
            quartic_class(f5.zero(), find_generator(f5))

    def test_index_inverts_pow(self, any_field):
        gen = any_field.gen
        q1 = any_field.q - 1
        for e in range(0, 2 * q1, max(1, q1 // 7)):
            assert index_of(gen.g ** e, gen) == e % q1

    @pytest.mark.parametrize("p", [65521, 65537])
    def test_index_of_inverts_pow_around_2_16(self, p):
        # the largest prime below 2^16 and the smallest above it
        fld = Field(p, 1)
        gen = find_generator(fld)
        for e in (0, 1, 12345, p - 2):
            assert index_of(gen.g ** e, gen) == e


def _both_generators(fld, gen=None):
    """The smallest generator g and g^(q-2) = g^-1, which generates too and
    reverses every class."""
    gen = gen or find_generator(fld)
    return gen, find_generator(fld, override=(gen.g ** (fld.q - 2)).encode())


class TestQuarticClass:
    def test_matches_index_of(self, any_field):
        fld = any_field.field
        q = fld.q
        d = gcd(4, q - 1)
        for gen in _both_generators(fld, any_field.gen):
            assert len(gen.class_roots) == d
            for code in range(1, q):
                x = fld.from_int(code)
                assert quartic_class(x, gen) == index_of(x, gen) % d, (gen.g, code)

    # the norm to F_(p^e) over k = m/e conjugates: e = 1, k = 2; e = 1, k odd;
    # e = 2, k = 2 (twice); e = 2, k odd; d = 2; and, as f_e depends on the
    # modulus, the OTHER_MODULI
    @pytest.mark.parametrize("p, m, modulus", [
        (13, 2, None), (5, 3, None), (3, 4, None), (7, 4, None), (3, 6, None),
        (3, 5, None)] + OTHER_MODULI, ids=str)
    def test_norm_chain_on_every_element(self, p, m, modulus):
        fld = Field(p, m, modulus)
        d = gcd(4, fld.q - 1)
        for gen in _both_generators(fld):
            log = log_table(fld, gen)
            assert [quartic_class(fld.from_int(code), gen) for code in range(1, fld.q)] \
                == [int(ind) % d for ind in log[1:]], gen.g

    @pytest.mark.parametrize("p, m", [(65537, 1), (3, 12), (7, 7), (5, 8), (1021, 2),
                                      (29, 4)])
    def test_matches_index_of_on_large_fields(self, p, m):
        fld = Field(p, m)
        d = gcd(4, fld.q - 1)
        for gen in _both_generators(fld):
            samples = [fld.from_int(code) for code in range(1, fld.q, fld.q // 5)]
            samples += [gen.g ** e for e in (1, 2, 3, 12345)]
            for x in samples:
                assert quartic_class(x, gen) == index_of(x, gen) % d, (gen.g, x)

    @pytest.mark.parametrize("p, m", [(5, 8), (3, 12), (7, 7), (29, 4), (1021, 2)])
    def test_cost_per_call(self, monkeypatch, p, m):
        # no product in F_q per query; Euclid takes at most m/e divisions; the e = 2
        # factor is built on the first query, not by find_generator, and once per
        # generator
        builds, divisions, products = [], [], []
        build, mulmod = field_module._norm_factor, field_module._mulmod

        def built(fld, class_roots):
            builds.append(class_roots)
            return build(fld, class_roots)

        def product(*args):
            products.append(1)
            return mulmod(*args)

        def counted(rem):
            def division(A, B, p):
                divisions.append(len(B) - 1)
                return rem(A, B, p)
            return division
        monkeypatch.setattr(field_module, "_norm_factor", built)
        fld = Field(p, m)
        gen = find_generator(fld)
        d = gcd(4, fld.q - 1)
        e = 1 if (p - 1) % d == 0 else 2
        assert builds == [] and "norm_factor" not in vars(gen)
        quartic_class(fld.from_int(fld.q // 7), gen)
        monkeypatch.setattr(field_module, "_mulmod", product)
        for rem in ("_rem_residues", "_rem_gaussian"):
            monkeypatch.setattr(field_module, rem, counted(getattr(field_module, rem)))
        most = 0
        for code in range(1, fld.q, fld.q // 200):
            divisions.clear()
            quartic_class(fld.from_int(code), gen)
            most = max(most, len(divisions))
        assert 0 < most <= m // e
        assert products == []
        assert builds == ([gen.class_roots] if e == 2 else [])
        assert ("norm_factor" in vars(gen)) == (e == 2)

    @pytest.mark.parametrize("p, m", [(3, 4), (7, 2)])
    def test_each_generator_builds_its_own_factor(self, monkeypatch, p, m):
        # e = 2 on one field: the default generator and its inverse, the override
        # `--generator` would give, each build their factor once, and every class
        # matches the log table of its generator
        builds, build = [], field_module._norm_factor

        def built(fld, class_roots):
            builds.append(class_roots)
            return build(fld, class_roots)
        monkeypatch.setattr(field_module, "_norm_factor", built)
        fld = Field(p, m)
        default = find_generator(fld)
        other = find_generator(fld, override=(default.g ** (fld.q - 2)).encode())
        for _ in range(2):
            for gen in (default, other):
                classes = [quartic_class(fld.from_int(code), gen) for code in range(1, fld.q)]
                assert classes == (log_table(fld, gen)[1:] % 4).tolist(), gen.g
        assert builds == [default.class_roots, other.class_roots]
        assert default.class_roots != other.class_roots

    @pytest.mark.parametrize("p, m", [(3, 12), (5, 8), (7, 7), (29, 4), (1021, 2)])
    def test_class_is_a_homomorphism(self, p, m):
        # with no log table: classes add under products, and g^k has class k mod d
        fld = Field(p, m)
        gen = find_generator(fld)
        d = gcd(4, fld.q - 1)
        rng = random.Random(fld.q)
        for _ in range(200):
            x, y = (fld.from_int(rng.randrange(1, fld.q)) for _ in range(2))
            assert quartic_class(x * y, gen) == \
                (quartic_class(x, gen) + quartic_class(y, gen)) % d, (x, y)
            k = rng.randrange(fld.q - 1)
            assert quartic_class(gen.g ** k, gen) == k % d, k

    @pytest.mark.parametrize("p, m, spot", [(13, 1, 1), (3, 4, 1), (3, 4, 2)])
    def test_lying_class_roots_raise(self, p, m, spot):
        # e = 1 (F_13) and e = 2 (3^4): a class root that is no power of g, or an
        # i = class_roots[1] with i^2 != -1, is an InvariantError, not a ValueError
        fld = Field(p, m)
        gen = find_generator(fld)
        roots = list(gen.class_roots)
        roots[spot] = next(c for c in range(2, fld.q) if c not in roots)
        liar = GeneratorData(g=gen.g, class_roots=tuple(roots))
        with pytest.raises(InvariantError):
            for k in range(4):
                quartic_class(gen.g ** k, liar)

    def test_generator_from_other_field(self):
        # F_9 under x^2 + 1 and under x^2 + 2x + 2: equal encodings, other products
        fa, fb = Field(3, 2, modulus=(1, 0, 1)), Field(3, 2, modulus=(2, 2, 1))
        for fld, gen in ((fa, find_generator(fb)), (fb, find_generator(fa))):
            for code in range(1, fld.q):
                c = fld.from_int(code)
                with pytest.raises(FieldMismatchError):
                    quartic_class(c, gen)
                with pytest.raises(FieldMismatchError):
                    count_N(c, 2, fld, gen)


class TestLogTable:
    def test_matches_powers(self, any_field):
        fld = any_field.field
        inverse_g = find_generator(fld, override=(any_field.gen.g ** (fld.q - 2)).encode())
        for gen in (any_field.gen, inverse_g):
            log = log_table(fld, gen)
            acc = fld.one()
            for e in range(fld.q - 1):
                assert log[acc.encode()] == e, (gen.g, e)
                acc = acc * gen.g

    def test_zero_and_read_only(self, any_field):
        log = log_table(any_field.field, any_field.gen)
        assert log.dtype == np.int64 and log.shape == (any_field.q,)
        assert log[0] == -1
        with pytest.raises(ValueError):
            log[1] = 0

    def test_non_generator_raises(self):
        f13 = Field(13, 1)
        gen = find_generator(f13)
        fake = GeneratorData(g=f13.from_int(3), class_roots=gen.class_roots)  # 3 has order 3
        with pytest.raises(InvariantError):
            log_table(f13, fake)

    def test_other_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            log_table(Field(7, 1), find_generator(Field(5, 1)))

    def test_cache_evicts_oldest_past_byte_guard(self, monkeypatch):
        builds = []
        build = field_module._log_table

        def counted(g):
            builds.append(g.field.q)
            return build(g)
        f5, f7, f9 = Field(5, 1), Field(7, 1), Field(3, 2)
        gens = {fld: find_generator(fld) for fld in (f5, f7, f9)}
        monkeypatch.setattr(field_module, "_log_table", counted)
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD", (7 + 9) * 8)

        def touch(fld):
            log_table(fld, gens[fld])
            return [g.field for _, g in field_module._TABLES]
        assert touch(f5) == [f5]
        assert touch(f7) == [f5, f7]
        assert touch(f9) == [f7, f9]
        assert touch(f7) == [f7, f9]
        assert touch(f5) == [f9, f5]
        assert builds == [5, 7, 9, 5]

    @pytest.mark.parametrize("p, m", [(65537, 1), (3, 12), (5, 8)])
    def test_count_path_builds_no_table(self, monkeypatch, p, m):
        def refuse(key, build):
            raise RuntimeError(f"{key[0]} table read on the count path")
        monkeypatch.setattr(field_module, "_stored", refuse)
        monkeypatch.setattr(field_module, "_TABLES", {})
        fld = Field(p, m)
        gen = find_generator(fld)
        dec = quartic_decomposition(fld, gen)
        c = fld.from_int(fld.q // 3)
        y = gen.g * c ** 4  # class 1: not a fourth power
        assert count_N(c, 7, fld, gen, dec) == count_N(c, 7, fld, gen)
        assert count_M(y, 7, fld, gen, dec) > 0


class TestTrace:
    def test_prime_field_identity(self):
        f7 = Field(7, 1)
        for code in range(7):
            assert trace(f7.from_int(code)) == code

    def test_f9_root_has_trace_zero(self):
        f9 = Field(3, 2)
        assert trace(f9.element([0, 1])) == 0

    def test_trace_of_one(self, any_field):
        fld = any_field.field
        assert trace(fld.one()) == fld.m % fld.p

    def test_trace_lands_in_prime_subfield(self, any_field):
        fld = any_field.field
        for code in range(0, fld.q, max(1, fld.q // 11)):
            assert 0 <= trace(fld.from_int(code)) < fld.p


    def test_matches_literal_trace(self, any_field):
        fld = any_field.field
        assert [trace(x) for x in fld.elements()] == [literal_trace(x)
                                                      for x in fld.elements()]

    def test_matches_literal_trace_on_3_12(self):
        fld = Field(3, 12)
        for code in range(0, fld.q, fld.q // 40):
            x = fld.from_int(code)
            assert trace(x) == literal_trace(x), code

    @pytest.mark.parametrize("p, m, modulus", OTHER_MODULI + [(3, 2, (2, 2, 1))], ids=str)
    def test_matches_literal_trace_under_other_moduli(self, p, m, modulus):
        fld = Field(p, m, modulus)
        traces = [trace(x) for x in fld.elements()]
        assert traces == [literal_trace(x) for x in fld.elements()]
        assert [int(t) for t in trace_table(fld)] == traces

    def test_trace_table_matches_trace(self, any_field):
        fld = any_field.field
        table = trace_table(fld)
        assert [int(t) for t in table] == [trace(x) for x in fld.elements()]


class TestAdditionTable:
    def test_matches_element_addition(self, any_field):
        fld = any_field.field
        table = counting._addition_tables(fld)
        els = list(fld.elements())
        assert all(table[a.encode(), b.encode()] == (a + b).encode()
                   for a in els for b in els)

    def test_cache_evicts_oldest_past_byte_guard(self, monkeypatch):
        builds = []
        build = counting._addition_tables

        def counted(fld):
            builds.append(fld.q)
            return build(fld)
        f5, f7, f9 = Field(5, 1), Field(7, 1), Field(3, 2)
        itemsize = np.dtype(np.int64).itemsize
        monkeypatch.setattr(counting, "_addition_tables", counted)
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD",
                            (7**2 + 9**2) * itemsize)

        def touch(fld):
            delta = [1] + [0] * (fld.q - 1)
            counting._group_convolve(fld, delta, delta)
            return [f for _, f in field_module._TABLES]
        assert touch(f5) == [f5]
        assert touch(f7) == [f5, f7]
        assert touch(f9) == [f7, f9]
        assert touch(f7) == [f7, f9]
        assert touch(f5) == [f9, f5]
        assert builds == [5, 7, 9, 5]


class TestGroupConvolve:
    @pytest.mark.parametrize("p, m", [(13, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
    @pytest.mark.parametrize("low", [1, 2**40])
    def test_matches_definition(self, p, m, low):
        # out[c] = sum over a + b = c of h1[a] h2[b], by Element addition; entries
        # from 2^40 put sum|h1| * sum|h2| past 2^63, so both dtypes are held to it
        fld = Field(p, m)
        rng = random.Random(fld.q * low)
        h1 = [rng.randrange(low, 2 * low) if rng.random() < 0.7 else 0 for _ in range(fld.q)]
        h2 = [rng.randrange(low, 2 * low) if code % 3 == 1 else 0 for code in range(fld.q)]
        assert (sum(h1) * sum(h2) < 2**63) == (low == 1)
        want = [0] * fld.q
        els = list(fld.elements())
        for a in els:
            for b in els:
                want[(a + b).encode()] += h1[a.encode()] * h2[b.encode()]
        got = counting._group_convolve(fld, h1, h2)
        assert got == want
        assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("w", [2**31 - 1, 2**31])
    def test_exact_at_the_int64_edge(self, w):
        # one product at 2^63 - 2^32 stays on int64, one at 2^63 must not
        fld = Field(5, 1)
        got = counting._group_convolve(fld, [2**32, 0, 0, 0, 0], [0, w, 0, 0, 0])
        assert got == [0, 2**32 * w, 0, 0, 0]
        assert all(type(v) is int for v in got)


class TestTableStore:
    def test_one_budget_evicts_oldest_across_kinds(self, monkeypatch):
        # 8-byte entries: an addition table holds q^2 of them, a log table or a
        # histogram of x^4 q.  All ten tables take 1,136 bytes; the budget is 700.
        assert counting._addition_tables(Field(5, 1)).itemsize == 8
        fields = {q: Field(p, m) for q, (p, m) in {5: (5, 1), 7: (7, 1), 9: (3, 2),
                                                 13: (13, 1)}.items()}
        gens = {q: find_generator(fld) for q, fld in fields.items()}
        builds = []

        def counted(kind, build, field_of):
            def wrapper(arg):
                builds.append((kind, field_of(arg).q))
                return build(arg)
            return wrapper
        for module, kind, name, field_of in [
                (counting, "add", "_addition_tables", lambda f: f),
                (field_module, "log", "_log_table", lambda g: g.field),
                (counting, "power", "power_profile", lambda f: f)]:
            monkeypatch.setattr(module, name, counted(kind, getattr(module, name), field_of))
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD", 700)

        def touch(kind, q):
            fld = fields[q]
            if kind == "add":
                delta = [1] + [0] * (q - 1)
                counting._group_convolve(fld, delta, delta)
            elif kind == "log":
                log_table(fld, gens[q])
            else:  # one variable reads the histogram of x^4 and no addition table
                counting.oracle_histogram(fld, [fld.one()])
            store = field_module._TABLES
            assert sum(t.nbytes for t in store.values()) <= 700
            return [(k, (obj.field if k == "log" else obj).q) for k, obj in store]
        for step in [("add", 5), ("add", 7), ("log", 5), ("power", 5)]:
            touch(*step)
        # 672 bytes; the next 56 evict the oldest table, an addition table
        assert touch("log", 7) == [("add", 7), ("log", 5), ("power", 5), ("log", 7)]
        for step in [("power", 7), ("log", 9)]:
            touch(*step)
        assert touch("power", 9) == [("log", 5), ("power", 5), ("log", 7),
                                     ("power", 7), ("log", 9), ("power", 9)]
        touch("log", 13)
        assert touch("power", 13)[-2:] == [("log", 13), ("power", 13)]
        # a hit neither builds nor moves its table; a rebuilt table evicts two
        assert touch("log", 5)[0] == ("log", 5)
        assert touch("add", 5) == [("log", 7), ("power", 7), ("log", 9), ("power", 9),
                                   ("log", 13), ("power", 13), ("add", 5)]
        assert builds == [("add", 5), ("add", 7), ("log", 5), ("power", 5), ("log", 7),
                          ("power", 7), ("log", 9), ("power", 9), ("log", 13),
                          ("power", 13), ("add", 5)]
        assert all(not t.flags.writeable for t in field_module._TABLES.values())

    def test_class_tables_share_the_budget_and_are_counted(self, monkeypatch):
        # at k = 4: a log table or a histogram of x^4 takes 8q bytes, the (i, j)_4 128,
        # the Gauss periods mod three primes 3 * 5 int64 entries, 120 bytes, and the A_l
        # 4 * 5 * 5, 800 bytes.  The A_l's object build is charged 36 * 4 * 5^2 = 3,600
        # bytes, so the budget is 4,032: the tables of F_13 are small beside it, the
        # histogram of F_389 (3,112 bytes) and the log table of F_397 (3,176) fill most of it
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "STORE_COUNTS", Counter())
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD", 4032)
        f13, f389, f397 = Field(13, 1), Field(389, 1), Field(397, 1)
        gens = {fld: find_generator(fld) for fld in (f13, f389, f397)}
        reads = {"cyclo": lambda fld: cyclotomic_matrix(4, fld, gens[fld]),
                 "transfer": lambda fld: transfer_matrices(fld, gens[fld], 4),
                 "periods": lambda fld: build_table(fld, gens[fld]),
                 "power": lambda fld: counting.oracle_histogram(fld, [fld.one()])}

        def touch(kind, fld):
            reads[kind](fld)
            store = field_module._TABLES
            assert sum(t.nbytes for t in store.values()) <= 4032
            assert not any(t.flags.writeable for t in store.values())
            return [(key[0], (key[1] if key[0] in ("power", "add")
                              else key[1].field).q) for key in store]
        touch("cyclo", f13)
        touch("power", f389)
        assert touch("periods", f13) == [("log", 13), ("cyclo", 13), ("power", 389),
                                         ("periods", 13)]
        # 4,264 bytes: the two oldest go, the log table and the (i, j)_4 it served
        assert touch("transfer", f13) == [("power", 389), ("periods", 13), ("transfer", 13)]
        assert touch("cyclo", f397) == [("log", 397), ("cyclo", 397)]
        # a hit neither builds nor moves its table
        assert touch("cyclo", f397) == [("log", 397), ("cyclo", 397)]
        assert field_module.STORE_COUNTS == {
            ("log", "hits"): 1, ("log", "builds"): 2, ("log", "evictions"): 1,
            ("cyclo", "hits"): 2, ("cyclo", "builds"): 2, ("cyclo", "evictions"): 1,
            ("power", "builds"): 1, ("power", "evictions"): 1,
            ("periods", "builds"): 1, ("periods", "evictions"): 1,
            ("transfer", "builds"): 1, ("transfer", "evictions"): 1}
        # the A_l built on F_389, with its (i, j)_4 and log table, evict three tables
        assert touch("transfer", f389) == [("cyclo", 389), ("transfer", 389)]
        with pytest.raises(ValueError):
            transfer_matrices(f389, gens[f389], 4)[0, 0, 0] = 2

    def test_transfer_matrices_are_int64(self, monkeypatch):
        monkeypatch.setattr(field_module, "_TABLES", {})
        f13 = Field(13, 1)
        steps = transfer_matrices(f13, find_generator(f13), 4)
        assert (steps.dtype, steps.nbytes) == (np.int64, 800)

    def test_object_tables_are_refused(self, monkeypatch):
        # the byte guard reads nbytes, which counts an object array's pointers only
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "STORE_COUNTS", Counter())
        with pytest.raises(InvariantError):
            field_module._stored(("transfer", "ints"), lambda: np.array([2**80], dtype=object))
        assert field_module._TABLES == {} and field_module.STORE_COUNTS == {}


# Every whole-field entry point, each charged to `field.check_bytes` before it allocates
WHOLE_FIELD_BUILDS = {
    "oracle": lambda fld, gen: next(counting.oracle_histograms(fld, [fld.one()] * 2)),
    "power-profile": lambda fld, gen: counting.power_profile(fld),
    "cyclotomic-matrix": lambda fld, gen: cyclotomic_matrix(4, fld, gen),
    "transfer-matrices": lambda fld, gen: transfer_matrices(fld, gen, 4),
    "log-table": log_table,
    "classes": lambda fld, gen: CyclotomicClasses(fld, gen, 4),
    "gauss-periods": build_table,
}


class TestByteGuard:
    @pytest.mark.parametrize("entry", [*WHOLE_FIELD_BUILDS, "verify"])
    def test_one_binding_moves_every_byte_check(self, monkeypatch, capsys, entry):
        # on F_13 the smallest charge, a 13 x 1 digit array or log table, takes 104
        # bytes; patching `field`'s guard alone refuses every build as a typed error
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD", 64)
        if entry == "verify":
            assert cli.main(["verify", "--p", "13"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: TooLargeError: ") and err.endswith(
                " bytes, past guard 64\n")
            return
        fld = Field(13, 1)
        with pytest.raises(TooLargeError, match=r" bytes, past guard 64$"):
            WHOLE_FIELD_BUILDS[entry](fld, find_generator(fld))


class TestClassRoots:
    @pytest.mark.parametrize("p, m", [(5, 1), (13, 1), (5, 2), (13, 2), (5, 4), (29, 2)])
    def test_fourth_root_of_unity_in_prime_field(self, p, m):
        # p = 1 mod 4: zeta = g^(3(q-1)/4) lies in F_p, so its encoding is its residue
        fld = Field(p, m)
        gen = find_generator(fld)
        zeta = gen.class_roots[3]
        assert zeta == (gen.g ** (3 * (fld.q - 1) // 4)).encode()
        assert zeta < p and (zeta * zeta + 1) % p == 0
