"""Field construction, arithmetic, generators, indices, classes and traces."""

from math import gcd

import numpy as np
import pytest

from diagquartic import field as field_module
from diagquartic.errors import (
    FieldMismatchError,
    FieldTooLargeError,
    NotInPrimeSubfieldError,
    NotPrimeError,
    ZeroHasNoIndexError,
)
from diagquartic.field import (
    Field,
    find_generator,
    index_of,
    is_irreducible,
    minimal_irreducible,
    prime_subfield_residue,
    quartic_class,
    trace,
    trace_table,
)


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


class TestArithmetic:
    def test_prime_field_add(self):
        f3 = Field(3, 1)
        assert (f3.from_int(1) + f3.from_int(2)).is_zero()

    def test_f9_root_squares_to_minus_one(self):
        f9 = Field(3, 2)
        x = f9.element([0, 1])
        assert (x * x).encode() == 2

    def test_inverse_in_f5(self):
        f5 = Field(5, 1)
        assert f5.from_int(2).inverse().encode() == 3
        assert (f5.from_int(1) / f5.from_int(2)).encode() == 3

    def test_division_by_zero(self):
        f5 = Field(5, 1)
        with pytest.raises(ZeroDivisionError):
            f5.one() / f5.zero()

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            Field(5, 1).one() + Field(7, 1).one()

    def test_pow(self):
        f13 = Field(13, 1)
        assert (f13.from_int(2) ** 9).encode() == 5
        assert (f13.from_int(7) ** 0) == f13.one()

    @pytest.mark.parametrize("p", [5, 13, 65521])
    def test_prime_field_pow_matches_repeated_multiplication(self, p):
        fld = Field(p, 1)
        one = fld.one()
        for code in (0, 1, 2, p - 1, p // 3):
            x = fld.from_int(code)
            inv = fld.from_int(pow(code, -1, p)) if code else None
            assert inv is None or x * inv == one
            for e in range(-5, 12):
                if e < 0 and inv is None:
                    with pytest.raises(ZeroDivisionError):
                        x ** e
                    continue
                expected = one
                for _ in range(abs(e)):
                    expected = expected * (x if e >= 0 else inv)
                assert x ** e == expected, (code, e)

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
            if code:
                assert x ** -3 * x ** 3 == one

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
        factors = any_field.gen.order_factorization
        total = 1
        for prime, mult in factors.items():
            total *= prime**mult
        assert total == any_field.q - 1


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
    def test_bsgs(self, p):
        # the largest prime below 2^16 and the smallest above it
        fld = Field(p, 1)
        gen = find_generator(fld)
        for e in (0, 1, 12345, p - 2):
            assert index_of(gen.g ** e, gen) == e


class TestQuarticClass:
    def test_matches_index_of(self, any_field):
        fld = any_field.field
        q = fld.q
        d = gcd(4, q - 1)
        # g^(q-2) = g^-1 generates too, and reverses every class
        inverse_g = find_generator(fld, override=(any_field.gen.g ** (q - 2)).encode())
        for gen in (any_field.gen, inverse_g):
            assert len(gen.class_roots) == d
            for code in range(1, q):
                x = fld.from_int(code)
                assert quartic_class(x, gen) == index_of(x, gen) % d, (gen.g, code)

    @pytest.mark.parametrize("p, m", [(65537, 1), (3, 12), (7, 7)])
    def test_matches_bsgs(self, p, m):
        fld = Field(p, m)
        gen = find_generator(fld)
        d = gcd(4, fld.q - 1)
        samples = [fld.from_int(code) for code in range(1, fld.q, fld.q // 5)]
        samples += [gen.g ** e for e in (1, 2, 3, 12345)]
        for x in samples:
            assert quartic_class(x, gen) == index_of(x, gen) % d, x


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


    def test_trace_table_matches_trace(self, any_field):
        fld = any_field.field
        table = trace_table(fld)
        assert [int(t) for t in table] == [trace(x) for x in fld.elements()]


class TestAdditionTable:
    def test_matches_element_addition(self, any_field):
        fld = any_field.field
        table = field_module._addition_tables(fld)
        els = list(fld.elements())
        assert all(table[a.encode(), b.encode()] == (a + b).encode()
                   for a in els for b in els)

    def test_cache_evicts_oldest_past_byte_guard(self, monkeypatch):
        builds = []
        build = field_module._addition_tables

        def counted(fld):
            builds.append(fld.q)
            return build(fld)
        f5, f7, f9 = Field(5, 1), Field(7, 1), Field(3, 2)
        itemsize = np.dtype(np.intp).itemsize
        monkeypatch.setattr(field_module, "_addition_tables", counted)
        monkeypatch.setattr(field_module, "_ADD_TABLE_CACHE", {})
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD",
                            (7**2 + 9**2) * itemsize)

        def touch(fld):
            delta = [1] + [0] * (fld.q - 1)
            field_module._group_convolve(fld, delta, delta)
            return list(field_module._ADD_TABLE_CACHE)
        assert touch(f5) == [f5]
        assert touch(f7) == [f5, f7]
        assert touch(f9) == [f7, f9]
        assert touch(f7) == [f7, f9]
        assert touch(f5) == [f9, f5]
        assert builds == [5, 7, 9, 5]


class TestPrimeSubfieldResidue:
    def test_scalar(self):
        f9 = Field(3, 2)
        assert prime_subfield_residue(f9.from_int(2)) == 2

    def test_non_scalar_raises(self):
        f9 = Field(3, 2)
        with pytest.raises(NotInPrimeSubfieldError):
            prime_subfield_residue(f9.element([0, 1]))

    def test_f25_fourth_root_of_unity(self):
        f25 = Field(5, 2)
        gen = find_generator(f25)
        zeta = prime_subfield_residue(gen.g ** (3 * 24 // 4))
        assert (zeta * zeta) % 5 == 4  # zeta^2 = -1 mod 5
