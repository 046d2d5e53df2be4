"""Field construction, arithmetic, generators, indices, classes and traces."""

from math import gcd

import numpy as np
import pytest

from diagquartic import field as field_module
from diagquartic.cyclotomy import quartic_decomposition
from diagquartic.counting import count_M, count_N
from diagquartic.errors import (
    FieldMismatchError,
    FieldTooLargeError,
    InvariantError,
    NotInPrimeSubfieldError,
    NotPrimeError,
    ZeroHasNoIndexError,
)
from diagquartic.field import (
    Field,
    GeneratorData,
    factorize,
    find_generator,
    index_of,
    is_irreducible,
    log_table,
    minimal_irreducible,
    prime_subfield_residue,
    quartic_class,
    trace,
    trace_table,
)

from conftest import literal_product, literal_remainder


def _monic(p, m):
    """Every monic polynomial of degree m over F_p, constant term first."""
    return [[code // p**i % p for i in range(m)] + [1] for code in range(p**m)]


_MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1}


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

    @pytest.mark.parametrize("p, m", [(65537, 1), (3, 12)])
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
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD",
                            (7**2 + 9**2) * itemsize)

        def touch(fld):
            delta = [1] + [0] * (fld.q - 1)
            field_module._group_convolve(fld, delta, delta)
            return [f for _, f in field_module._TABLES]
        assert touch(f5) == [f5]
        assert touch(f7) == [f5, f7]
        assert touch(f9) == [f7, f9]
        assert touch(f7) == [f7, f9]
        assert touch(f5) == [f9, f5]
        assert builds == [5, 7, 9, 5]


class TestTableStore:
    def test_one_budget_evicts_oldest_across_kinds(self, monkeypatch):
        # 8-byte entries: an addition table holds q^2 of them, a log or trace
        # table q.  All ten tables take 1,136 bytes; the budget is 700.
        assert np.dtype(np.intp).itemsize == 8
        fields = {q: Field(p, m) for q, (p, m) in {5: (5, 1), 7: (7, 1), 9: (3, 2),
                                                 13: (13, 1)}.items()}
        gens = {q: find_generator(fld) for q, fld in fields.items()}
        builds = []

        def counted(kind, build, field_of):
            def wrapper(arg):
                builds.append((kind, field_of(arg).q))
                return build(arg)
            return wrapper
        for kind, name, field_of in [("add", "_addition_tables", lambda f: f),
                                     ("log", "_log_table", lambda g: g.field),
                                     ("trace", "_trace_table", lambda f: f)]:
            monkeypatch.setattr(field_module, name,
                                counted(kind, getattr(field_module, name), field_of))
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "ORACLE_TABLE_BYTES_GUARD", 700)

        def touch(kind, q):
            fld = fields[q]
            if kind == "add":
                delta = [1] + [0] * (q - 1)
                field_module._group_convolve(fld, delta, delta)
            elif kind == "log":
                log_table(fld, gens[q])
            else:
                trace_table(fld)
            store = field_module._TABLES
            assert sum(t.nbytes for t in store.values()) <= 700
            return [(k, (obj.field if k == "log" else obj).q) for k, obj in store]
        for step in [("add", 5), ("add", 7), ("log", 5), ("trace", 5)]:
            touch(*step)
        # 672 bytes; the next 56 evict the oldest table, an addition table
        assert touch("log", 7) == [("add", 7), ("log", 5), ("trace", 5), ("log", 7)]
        for step in [("trace", 7), ("log", 9)]:
            touch(*step)
        assert touch("trace", 9) == [("log", 5), ("trace", 5), ("log", 7),
                                     ("trace", 7), ("log", 9), ("trace", 9)]
        touch("log", 13)
        assert touch("trace", 13)[-2:] == [("log", 13), ("trace", 13)]
        # a hit neither builds nor moves its table; a rebuilt table evicts two
        assert touch("log", 5)[0] == ("log", 5)
        assert touch("add", 5) == [("log", 7), ("trace", 7), ("log", 9), ("trace", 9),
                                   ("log", 13), ("trace", 13), ("add", 5)]
        assert builds == [("add", 5), ("add", 7), ("log", 5), ("trace", 5), ("log", 7),
                          ("trace", 7), ("log", 9), ("trace", 9), ("log", 13),
                          ("trace", 13), ("add", 5)]
        assert all(not t.flags.writeable for t in field_module._TABLES.values())


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
