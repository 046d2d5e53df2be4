"""Solution counts: oracle, closed forms, cyclotomic transfer matrices, twisted forms."""

import ast
import itertools
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy

from diagquartic import counting, field, genfunc
from diagquartic.counting import (
    ORACLE_COST_GUARD,
    count_M,
    count_N,
    count_small,
    count_via_cyclotomy,
    oracle_count,
    oracle_histogram,
    oracle_histograms,
    power_profile,
)
from diagquartic.cyclotomy import quartic_decomposition, transfer_matrices
from diagquartic.errors import (
    FieldMismatchError,
    InvariantError,
    QuarticYError,
    TooLargeError,
    WrongResidueClassError,
    ZeroRHSError,
)

from diagquartic.field import Field, find_generator, quartic_class

from conftest import field_data, literal_histogram


class TestPowerProfile:
    def test_q5_quartics(self):
        fd = field_data(5, 1)
        assert power_profile(fd.field).tolist() == [1, 4, 0, 0, 0]

    # q = 1 mod 8 (17, 3^2, 7^2, 3^4, 73^2), q = 5 mod 8 (5, 13, 5^3) and q = 3 mod 4
    # (7, 11, 3^3, 3^5), with m = 1..5
    @pytest.mark.parametrize("p, m", [(5, 1), (13, 1), (17, 1), (7, 1), (11, 1), (3, 2),
                                      (7, 2), (3, 3), (5, 3), (3, 4), (3, 5), (73, 2)],
                             ids=lambda pm: str(pm))
    def test_matches_the_literal_histogram(self, p, m):
        fld = Field(p, m)
        literal = [0] * fld.q
        for x in fld.elements():
            literal[(x ** 4).encode()] += 1
        assert power_profile(fld).tolist() == literal

    @staticmethod
    def _build_peak(fld):
        """tracemalloc's peak over one build; numpy reports its buffers to it."""
        power_profile(Field(5, 1))  # numpy's first-use allocations stay out of the peak
        tracemalloc.start()
        try:
            power_profile(fld)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_working_memory_stays_below_two_digit_arrays(self):
        # On 3^10 (a 4.7 MB digit array) squaring the whole digit array at once
        # peaked at 19.0 MB; in row blocks it peaks at 6.3 MB: the digit array, the
        # squares and a few blocks.
        fld = Field(3, 10)
        assert self._build_peak(fld) < 2 * fld.q * fld.m * 8

    def test_working_memory_on_a_prime_field_stays_below_four_q_arrays(self):
        # on F_65537 the digit array is one column, so the q-length arrays set the peak:
        # the digits, the squares, their gather and the histogram, 8 bytes an entry
        fld = Field(65537, 1)
        assert self._build_peak(fld) < 4 * fld.q * 8

    def test_q13_quartics(self):
        fd = field_data(13, 1)
        counts = power_profile(fd.field)
        quartics = {i for i in range(1, 13) if counts[i] == 4}
        assert quartics == {1, 3, 9}
        assert counts[0] == 1

    def test_q7_degenerates_to_squares(self):
        fd = field_data(7, 1)
        counts = power_profile(fd.field)
        assert set(counts[1:]) == {0, 2}
        assert {i for i in range(1, 7) if counts[i] == 2} == {1, 2, 4}

    def test_total_mass(self, any_field):
        assert sum(power_profile(any_field.field)) == any_field.q

    @staticmethod
    def _row_replaced(monkeypatch, row, by):
        digits = counting._digits

        def mutant(fld):
            rows = digits(fld).copy()
            rows[row] = rows[by]
            return rows
        monkeypatch.setattr(counting, "_digits", mutant)

    def test_broken_residue_rule_raises(self, monkeypatch):
        # x = 2 read as 1 in F_13 puts 5 fourth roots on 1 and 3 on 2^4 = 3
        self._row_replaced(monkeypatch, 2, 1)
        with pytest.raises(InvariantError, match="4-th power residue rule in F_13"):
            power_profile(Field(13, 1))

    def test_second_root_of_zero_raises(self, monkeypatch):
        # x = 2, no square in F_13, read as 0: x^2 = 0 there and nowhere else but at 0
        self._row_replaced(monkeypatch, 2, 0)
        with pytest.raises(InvariantError, match="x\\^4 has 2 roots of 0 in F_13"):
            power_profile(Field(13, 1))

    def test_quadratic_character(self, any_field):
        # ind_g(c) is even exactly on the squares; for q = 3 mod 4 the class is
        # ind_g(c) mod 2, so class 0 is the squares (the test `gf_N` makes)
        fd = any_field
        squares = {(x * x).encode() for x in fd.field.elements() if not x.is_zero()}
        for code in range(1, fd.q):
            cls = quartic_class(fd.field.from_int(code), fd.gen)
            is_square = cls == 0 if fd.q % 4 == 3 else cls % 2 == 0
            assert is_square == (code in squares), (fd.q, code, cls)


class TestOracle:
    def test_q5_pairs(self):
        fd = field_data(5, 1)
        one = fd.field.one()
        assert oracle_count([one, one], fd.field.zero()) == 1
        assert oracle_count([one, fd.field.from_int(2)], fd.field.zero()) == 1

    def test_q5_triple(self):
        fd = field_data(5, 1)
        one = fd.field.one()
        assert oracle_count([one] * 3, one) == 12

    @pytest.mark.parametrize("p, m, n", [(5, 1, 1), (5, 1, 2), (5, 1, 3),
                                         (13, 1, 2), (3, 2, 2), (7, 1, 3),
                                         (7, 2, 2)])
    def test_convolution_matches_literal_enumeration(self, p, m, n):
        fd = field_data(p, m)
        coeffs = [fd.field.one()] * n
        assert oracle_histogram(fd.field, coeffs) == literal_histogram(coeffs)

    def test_general_coefficients(self):
        # the k-th coefficient from class d - 1 - k, so that each form mixes classes
        for p, m, n in [(13, 1, 3), (3, 2, 3), (7, 1, 2), (7, 2, 2), (3, 3, 2), (5, 3, 2)]:
            fd = field_data(p, m)
            d = 4 if fd.q % 4 == 1 else 2
            by_class = {quartic_class(x, fd.gen): x for x in list(fd.field.elements())[1:]}
            coeffs = [by_class[d - 1 - k] for k in range(n)]
            assert oracle_histogram(fd.field, coeffs) == literal_histogram(coeffs), (fd.q, n)

    @pytest.mark.parametrize("pm, classes", [((13, 1), [1, 0, 1]), ((3, 2), [1, 0, 0, 1]),
                                             ((5, 1), [3, 2, 3, 2, 3])],
                             ids=["q=13", "q=9", "q=5"])
    def test_repeated_coefficients_scale_once(self, monkeypatch, pm, classes):
        fd = field_data(*pm)
        coeffs = [fd.gen.g ** l for l in classes]
        built = []
        times_matrix = counting._times_matrix

        def counted(a):
            built.append(a.encode())
            return times_matrix(a)
        monkeypatch.setattr(counting, "_times_matrix", counted)
        hists = list(counting.oracle_histograms(fd.field, coeffs))
        assert sorted(built) == sorted({a.encode() for a in coeffs})
        assert hists[-1] == literal_histogram(coeffs)
        assert hists[1] == literal_histogram(coeffs[:2])

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError):
            oracle_histogram(field_data(5, 1).field, [])

    def test_one_variable_past_the_addition_table_guard(self, monkeypatch):
        # F_5801's q x q table is past the byte guard, but one variable runs no
        # convolution: its histogram is the x^4 profile, and no table is built
        monkeypatch.setattr(field, "_TABLES", {})
        fld = Field(5801, 1)
        assert oracle_histogram(fld, [fld.one()]) == power_profile(fld).tolist()
        assert ("add", fld) not in field._TABLES

    def test_no_variables_rejected_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        script = ("from diagquartic.counting import oracle_histogram\n"
                  "from diagquartic.field import Field\n"
                  "try:\n"
                  "    oracle_histogram(Field(5, 1), [])\n"
                  "except ValueError:\n"
                  "    print('ValueError')\n")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-O", "-c", script], cwd=src,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout.strip()) == (0, "ValueError"), done.stderr

    def test_package_has_no_assert(self):
        # every runtime self-check of the package must survive python -O
        src = Path(__file__).resolve().parents[1] / "src" / "diagquartic"
        found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_package_has_one_power_loop(self):
        # field._powmod is the one loop over the bits bin(n) of an exponent
        src = Path(__file__).resolve().parents[1] / "src" / "diagquartic"
        found = [f"{path.stem}.{fn.name}" for path in sorted(src.glob("*.py"))
                 for fn in ast.walk(ast.parse(path.read_text()))
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "bin"
                         for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.comprehension))
                         for call in ast.walk(loop.iter))]
        assert found == ["field._powmod"]

    def test_package_has_two_product_kernels(self):
        # every `_powmod` call passes `_mulmod` (F_p[x]/(f) and Z[x]/(P)) or `_gmul`
        # (F_p[i]) as its product, so a third product kernel fails here
        src = Path(__file__).resolve().parents[1] / "src" / "diagquartic"
        calls = [(f"{path.stem}:{call.lineno}", getattr(call.args[2], "id", None))
                 for path in sorted(src.glob("*.py"))
                 for call in ast.walk(ast.parse(path.read_text()))
                 if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_powmod"]
        assert calls and all(mul in ("_mulmod", "_gmul") for _, mul in calls), calls

    def test_package_has_no_unused_private_name(self):
        # every private module-level function, class or constant is named somewhere
        # in the package besides its own definition
        src = Path(__file__).resolve().parents[1] / "src" / "diagquartic"
        named, defined = set(), []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    targets = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                              else [node.target]) if isinstance(t, ast.Name)]
                else:
                    targets = []
                defined += [f"{path.name}:{name}" for name in targets
                            if name.startswith("_") and not name.startswith("__")]
        assert [d for d in defined if d.split(":")[1] not in named] == []

    def test_addition_table_memory_guard(self):
        # 2 q^2 passes the cost guard, but the q x q table would take 3.7 GiB
        fld = Field(22349, 1)
        assert 2 * fld.q**2 <= ORACLE_COST_GUARD
        with pytest.raises(TooLargeError):
            oracle_histogram(fld, [fld.one(), fld.one()])

    def test_guard_fires_before_any_allocation(self, monkeypatch):
        # F_5801's q x q table is past the byte guard (q <= 5792) while 2 q^2 is
        # within the cost guard; the digits, which the scaling and the gather
        # read first, must not be built
        fld = Field(5801, 1)
        assert 2 * fld.q**2 <= ORACLE_COST_GUARD

        def refuse(fld):
            raise RuntimeError("digits built before the guard")
        monkeypatch.setattr(counting, "_digits", refuse)
        monkeypatch.setattr(field, "_digits", refuse)
        with pytest.raises(TooLargeError):
            next(oracle_histograms(fld, [fld.one(), fld.one()]))
        assert ("add", fld) not in field._TABLES

    @pytest.mark.parametrize("n", [18, 25])
    def test_exact_past_int64(self, n):
        # on q = 13 the oracle's last convolution leaves int64 from n = 18 on, its
        # bound 13^(n-1) * 13 past 2^63; N_25(c) is about 13^24 > 2^63 itself:
        # all three routes stay exact
        fd = field_data(13, 1)
        one = fd.field.one()
        reps = [0] + [next(code for code in range(1, 13)
                           if quartic_class(fd.field.from_int(code), fd.gen) == i)
                      for i in range(4)]
        hist = oracle_histogram(fd.field, [one] * n)
        assert sum(hist) == 13**n >= 2**63
        for code in reps:
            c = fd.field.from_int(code)
            assert type(hist[code]) is int
            assert hist[code] > 2**63 or n < 25
            assert count_N(c, n, fd.field, fd.gen, fd.dec) == hist[code], code
            assert count_via_cyclotomy(c, n, fd.field, fd.gen) == hist[code], code


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda fd: list(oracle_histograms(fd.field, [fd.field.one(), fd.field.zero()])),
         "must be nonzero"),
        (lambda fd: count_small(fd.field.one(), 5, fd.dec, fd.field, fd.gen), "1..4"),
        (lambda fd: count_N(fd.field.one(), 0, fd.field, fd.gen), "must be positive"),
        (lambda fd: count_via_cyclotomy(fd.field.one(), 0, fd.field, fd.gen),
         "must be positive"),
    ], ids=["oracle-zero-coefficient", "count-small-n5", "count-N-n0", "cyclotomy-n0"])
    def test_rejects_out_of_range_input(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(field_data(13, 1))


class TestClosedForms:
    def test_pinned_values(self):
        fd5 = field_data(5, 1)
        one5 = fd5.field.one()
        assert count_small(one5, 3, fd5.dec, fd5.field, fd5.gen) == 12
        assert count_small(one5, 4, fd5.dec, fd5.field, fd5.gen) == 16
        fd13 = field_data(13, 1)
        assert count_small(fd13.field.one(), 2, fd13.dec, fd13.field, fd13.gen) == 8

    def test_matches_oracle_everywhere(self, field_1mod4):
        fd = field_1mod4
        for code in range(1, fd.q):
            c = fd.field.from_int(code)
            for n in range(1, 5):
                assert (count_small(c, n, fd.dec, fd.field, fd.gen)
                        == fd.oracle_N(code, n)), (fd.q, code, n)

    def test_zero_rhs_rejected(self):
        fd = field_data(5, 1)
        with pytest.raises(ZeroRHSError):
            count_small(fd.field.zero(), 2, fd.dec, fd.field, fd.gen)

    def test_wrong_residue_class(self):
        fd = field_data(7, 1)
        from diagquartic.cyclotomy import QuarticDecomposition
        with pytest.raises(WrongResidueClassError):
            count_small(fd.field.one(), 2, QuarticDecomposition(1, 1),
                        fd.field, fd.gen)


class TestCountN:
    def test_oracle_equivalence(self, any_field):
        fd = any_field
        for code in range(fd.q):
            c = fd.field.from_int(code)
            for n in range(1, 9):
                assert count_N(c, n, fd.field, fd.gen, fd.dec) == fd.oracle_N(code, n)

    def test_pinned(self):
        fd5 = field_data(5, 1)
        assert count_N(fd5.field.zero(), 5, fd5.field, fd5.gen, fd5.dec) == 1025
        assert count_N(fd5.field.zero(), 2, fd5.field, fd5.gen, fd5.dec) == 1
        fd7 = field_data(7, 1)
        assert count_N(fd7.field.one(), 2, fd7.field, fd7.gen) == 8

    def test_class_invariance(self, field_1mod4):
        fd = field_1mod4
        from diagquartic.field import index_of
        for code in range(1, fd.q):
            c = fd.field.from_int(code)
            rep = fd.gen.g ** (index_of(c, fd.gen) % 4)
            for n in range(1, 6):
                assert (count_N(c, n, fd.field, fd.gen, fd.dec)
                        == count_N(rep, n, fd.field, fd.gen, fd.dec))

    def test_total_mass(self, any_field):
        fd = any_field
        for n in (1, 3, 5):
            total = sum(count_N(fd.field.from_int(code), n, fd.field, fd.gen, fd.dec)
                        for code in range(fd.q))
            assert total == fd.q**n


TRANSFER_FIELDS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (29, 1), (41, 1),
                   (7, 2), (3, 4), (65537, 1), (65519, 1)]


class TestCyclotomicRoute:
    def test_pinned(self):
        fd = field_data(13, 1)
        one = fd.field.one()
        assert count_via_cyclotomy(one, 1, fd.field, fd.gen) == 4
        assert count_via_cyclotomy(one, 2, fd.field, fd.gen) == 8
        fd5 = field_data(5, 1)
        assert count_via_cyclotomy(fd5.field.one(), 4, fd5.field, fd5.gen) == 16

    def test_matches_oracle(self, any_field):
        # every c, c = 0 included, and M_n(y) at one y per non-quartic class
        fd = any_field
        for n in range(1, 7):
            for code in range(fd.q):
                assert (count_via_cyclotomy(fd.field.from_int(code), n, fd.field, fd.gen)
                        == fd.oracle_N(code, n)), (fd.q, code, n)
            for l in range(1, len(fd.gen.class_roots)):
                y = fd.gen.g ** l
                if n >= 2:
                    assert (count_via_cyclotomy(fd.field.zero(), n, fd.field, fd.gen, y)
                            == fd.oracle_M(y, n)), (fd.q, l, n)

    @pytest.mark.parametrize("p, m", [(13, 1), (7, 1), (3, 2)])
    def test_twisted_form_at_every_c(self, p, m):
        fd = field_data(p, m)
        one = fd.field.one()
        for l in range(1, len(fd.gen.class_roots)):
            y = fd.gen.g ** l
            for n in range(1, 5):
                hist = oracle_histogram(fd.field, [one] * (n - 1) + [y])
                assert [count_via_cyclotomy(fd.field.from_int(code), n, fd.field, fd.gen, y)
                        for code in range(fd.q)] == hist, (fd.q, l, n)

    @pytest.mark.parametrize("p, m", TRANSFER_FIELDS,
                             ids=[f"q={p ** m}" for p, m in TRANSFER_FIELDS])
    def test_transfer_matrices_share_the_denominator(self, p, m):
        # det(I - x A_l) = (1 - qx) times the denominator of gf_N, for every l;
        # that denominator is 1 + qx^2 when q = 3 mod 4
        fld = Field(p, m)
        gen = find_generator(fld)
        q = fld.q
        den = (genfunc.denominator(q, quartic_decomposition(fld, gen).s) if q % 4 == 1
               else (1, 0, q))
        expected = [a - q * b for a, b in zip(den + (0,), (0,) + den)]
        for l, step in enumerate(transfer_matrices(fld, gen, len(gen.class_roots))):
            # det(t I - A) = t^(d+1) + c_1 t^d + ... read high to low is det(I - x A)
            # read low to high
            assert sympy.Matrix(step.tolist()).charpoly().all_coeffs() == expected, (q, l)

    @pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (3, 2), (13, 1)],
                             ids=["q=5", "q=7", "q=9", "q=13"])
    def test_mixed_class_products_match_the_oracle(self, p, m):
        # A_(l_n) ... A_(l_1) e_0 holds the zeros of g^(l_1) x_1^4 + ... + g^(l_n) x_n^4
        # = c at c = 0 and at every c of each class C_j, for every class vector
        # (l_1, ..., l_n) of length 2 and 3
        fd = field_data(p, m)
        steps = transfer_matrices(fd.field, fd.gen, len(fd.gen.class_roots))
        d = len(steps)
        cls = [None] + [quartic_class(fd.field.from_int(code), fd.gen)
                        for code in range(1, fd.q)]
        for ls in itertools.chain(itertools.product(range(d), repeat=2),
                                  itertools.product(range(d), repeat=3)):
            state = np.array([1] + [0] * d, dtype=object)
            for l in ls:
                state = steps[l] @ state
            hist = oracle_histogram(fd.field, [fd.gen.g ** l for l in ls])
            assert [state[0] if code == 0 else state[1 + cls[code]]
                    for code in range(fd.q)] == hist, (fd.q, ls)

    def test_past_the_convolution_guard(self):
        # q = 3 mod 4 and q > 2^16: the matrix route matches the series where no
        # convolution can run
        fld = Field(65519, 1)
        gen = find_generator(fld)
        for c in (fld.zero(), fld.one(), gen.g):
            assert count_via_cyclotomy(c, 1000, fld, gen) == count_N(c, 1000, fld, gen)
        assert (count_via_cyclotomy(fld.zero(), 1000, fld, gen, gen.g)
                == count_M(gen.g, 1000, fld, gen))


class TestCountM:
    def test_pinned(self):
        fd5 = field_data(5, 1)
        y = fd5.field.from_int(2)
        assert count_M(y, 2, fd5.field, fd5.gen, fd5.dec) == 1
        assert count_M(y, 3, fd5.field, fd5.gen, fd5.dec) == 1
        fd7 = field_data(7, 1)
        assert count_M(fd7.field.from_int(3), 2, fd7.field, fd7.gen) == 13

    def test_quartic_y_rejected(self, any_field):
        fd = any_field
        with pytest.raises(QuarticYError):
            count_M(fd.field.one(), 2, fd.field, fd.gen, fd.dec)
        with pytest.raises(QuarticYError):
            count_M(fd.field.zero(), 2, fd.field, fd.gen, fd.dec)

    def test_matches_oracle(self, any_field):
        fd = any_field
        for code in range(1, fd.q):
            y = fd.field.from_int(code)
            if quartic_class(y, fd.gen) == 0:
                continue
            for n in range(2, 9):
                assert count_M(y, n, fd.field, fd.gen, fd.dec) == fd.oracle_M(y, n), \
                    (fd.q, code, n)

    def test_relation_to_count_N(self, any_field):
        # M_n(y) = N_{n-1}(0) + (q-1) N_{n-1}(-y), for every q
        fd = any_field
        q = fd.q
        for code in range(1, q):
            y = fd.field.from_int(code)
            if quartic_class(y, fd.gen) == 0:
                continue
            for n in (2, 4, 6):
                expected = (count_N(fd.field.zero(), n - 1, fd.field, fd.gen, fd.dec)
                            + (q - 1) * count_N(-y, n - 1, fd.field, fd.gen, fd.dec))
                assert count_M(y, n, fd.field, fd.gen, fd.dec) == expected



class TestFieldMismatch:
    def test_generator_element_and_field_must_agree(self):
        # counts read q from the Field argument, so F_13 with F_17's generator
        # gave 256 for N_3(3) (true 160) and 385 for M_3(3) (true 577)
        fd = field_data(17, 1)
        other = Field(13, 1)
        x, x13 = fd.field.from_int(3), other.from_int(3)
        calls = [lambda: count_small(x, 3, fd.dec, other, fd.gen),
                 lambda: count_small(x13, 3, fd.dec, fd.field, fd.gen),
                 lambda: quartic_decomposition(other, fd.gen),
                 lambda: genfunc.gf_N(other, fd.gen, fd.dec, x),
                 lambda: genfunc.gf_M(other, fd.gen, fd.dec, x)]
        for dec in (fd.dec, None):
            calls += [lambda dec=dec: count_N(x, 3, other, fd.gen, dec),
                      lambda dec=dec: count_M(x, 3, other, fd.gen, dec),
                      lambda dec=dec: count_M(x13, 3, fd.field, fd.gen, dec)]
        for call in calls:
            with pytest.raises(FieldMismatchError):
                call()
        assert count_N(x, 3, fd.field, fd.gen, fd.dec) == 160
        assert count_M(x, 3, fd.field, fd.gen, fd.dec) == 577

    def test_oracle_coefficients_must_be_of_its_field(self):
        # 7 under the modulus x^2 + 3 is another element than 7 under x^2 + 2, and
        # F_7's digits do not fit F_25's multiplication matrix
        f25, other = Field(5, 2), Field(5, 2, modulus=(3, 0, 1))
        assert f25.modulus == (2, 0, 1)
        for stranger in (other.from_int(7), Field(7, 1).from_int(3)):
            with pytest.raises(FieldMismatchError):
                oracle_histogram(f25, [f25.one(), stranger])
        assert sum(oracle_histogram(f25, [f25.one(), f25.from_int(7)])) == 25**2
