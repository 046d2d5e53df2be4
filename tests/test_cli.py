"""CLI subcommands: output schema, agreement checks, exit codes."""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diagquartic import cli, counting, expsums, genfunc
from diagquartic.cli import build_parser, main
from diagquartic.errors import InvariantError, NotNearIntegerError
from diagquartic.field import Field, find_generator


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestFieldCommand:
    def test_q13(self, capsys):
        code, out = run(capsys, "field", "--p", "13", "--m", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["q"], payload["g"]) == (13, 2)
        assert (payload["s"], payload["t"], payload["f_parity"]) == (-3, -1, "odd")

    def test_q9(self, capsys):
        code, out = run(capsys, "field", "--p", "3", "--m", "2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["q"], payload["s"], payload["t"]) == (9, -3, 0)

    def test_invalid_p_exits_2(self, capsys):
        assert run(capsys, "field", "--p", "4", "--m", "1")[0] == 2

    def test_generator_override(self, capsys):
        code, out = run(capsys, "field", "--p", "13", "--generator", "6", "--json")
        assert code == 0
        assert json.loads(out)["g"] == 6

    def test_bad_generator_override(self, capsys):
        assert run(capsys, "field", "--p", "13", "--generator", "3")[0] == 2

    def test_modulus_override(self, capsys):
        code, out = run(capsys, "field", "--p", "3", "--m", "2",
                        "--modulus", "2,2,1", "--json")
        assert code == 0
        assert json.loads(out)["modulus"] == [2, 2, 1]

    def test_reducible_modulus_rejected(self, capsys):
        assert run(capsys, "field", "--p", "3", "--m", "2",
                   "--modulus", "0,0,1")[0] == 2


class TestCyclotomicCommand:
    def test_table_schema_and_agreement(self, capsys):
        code, out = run(capsys, "cyclotomic", "--p", "13", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"q", "g", "s", "t", "f_parity", "entries"}
        assert len(payload["entries"]) == 16
        assert all(e["closed"] == e["enumerated"] for e in payload["entries"])

    def test_q3_mod4_rejected(self, capsys):
        assert main(["cyclotomic", "--p", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: WrongResidueClassError: ")

    def test_wrong_t_exits_1_with_witness(self, capsys):
        # q = 13 has (s, t) = (-3, -1); t + 1 makes (0, 1)_4 non-integral
        code, out = run(capsys, "cyclotomic", "--p", "13", "--break-t", "--json")
        assert code == 1
        failure = json.loads(out)["first_failure"]
        assert (failure["i"], failure["j"], failure["s"], failure["t"]) == (0, 1, -3, 0)
        assert failure["closed"] is None and failure["enumerated"] == 1


class TestCountCommand:
    def test_all_methods_agree(self, capsys):
        code, out = run(capsys, "count", "--p", "5", "--m", "1", "--c", "1",
                        "--n", "3", "--all-methods", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["count"] == "12"
        assert set(payload["methods"]) == {"oracle", "series", "closed",
                                           "cyclotomy", "expsum"}

    @pytest.mark.parametrize("argv", [["--c", "2", "--n", "4"], ["--y", "2", "--n", "4"]],
                             ids=["c", "y"])
    def test_all_methods_timed(self, capsys, argv):
        code, out = run(capsys, "count", "--p", "13", *argv, "--all-methods", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["seconds"]) == set(payload["methods"])
        assert all(isinstance(s, float) and s >= 0 for s in payload["seconds"].values())

    def test_single_method(self, capsys):
        code, out = run(capsys, "count", "--p", "7", "--c", "1", "--n", "2", "--json")
        assert code == 0
        assert json.loads(out)["count"] == "8"

    def test_twisted(self, capsys):
        code, out = run(capsys, "count", "--p", "5", "--y", "2", "--n", "2", "--json")
        assert code == 0
        assert json.loads(out)["count"] == "1"
        assert json.loads(out)["method"] == "series"

    def test_twisted_oracle_method(self, capsys, monkeypatch):
        def series_must_not_run(*args):
            raise AssertionError("count_M called for --method oracle")
        monkeypatch.setattr(counting, "count_M", series_must_not_run)
        code, out = run(capsys, "count", "--p", "7", "--y", "3", "--n", "3",
                        "--method", "oracle", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["method"], payload["count"]) == ("oracle", "49")

    def test_twisted_all_methods(self, capsys):
        code, out = run(capsys, "count", "--p", "13", "--y", "2", "--n", "4",
                        "--all-methods", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["methods"] == {"oracle": "2689", "series": "2689"}
        assert (payload["agree"], payload["count"]) == (True, "2689")

    def test_twisted_all_methods_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "count_M", lambda *args: 0)
        code, out = run(capsys, "count", "--p", "13", "--y", "2", "--n", "4",
                        "--all-methods", "--json")
        assert code == 1
        assert json.loads(out)["agree"] is False

    def test_counts_are_decimal_strings(self, capsys):
        code, out = run(capsys, "count", "--p", "5", "--c", "0", "--n", "30", "--json")
        payload = json.loads(out)
        assert code == 0
        assert isinstance(payload["count"], str)
        assert int(payload["count"]) > 2**63  # needs arbitrary precision


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["count", "--p", "5", "--n", "3"],
        ["count", "--p", "5", "--c", "1", "--y", "2", "--n", "3"],
        ["count", "--p", "7", "--c", "1", "--n", "2", "--method", "closed"],
        ["series", "--p", "5", "--n", "-3"],
        ["count", "--p", "5", "--c", "1", "--n", "0"],
        ["verify", "--p", "5", "--nmax", "1"],
        ["count", "--p", "5", "--y", "2", "--n", "3", "--method", "closed"],
        ["count", "--p", "5", "--y", "2", "--n", "3", "--method", "cyclotomy"],
        ["count", "--p", "5", "--y", "2", "--n", "3", "--method", "expsum"],
        ["series", "--p", "5", "--c", "1", "--y", "2", "--n", "3"],
        ["count", "--p", "13", "--y", "3", "--n", "3", "--method", "oracle"],
        ["count", "--p", "13", "--y", "2", "--n", "1", "--method", "oracle"],
        ["verify", "--p", "6007", "--nmax", "2"],
    ], ids=["count-no-rhs", "count-c-and-y", "closed-q7",
            "series-n-neg", "count-n0", "verify-nmax1", "closed-y",
            "cyclotomy-y", "expsum-y", "series-c-and-y", "oracle-quartic-y",
            "oracle-y-n1", "verify-past-oracle-guard"])
    def test_exits_2(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2


    def test_verify_bounds_the_bits_of_the_counts(self, capsys, monkeypatch):
        # n*q^2 = 2.5e6 passes the cost guard, but the counts reach 5^n: the
        # histograms would take about 7 GB.  The guard fires before any convolution.
        monkeypatch.setattr(counting, "_group_convolve", _injected_defect)
        assert main(["verify", "--p", "5", "--nmax", "100000"]) == 2
        assert "TooLargeError" in capsys.readouterr().err


def _injected_defect(*args):
    raise InvariantError("injected defect")


@contextlib.contextmanager
def _digit_limit(digits: int):
    """The interpreter's int-to-str digit limit set to `digits` (0: none)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit to lift")
class TestLargeCounts:
    """Counts past the interpreter's default 4,300-digit int-to-str limit print
    in full, and `main` leaves the limit as it found it; past MAX_COUNT_DIGITS
    counts are refused before any work."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        with _digit_limit(4300):
            yield

    @pytest.mark.parametrize("p, c, n", [(65521, 1, 10000), (5, 0, 7000)],
                             ids=["q65521-n10000", "q5-c0-n7000"])
    def test_count_prints_in_full(self, capsys, p, c, n):
        code, out = run(capsys, "count", "--p", str(p), "--c", str(c), "--n", str(n),
                        "--json")
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300
        fld = Field(p, 1)
        expected = counting.count_N(fld.from_int(c), n, fld, find_generator(fld))
        with _digit_limit(0):
            assert json.loads(out)["count"] == str(expected)
            assert len(str(expected)) > 4300

    def test_series_prints_in_full(self, capsys):
        code, out = run(capsys, "series", "--p", "5", "--n", "7000", "--json")
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300
        fld = Field(5, 1)
        expected = genfunc.gf_N(fld, find_generator(fld), None, fld.zero()).series(7000)
        with _digit_limit(0):
            assert json.loads(out)["coefficients"] == [str(v) for v in expected]
            assert len(str(expected[-1])) == 4893

    @pytest.mark.parametrize("command", [["count", "--c", "1"], ["series"]],
                             ids=["count", "series"])
    def test_past_the_digit_bound_exits_2_at_once(self, capsys, monkeypatch, command):
        # 13^1000000 has 1,113,944 digits; converting it alone would take 23 s,
        # and the series would hold about 5e11 digits.  The bound fires before
        # any coefficient is computed (else the patches make the exit code 3).
        monkeypatch.setattr(genfunc.RationalGF, "coefficient", _injected_defect)
        monkeypatch.setattr(genfunc.RationalGF, "series", _injected_defect)
        t0 = time.perf_counter()
        assert main([*command, "--p", "13", "--n", "1000000"]) == 2
        assert time.perf_counter() - t0 < 1
        assert "TooLargeError" in capsys.readouterr().err
        assert sys.get_int_max_str_digits() == 4300

    def test_series_past_the_total_digit_bound_exits_2_at_once(self, capsys, monkeypatch):
        # each count below 5^143067 has at most 100,000 digits, but the 143,067
        # counts together would have about 7.2e9
        monkeypatch.setattr(genfunc.RationalGF, "series", _injected_defect)
        t0 = time.perf_counter()
        assert main(["series", "--p", "5", "--n", "143067"]) == 2
        assert time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert "TooLargeError" in err and f"{cli.MAX_SERIES_DIGITS} digits together" in err
        assert sys.get_int_max_str_digits() == 4300


class TestParser:
    COMMON = {"-h", "--help", "--p", "--m", "--generator", "--modulus", "--json"}

    def test_option_sets(self):
        subs = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
        options = {name: {opt for action in sub._actions for opt in action.option_strings}
                   for name, sub in subs.choices.items()}
        assert all(self.COMMON <= opts for opts in options.values())
        assert {name: opts - self.COMMON for name, opts in options.items()} == {
            "field": set(),
            "cyclotomic": {"--break-t"},
            "count": {"--c", "--y", "--n", "--method", "--all-methods"},
            "series": {"--c", "--y", "--n"},
            "verify": {"--nmax", "--expsums", "--seed", "--break-t"},
        }


class TestInternalErrors:
    @pytest.mark.parametrize("command", ["field", "verify"])
    def test_invariant_error_exits_3(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "quartic_decomposition", _injected_defect)
        assert run(capsys, command, "--p", "13")[0] == 3

    def test_invariant_error_in_verify_checks_exits_3(self, capsys, monkeypatch):
        # raised inside a field's checks, it is not filed as an aborted check
        monkeypatch.setattr(cli, "cyclotomic_number_quartic", _injected_defect)
        assert run(capsys, "verify", "--p", "13", "--json")[0] == 3


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, code", [
        (["field", "--p", "13", "--json"], 0),
        (["count", "--p", "5", "--n", "3"], 2),
    ], ids=["field-json", "usage-error"])
    def test_python_m(self, argv, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "diagquartic", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert json.loads(done.stdout)["q"] == 13


class TestSeriesCommand:
    def test_q5_c0(self, capsys):
        code, out = run(capsys, "series", "--p", "5", "--c", "0", "--n", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["1", "1", "1", "1", "1025"]
        assert payload["parts"][0] == {"num": [0, 1], "den": [1, -5]}

    def test_roundtrip_schema(self, capsys):
        _, out = run(capsys, "series", "--p", "13", "--c", "1", "--n", "4", "--json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


class TestVerifyCommand:
    def test_small_field_passes(self, capsys):
        code, out = run(capsys, "verify", "--p", "13", "--m", "1",
                        "--nmax", "8", "--expsums", "--json")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_small_nmax(self, capsys):
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "3", "--json")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert "q=13 oracle-equivalence n<=3" in names
        assert "q=13 closed-form n<=3" in names

    def test_wrong_t_hook_fails(self, capsys):
        code, out = run(capsys, "verify", "--p", "13", "--m", "1", "--break-t",
                        "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "FAIL"
        assert any("NonIntegral" in c.get("detail", "") for c in payload["checks"])

    def test_wrong_t_runs_every_check_with_witnesses(self, capsys, monkeypatch):
        # q = 13 has (s, t) = (-3, -1); t + 1 makes (0, 1)_4 non-integral
        builds = []
        gf_N = genfunc.gf_N

        def counted(fld, gen, dec, c):
            builds.append(c.encode())
            return gf_N(fld, gen, dec, c)
        monkeypatch.setattr(genfunc, "gf_N", counted)
        code, out = run(capsys, "verify", "--p", "13", "--break-t", "--nmax", "5",
                        "--json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert set(checks) == {"q=13 oracle-equivalence n<=5", "q=13 cyclotomic closed=enum",
                               "q=13 closed-form n<=4", "q=13 recurrence order 4",
                               "q=13 twisted counts"}
        oracle = checks["q=13 oracle-equivalence n<=5"]
        assert oracle["status"] == "FAIL"
        # c = 0 and c = 1 agree; c = 2, a non-square, first differs, at n = 2
        assert json.loads(oracle["detail"]) == {"c": 2, "n": 2, "series": "8",
                                                "oracle": "16"}
        assert builds[:3] == [0, 1, 2]  # one generating function per c
        cyclo = checks["q=13 cyclotomic closed=enum"]
        assert cyclo["status"] == "FAIL"
        failure = json.loads(cyclo["detail"])
        assert (failure["i"], failure["j"], failure["s"], failure["t"]) == (0, 1, -3, 0)
        assert failure["closed"] is None and failure["enumerated"] == "1"
        assert "NonIntegralError" in failure["detail"]

    def test_passing_checks_have_no_detail(self, capsys):
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "5", "--json")
        assert code == 0
        assert all(c["detail"] == "" for c in json.loads(out)["checks"])


    def test_every_failing_check_has_a_json_witness(self, capsys):
        # q = 13 has (s, t) = (-3, -1); the checks run with t + 1
        code, out = run(capsys, "verify", "--p", "13", "--break-t", "--nmax", "5",
                        "--json")
        assert code == 1
        payload = json.loads(out)
        checks = {c["name"]: c for c in payload["checks"]}
        assert json.loads(checks["q=13 closed-form n<=4"]["detail"]) == {
            "c": 2, "n": 2, "closed": "8", "oracle": "16"}
        # the series and the relation both read the wrong t; the oracle does not
        assert json.loads(checks["q=13 twisted counts"]["detail"]) == {
            "y": 2, "n": 5, "series": "26689", "oracle": "29185", "relation": "26689"}
        assert all(json.loads(c["detail"]) for c in checks.values() if c["status"] == "FAIL")
        # the field the witnesses reproduce on, with the t the checks used
        assert payload["fields"] == [{"p": 13, "m": 1, "q": 13, "modulus": [0, 1], "g": 2,
                                      "s": -3, "t": 0, "f_parity": "odd"}]

    def test_recurrence_checks_the_denominator_against_the_oracle(self, capsys,
                                                                   monkeypatch):
        denominator = genfunc.denominator

        def last_coefficient_off_by_q(q, s):
            *head, last = denominator(q, s)
            return (*head, last + q)
        monkeypatch.setattr(genfunc, "denominator", last_coefficient_off_by_q)
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "5", "--json")
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["q=13 recurrence order 4"]
        assert check["status"] == "FAIL"
        witness = json.loads(check["detail"])
        assert (witness["c"], witness["n"]) == (1, 5)
        assert witness["recurrence"] != witness["oracle"]

    def test_recurrence_needs_n_5(self, capsys):
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "4", "--json")
        assert code == 0
        assert not any("recurrence" in c["name"] for c in json.loads(out)["checks"])

    def test_wrong_gauss_sums_give_an_expsum_witness(self, capsys, monkeypatch):
        build_table = expsums.build_table

        def rotated(fld, gen):
            # the same four roots of the denominator, each on the wrong class
            table = build_table(fld, gen)
            table.T = table.T[1:] + table.T[:1]
            return table
        monkeypatch.setattr(expsums, "build_table", rotated)
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "5", "--expsums", "--json")
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if c["status"] == "FAIL"]
        assert [c["name"] for c in failed] == ["q=13 exponential sums"]
        witness = json.loads(failed[0]["detail"])
        assert set(witness) == {"c", "n", "expsum", "oracle", "max_residual"}
        assert witness["expsum"] != witness["oracle"]
        assert witness["max_residual"] == failed[0]["max_residual"] < 1e-6

    def test_error_in_one_check_fails_that_check_only(self, capsys, monkeypatch):
        def not_near_integer(*args):
            raise NotNearIntegerError("injected drift")
        monkeypatch.setattr(expsums, "reconstruct_N", not_near_integer)
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "5", "--expsums", "--json")
        assert code == 1
        checks = json.loads(out)["checks"]
        assert len(checks) == 6
        failed = [c for c in checks if c["status"] == "FAIL"]
        assert [c["name"] for c in failed] == ["q=13 exponential sums"]
        assert failed[0]["detail"] == "NotNearIntegerError: injected drift"
