"""CLI subcommands: output schema, agreement checks, exit codes."""

import argparse
import contextlib
import dataclasses
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import diagquartic
from diagquartic import cli, counting, cyclotomy, expsums, genfunc
from diagquartic import field as field_module
from diagquartic.cli import build_parser, main
from diagquartic.cyclotomy import CyclotomicClasses, QuarticDecomposition
from diagquartic.errors import InvariantError, NonIntegralError
from diagquartic.field import Element, Field, find_generator, quartic_class

from conftest import field_data, split_off_count


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

    def test_wrong_t_exits_1_with_witness(self, capsys, monkeypatch):
        # q = 13 has (s, t) = (-3, -1); t + 1 makes (0, 1)_4 non-integral
        quartic_decomposition = cyclotomy.quartic_decomposition

        def wrong_t(fld, gen):
            dec = quartic_decomposition(fld, gen)
            return QuarticDecomposition(s=dec.s, t=dec.t + 1)
        monkeypatch.setattr(cyclotomy, "quartic_decomposition", wrong_t)
        code, out = run(capsys, "cyclotomic", "--p", "13", "--json")
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

    @pytest.mark.parametrize("rhs", [["--c", "1"], ["--c", "0"], ["--y", "2"]],
                             ids=["c", "c0", "y"])
    def test_all_methods_agree_under_a_degree_one_modulus(self, capsys, rhs):
        # x + 2 in place of x: F_5 and every count are the same, alpha = 3
        want = json.loads(run(capsys, "count", "--p", "5", *rhs, "--n", "3")[1])["count"]
        code, out = run(capsys, "count", "--p", "5", "--modulus", "2,1", *rhs, "--n", "3",
                        "--all-methods", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["methods"]) >= 3
        assert (payload["agree"], payload["count"]) == (True, want)

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

    def test_twisted_oracle_method(self, capsys, monkeypatch):
        # 3 = 2^4 in F_13: the series rejects y before the oracle route runs
        monkeypatch.setattr(counting, "_group_convolve", _injected_defect)
        assert main(["count", "--p", "13", "--y", "3", "--n", "3", "--all-methods"]) == 2
        assert "QuarticYError" in capsys.readouterr().err

    def test_twisted_all_methods(self, capsys):
        code, out = run(capsys, "count", "--p", "13", "--y", "2", "--n", "4",
                        "--all-methods", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["methods"] == {"oracle": "2689", "series": "2689", "cyclotomy": "2689"}
        assert (payload["agree"], payload["count"]) == (True, "2689")

    def test_twisted_all_methods_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "count_M", lambda *args: 0)
        code, out = run(capsys, "count", "--p", "13", "--y", "2", "--n", "4",
                        "--all-methods", "--json")
        assert code == 1
        assert json.loads(out)["agree"] is False

    def test_all_methods_past_the_convolution_guard(self, capsys):
        # 4 * 65537^2 is past the cost guard of 10^9, so the oracle sits out
        code, out = run(capsys, "count", "--p", "65537", "--c", "3", "--n", "4",
                        "--all-methods", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["methods"] == dict.fromkeys(
            ["series", "cyclotomy", "closed", "expsum"], "281488264665088")
        assert payload["agree"] is True

    @pytest.mark.parametrize("argv", [
        ["--p", "65519", "--c", "2", "--n", "3"],
        ["--p", "1048573", "--y", "2", "--n", "5"],
        ["--p", "65537", "--y", "3", "--n", "4"],
        ["--p", "7", "--m", "7", "--c", "0", "--n", "3"],
    ], ids=["q3mod4", "y-past-guard", "y-q1mod4", "c0-extension"])
    def test_all_methods_compare_past_the_convolution_guard(self, capsys, argv):
        # no oracle, closed form or expsum covers these counts; cyclotomy does
        code, out = run(capsys, "count", *argv, "--all-methods", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["methods"]) >= 2
        assert "cyclotomy" in payload["methods"]
        assert payload["agree"] is True

    @pytest.mark.parametrize("p, c", [("65537", "3"), ("5801", "1")])
    def test_all_methods_run_the_oracle_on_one_variable(self, capsys, p, c):
        # q^2 is past the cost guard and the q x q table past the byte guard, but
        # one variable needs neither a convolution nor the table
        code, out = run(capsys, "count", "--p", p, "--c", c, "--n", "1",
                        "--all-methods", "--json")
        assert code == 0
        payload = json.loads(out)
        assert "oracle" in payload["methods"]
        assert payload["agree"] is True

    def test_oracle_sits_out_past_the_table_guard(self, capsys, monkeypatch):
        # two variables on F_5801 read the q x q table, past the byte guard
        monkeypatch.setattr(counting, "_group_convolve", _injected_defect)
        code, out = run(capsys, "count", "--p", "5801", "--c", "1", "--n", "2",
                        "--all-methods", "--json")
        assert code == 0
        assert "oracle" not in json.loads(out)["methods"]

    def test_oracle_sits_out_past_the_cost_guard(self, capsys, monkeypatch):
        # n*q^2 = 30 * 5791^2 is just past the guard of 10^9
        monkeypatch.setattr(counting, "_group_convolve", _injected_defect)
        code, out = run(capsys, "count", "--p", "5791", "--c", "1", "--n", "30",
                        "--all-methods")
        assert code == 0
        assert set(json.loads(out)["methods"]) == {"series", "cyclotomy"}

    def test_all_methods_leave_out_expsum_past_its_precision_bound(self, capsys):
        # 13^16 > 2^50: the double rounded N_17(1) to 665532564937218688
        code, out = run(capsys, "count", "--p", "13", "--c", "1", "--n", "17",
                        "--all-methods", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["methods"]) == {"oracle", "series", "cyclotomy"}
        assert (payload["agree"], payload["count"]) == (True, "665532564937218628")

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
        ["series", "--p", "5", "--n", "-3"],
        ["count", "--p", "5", "--c", "1", "--n", "0"],
        ["verify", "--p", "5", "--nmax", "1"],
        ["series", "--p", "5", "--c", "1", "--y", "2", "--n", "3"],
        ["count", "--p", "13", "--y", "3", "--n", "3", "--all-methods"],
        ["count", "--p", "13", "--y", "2", "--n", "1", "--all-methods"],
        ["verify", "--p", "6007", "--nmax", "2"],
        ["field", "--p", "1000000000000000000000000000057"],
        ["verify", "--p", "0", "--nmax", "2"],
        ["verify", "--m", "3", "--nmax", "2"],
        ["verify", "--generator", "99", "--nmax", "2"],
        ["verify", "--modulus", "1,2,3", "--nmax", "2"],
        ["count", "--p", "5", "--c", "7", "--n", "2"],
        ["field", "--p", "5", "--generator", "0"],
        ["field", "--p", "5", "--m", "2", "--modulus", "1,x"],
        ["field", "--p", "5", "--m", "2", "--modulus", ",,"],
        ["count", "--p", "5", "--c", "1", "--n", "x"],
        ["verify", "--nmax", "y"],
    ], ids=["count-no-rhs", "count-c-and-y", "series-n-neg", "count-n0", "verify-nmax1",
            "series-c-and-y", "oracle-quartic-y", "oracle-y-n1", "verify-past-oracle-guard",
            "field-p-past-bound", "verify-p0", "verify-m-without-p",
            "verify-generator-without-p", "verify-modulus-without-p",
            "count-c-past-q", "field-generator-zero", "modulus-not-an-int",
            "modulus-empty-terms", "count-n-not-an-int", "verify-nmax-not-an-int"])
    def test_exits_2(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2

    @pytest.mark.parametrize("text", ["1,x", ",,"])
    def test_bad_modulus_names_the_format(self, capsys, text):
        assert main(["field", "--p", "5", "--m", "2", "--modulus", text]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --modulus: comma-separated integers, constant term first, "
            f"got {text!r}\n")

    @pytest.mark.parametrize("argv, expected", [
        (["count", "--p", "5", "--c", "1", "--n", "x"], "argument --n: an integer at least 1"),
        (["verify", "--nmax", "y"], "argument --nmax: an integer at least 2"),
    ], ids=["count-n", "verify-nmax"])
    def test_bad_integer_names_the_integer(self, capsys, argv, expected):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f"error: {expected}, got {argv[-1]!r}\n")

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


class TestOutput:
    @pytest.mark.parametrize("argv", [
        ["field", "--p", "13"],
        ["cyclotomic", "--p", "13"],
        ["count", "--p", "13", "--c", "2", "--n", "3"],
        ["series", "--p", "13", "--n", "4"],
    ], ids=["field", "cyclotomic", "count", "series"])
    def test_json_on_one_line_and_indented_with_json(self, capsys, argv):
        code, compact = run(capsys, *argv)
        assert code == 0
        assert compact.count("\n") == 1
        indented = json.dumps(json.loads(compact), indent=2) + "\n"
        assert run(capsys, *argv, "--json") == (0, indented)


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
            "cyclotomic": set(),
            "count": {"--c", "--y", "--n", "--all-methods"},
            "series": {"--c", "--y", "--n"},
            "verify": {"--nmax", "--expsums", "--break-t"},
        }


class TestDispatch:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_parser", _injected_defect)
        assert run(capsys, "field", "--p", "13")[0] == 0

    def test_a_valid_call_runs_one_parser(self, capsys, monkeypatch):
        monkeypatch.setattr(cli._PARSER, "parse_known_args", _injected_defect)
        code, out = run(capsys, "count", "--p", "13", "--c", "1", "--n", "2", "--all-methods")
        assert (code, json.loads(out)["count"]) == (0, "8")

    # usage errors at each level, help, and argv that the subcommand's parser alone
    # would accept in part: extras after a valid command, "--", "--p=13", "--all"
    ARGV = [(), ("-h",), ("bogus",), ("count", "-h"),
            ("count", "--p", "13", "--c", "one", "--n", "2"),
            ("count", "--p", "13", "--c", "1", "--n", "0"),
            ("count", "--p", "13", "--c", "1", "--y", "2", "--n", "2"),
            ("count", "--p", "13", "--c", "1", "--n", "2", "extra"),
            ("count", "--p", "13", "--c", "1", "--n", "2", "--", "extra"),
            ("count", "--", "--p", "13"), ("--", "field", "--p", "13"),
            ("count", "--p=13", "--c", "1", "--n", "3"),
            ("count", "--p", "13", "--c", "1", "--n", "3", "--all"),
            ("field", "--p", "13", "--json"), ("series", "--p", "7", "--y", "3")]

    @staticmethod
    def outcome(capsys, argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, _without_seconds(out) if out.startswith("{") else out, err

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_dispatch_matches_the_full_parser(self, capsys, monkeypatch, argv):
        fast = self.outcome(capsys, argv)
        monkeypatch.setattr(cli, "_parse", cli._PARSER.parse_args)
        assert fast == self.outcome(capsys, argv)

    def test_handler_is_looked_up_at_call_time(self, capsys, monkeypatch):
        # the benchmark tracer rebinds cli.cmd_count and cli.cmd_verify after import
        calls = []
        cmd_count = cli.cmd_count

        def wrapped(args):
            calls.append(args.n)
            return cmd_count(args)
        monkeypatch.setattr(cli, "cmd_count", wrapped)
        code, out = run(capsys, "count", "--p", "13", "--c", "1", "--n", "2")
        assert (code, json.loads(out)["count"], calls) == (0, "8", [2])


def _without_seconds(out):
    payload = json.loads(out)
    payload.pop("seconds", None)
    return payload


def _hits_and_misses():
    info = cli._field_and_generator.cache_info()
    return info.hits, info.misses


class TestBuildCache:
    def test_second_call_builds_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "STORE_COUNTS", Counter())
        argv = ("count", "--p", "7", "--m", "2", "--c", "5", "--n", "4", "--all-methods")
        code, first = run(capsys, *argv)
        assert code == 0
        counts = Counter(field_module.STORE_COUNTS)
        assert all(counts[kind, "builds"] == 1 for kind in ("cyclo", "periods"))
        assert _hits_and_misses() == (0, 1)
        code, second = run(capsys, *argv)
        assert code == 0
        assert _hits_and_misses() == (1, 1)
        # the (i, j)_4 that A_0 is built from and the Gauss periods are read once more, and
        # no table of any kind is built
        new = field_module.STORE_COUNTS - counts
        assert (new["cyclo", "hits"], new["periods", "hits"]) == (1, 1)
        assert [key for key in new if key[1] != "hits"] == []
        assert _without_seconds(second) == _without_seconds(first)

    def test_every_stored_kind_is_read_again(self, capsys, monkeypatch):
        # a table built once and never read again costs its bytes and its build for nothing
        monkeypatch.setattr(field_module, "_TABLES", {})
        monkeypatch.setattr(field_module, "STORE_COUNTS", Counter())
        calls = [("verify", "--p", "13", "--expsums"),
                 ("count", "--p", "13", "--c", "2", "--n", "4", "--all-methods"),
                 ("count", "--p", "7", "--m", "2", "--y", "8", "--n", "3", "--all-methods")]
        for _ in range(2):
            for argv in calls:
                assert run(capsys, *argv)[0] == 0
        counts = field_module.STORE_COUNTS
        built = {kind for kind, event in counts if event == "builds"}
        assert sorted(kind for kind in built if not counts[kind, "hits"]) == []
        assert built == {"add", "power", "log", "cyclo", "periods"}

    def test_overrides_get_their_own_entries(self, capsys, monkeypatch):
        monkeypatch.setattr(field_module, "_TABLES", {})
        calls = [("count", "--p", "13", "--c", "5", "--n", "4", "--all-methods", *extra)
                 for extra in [(), ("--generator", "6"), ("--modulus", "3,1")]]

        def outputs():
            return [_without_seconds(run(capsys, *argv)[1]) for argv in calls]
        first = outputs()
        assert _hits_and_misses() == (0, 3)
        assert outputs() == first
        assert _hits_and_misses() == (3, 3)
        assert [key[1] for key in field_module._TABLES if key[0] == "cyclo"] == [
            cli._field_and_generator(13, 1, *override)[1].g
            for override in [(None, None), (6, None), (None, (3, 1))]]
        cli._field_and_generator.cache_clear()
        monkeypatch.setattr(field_module, "_TABLES", {})
        assert outputs() == first
        assert first[0]["count"] == "1888" and all(out["agree"] for out in first)

    @pytest.mark.parametrize("argv", [("--p", "13", "--generator", "3"),
                                      ("--p", "3", "--m", "2", "--modulus", "2,0,1")],
                             ids=["generator", "modulus"])
    def test_invalid_override_raises_on_every_call(self, capsys, argv):
        assert [run(capsys, "field", *argv)[0] for _ in range(2)] == [2, 2]
        assert cli._field_and_generator.cache_info().currsize == 0

    def test_decomposition_found_once(self, capsys, monkeypatch):
        calls, decompose = [], cyclotomy.quartic_decomposition

        def counted(fld, gen):
            calls.append(fld.q)
            return decompose(fld, gen)
        monkeypatch.setattr(cyclotomy, "quartic_decomposition", counted)
        argv = ("count", "--p", "13", "--c", "5", "--n", "4")
        first, second = (run(capsys, *argv) for _ in range(2))
        assert first == second and json.loads(first[1])["count"] == "1888"
        assert calls == [13]

    def test_failed_decomposition_exits_3_on_every_call(self, capsys, monkeypatch):
        monkeypatch.setattr(cyclotomy, "quartic_decomposition", _injected_defect)
        assert [run(capsys, "count", "--p", "13", "--c", "5", "--n", "4")[0]
                for _ in range(2)] == [3, 3]
        assert cli._field_and_generator.cache_info().currsize == 0

    def test_break_t_leaves_the_cached_decomposition(self, capsys):
        broken = json.loads(run(capsys, "verify", "--p", "13", "--break-t")[1])
        sound = json.loads(run(capsys, "verify", "--p", "13")[1])
        assert (broken["status"], sound["status"]) == ("FAIL", "pass")
        assert (broken["fields"][0]["t"], sound["fields"][0]["t"]) == (0, -1)
        assert _hits_and_misses() == (1, 1)

    def test_break_t_after_a_sound_run_still_fails(self, capsys):
        # the sound run leaves its field, (s, t) and generating functions built; the
        # broken run must not read them in place of its own t, so it files the same
        # checks as a broken run in a fresh process, the series' checks among the failures
        def checks(out):
            return [{key: v for key, v in c.items() if key != "seconds"}
                    for c in json.loads(out)["checks"]]
        cold = run(capsys, "verify", "--p", "13", "--break-t")
        cli._field_and_generator.cache_clear()
        genfunc._class_gf.cache_clear()
        sound = json.loads(run(capsys, "verify", "--p", "13")[1])
        code, out = run(capsys, "verify", "--p", "13", "--break-t")
        broken = json.loads(out)
        assert (sound["status"], broken["status"], code, cold[0]) == ("pass", "FAIL", 1, 1)
        assert (sound["fields"][0]["t"], broken["fields"][0]["t"]) == (-1, 0)
        assert _hits_and_misses() == (1, 1)
        assert checks(out) == checks(cold[1])
        assert {c["name"]: c["status"] for c in broken["checks"]}[
            "q=13 oracle-equivalence n<=8"] == "FAIL"

    @pytest.mark.parametrize("field", [("--p", "13"), ("--p", "7", "--m", "2")],
                             ids=["q=13", "q=49"])
    def test_stored_tables_have_fixed_width(self, capsys, monkeypatch, field):
        # an object array's nbytes counts pointers, so the byte guard would miss its ints
        monkeypatch.setattr(field_module, "_TABLES", {})
        assert run(capsys, "count", *field, "--c", "5", "--n", "4", "--all-methods")[0] == 0
        assert run(capsys, "verify", *field, "--expsums")[0] == 0
        kinds = {key[0]: table.dtype for key, table in field_module._TABLES.items()}
        assert {"add", "cyclo", "periods"} <= set(kinds)
        assert not any(dtype.hasobject for dtype in kinds.values()), kinds


class TestInternalErrors:
    @pytest.mark.parametrize("command", ["field", "verify"])
    def test_invariant_error_exits_3(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cyclotomy, "quartic_decomposition", _injected_defect)
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

    def test_twisted(self, capsys):
        code, out = run(capsys, "series", "--p", "13", "--y", "2", "--n", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        fld = Field(13, 1)
        gen = find_generator(fld)
        assert payload["y"] == 2
        assert payload["coefficients"] == [str(counting.count_M(fld.from_int(2), n, fld, gen))
                                           for n in range(2, 8)]

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
        assert set(checks) == {"q=13 quartic classes", "q=13 oracle-equivalence n<=5",
                               "q=13 cyclotomic closed=enum", "q=13 closed-form n<=4",
                               "q=13 recurrence order 4", "q=13 twisted counts"}
        # every check that reads t fails, as before; the classifier does not read t
        assert {name for name, c in checks.items() if c["status"] == "FAIL"} == (
            set(checks) - {"q=13 quartic classes", "q=13 recurrence order 4"})
        oracle = checks["q=13 oracle-equivalence n<=5"]
        assert oracle["status"] == "FAIL"
        # c = 0 and c = 1 agree; c = 2, a non-square, first differs, at n = 2
        assert json.loads(oracle["detail"]) == {"c": 2, "n": 2, "series": "8",
                                                "oracle": "16"}
        # one series at c = 0, then one c = g^l per class; the relation reads them too
        assert builds == [0, 1, 2, 4, 8]
        cyclo = checks["q=13 cyclotomic closed=enum"]
        assert cyclo["status"] == "FAIL"
        failure = json.loads(cyclo["detail"])
        assert (failure["i"], failure["j"], failure["s"], failure["t"]) == (0, 1, -3, 0)
        assert failure["closed"] is None and failure["enumerated"] == "1"
        assert "NonIntegralError" in failure["detail"]

    def test_builds_once_per_class(self, capsys, monkeypatch):
        # per field: gf_N for the series at c = 0 and at each g^l, which the relation
        # reads too, count_M and its gf_M at each non-quartic g^l, _closed_small once
        # per class l and n <= 4, and quartic_class once per element
        calls = {}

        def counting_calls(module, name, q_of):
            original = getattr(module, name)

            def counted(*args):
                key = (name, q_of(*args))
                calls[key] = calls.get(key, 0) + 1
                return original(*args)
            monkeypatch.setattr(module, name, counted)
        counting_calls(genfunc, "gf_N", lambda fld, *rest: fld.q)
        counting_calls(genfunc, "gf_M", lambda fld, *rest: fld.q)
        counting_calls(counting, "_closed_small", lambda q, *rest: q)
        counting_calls(counting, "count_small", lambda c, n, dec, fld, gen: fld.q)
        counting_calls(counting, "count_N", lambda c, *rest: c.field.q)
        counting_calls(counting, "count_M", lambda y, *rest: y.field.q)
        counting_calls(cli, "quartic_class", lambda x, gen: x.field.q)
        code, out = run(capsys, "verify", "--nmax", "3", "--expsums")
        assert code == 0
        expected = {}
        for p, m in cli.DEFAULT_VERIFY_FIELDS:
            q = p**m
            d = 4 if q % 4 == 1 else 2
            expected.update({("gf_N", q): d + 1,
                             ("gf_M", q): d - 1, ("count_M", q): d - 1,
                             ("quartic_class", q): q - 1})
            if d == 4:
                expected["_closed_small", q] = 4 * 3
        assert calls == expected

    def test_misclassified_element_fails_the_class_check_only(self, capsys, monkeypatch):
        # 5 = g^9 lies in C_1 of F_13 (g = 2) and is no representative g^l, l < 4;
        # every module that binds quartic_class gets the mutant
        quartic = field_module.quartic_class

        def wrong_at_5(x, gen):
            return (quartic(x, gen) + (x.encode() == 5)) % len(gen.class_roots)
        for module in (diagquartic, field_module, counting, cli, cyclotomy, expsums, genfunc):
            if hasattr(module, "quartic_class"):
                monkeypatch.setattr(module, "quartic_class", wrong_at_5)
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "4", "--json")
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if c["status"] == "FAIL"]
        assert [c["name"] for c in failed] == ["q=13 quartic classes"]
        assert json.loads(failed[0]["detail"]) == {"c": 5, "quartic_class": "2",
                                                   "log_table": "1"}

    def test_split_off_takes_no_product_per_pair(self, capsys, monkeypatch):
        # splitting x_n off one fourth power u at a time takes a product per non-quartic
        # y and u, 75 * 26 = 1950 at q = 101; the cosets leave the oracle's 4 * 26
        # scalings and the log table's sqrt(q) steps, 115 products in all
        calls = []
        mul = Element.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)
        monkeypatch.setattr(Element, "__mul__", counted)
        code, _ = run(capsys, "verify", "--p", "101", "--nmax", "4")
        assert code == 0
        assert len(calls) <= 4 * 101

    @pytest.mark.parametrize("pm", [(3, 2), (17, 1), (13, 1), (29, 1), (7, 1), (11, 1),
                                    (43, 1)], ids=lambda pm: f"q={pm[0]**pm[1]}")
    def test_split_off_by_cosets_matches_the_literal_split_off(self, pm):
        # q = 1 mod 8 (9, 17), q = 5 mod 8 (13, 29), where -1 lies in C_2, and
        # q = 3 mod 4 (7, 11, 43), where -1 is a non-square
        fd = field_data(*pm)
        fld, gen = fd.field, fd.gen
        reps = [gen.g ** l for l in range(len(gen.class_roots))]
        cyc = CyclotomicClasses(fld, gen, len(reps))
        cls = cyc.class_of
        series = [[fd.oracle_N(c.encode(), n) for n in range(1, len(fd.histograms) + 1)]
                  for c in [fld.zero()] + reps]
        hists = np.array(fd.histograms, dtype=object)
        for n in range(2, len(fd.histograms) + 1):
            axes, values = cli._twisted_arrays(fld, gen, fd.dec, cyc, reps, series, hists[:n])
            assert axes == {"y": [code for code in range(1, fd.q) if cls[code]], "n": [n]}
            oracle = values["oracle"]
            assert oracle.shape == (len(axes["y"]), 1)
            for code, value in zip(axes["y"], oracle[:, 0]):
                y = fld.from_int(code)
                assert value == split_off_count(fld, fd.histograms, y, n), (code, n)

    def test_passing_array_checks_yield_no_rows(self, capsys, monkeypatch):
        # the cyclotomic numbers stay a stream of 16 rows; the array checks yield
        # a row only where their methods differ
        consumed = {}
        run_check = cli._run_check

        def counted(checks, name, methods, rows):
            consumed[name] = 0

            def counting_rows():
                for row in rows:
                    consumed[name] += 1
                    yield row
            run_check(checks, name, methods, counting_rows())
        monkeypatch.setattr(cli, "_run_check", counted)
        code, _ = run(capsys, "verify", "--p", "13", "--nmax", "5")
        assert code == 0
        assert consumed == {"q=13 quartic classes": 0, "q=13 oracle-equivalence n<=5": 0,
                            "q=13 recurrence order 4": 0, "q=13 cyclotomic closed=enum": 16,
                            "q=13 closed-form n<=4": 0, "q=13 twisted counts": 0}

    @staticmethod
    def _last_off_by_one(hists):
        # the oracle's N_20(7) one too large: about 13^19, past 2^63
        for n, hist in enumerate(hists, start=1):
            yield [v + (n == 20 and code == 7) for code, v in enumerate(hist)]

    @pytest.mark.parametrize("defect", ["break-t", "oracle"])
    def test_nmax_20_witness_is_the_literal_scans(self, capsys, monkeypatch, defect):
        assert run(capsys, "verify", "--p", "13", "--nmax", "20")[0] == 0
        fld = Field(13, 1)
        gen = find_generator(fld)
        dec = cyclotomy.quartic_decomposition(fld, gen)
        hists = list(counting.oracle_histograms(fld, [fld.one()] * 20))
        argv = ["verify", "--p", "13", "--nmax", "20", "--json"]
        if defect == "break-t":
            argv.append("--break-t")
            dec = QuarticDecomposition(s=dec.s, t=dec.t + 1)
        else:
            hists = list(self._last_off_by_one(hists))
            oracle_histograms = counting.oracle_histograms
            monkeypatch.setattr(counting, "oracle_histograms", lambda fld, coeffs: (
                self._last_off_by_one(oracle_histograms(fld, coeffs))))
        code, out = run(capsys, *argv)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        # c outer, n inner, one series per c
        literal = next({"c": code, "n": n, "series": str(value), "oracle": str(hist[code])}
                       for code in range(13)
                       for n, (value, hist) in enumerate(zip(genfunc.gf_N(
                           fld, gen, dec, fld.from_int(code)).series(20), hists), start=1)
                       if value != hist[code])
        assert checks["q=13 oracle-equivalence n<=20"]["detail"] == json.dumps(literal)
        if defect == "oracle":
            assert (literal["c"], literal["n"]) == (7, 20)
            assert int(literal["oracle"]) - 1 == int(literal["series"]) > 2**63

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

    # q = 13: at c = 0, D(1) = 0 hides the error at n = 5, so c = 1 shows it; q = 7:
    # at c = 0, D(2) = N_2(0) - 7 = -6, so n = 4 is off by 7 * -6
    @pytest.mark.parametrize("p, name, witness", [
        ("13", "q=13 recurrence order 4", {"c": 1, "n": 5}),
        ("7", "q=7 recurrence order 2", {"c": 0, "n": 4, "recurrence": "427",
                                         "oracle": "385"})], ids=["q=13", "q=7"])
    def test_recurrence_checks_the_denominator_against_the_oracle(self, capsys,
                                                                   monkeypatch, p, name,
                                                                   witness):
        denominator = genfunc.denominator

        def last_coefficient_off_by_q(q, s):
            *head, last = denominator(q, s)
            return (*head, last + q)
        monkeypatch.setattr(genfunc, "denominator", last_coefficient_off_by_q)
        code, out = run(capsys, "verify", "--p", p, "--nmax", "5", "--json")
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if c["status"] == "FAIL"]
        assert [c["name"] for c in failed] == [name]
        detail = json.loads(failed[0]["detail"])
        assert {key: detail[key] for key in witness} == witness
        assert detail["recurrence"] != detail["oracle"]

    def test_recurrence_needs_n_5(self, capsys):
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "4", "--json")
        assert code == 0
        assert not any("recurrence" in c["name"] for c in json.loads(out)["checks"])

    def test_recurrence_runs_on_q_3_mod_4(self, capsys):
        # den = 1 + 7x^2 on q = 7: order 2, listed from nmax = 3
        code, out = run(capsys, "verify", "--p", "7", "--nmax", "5", "--json")
        assert code == 0
        checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert checks == {"q=7 quartic classes": "pass", "q=7 oracle-equivalence n<=5": "pass",
                          "q=7 recurrence order 2": "pass", "q=7 twisted counts": "pass"}

    def test_reads_the_denominator_once_per_field(self, capsys, monkeypatch):
        calls = []
        denominator = genfunc.denominator

        def counted(q, s):
            calls.append(q)
            return denominator(q, s)
        monkeypatch.setattr(genfunc, "denominator", counted)
        code, _ = run(capsys, "verify", "--nmax", "5")
        assert code == 0
        assert sorted(calls) == sorted(p**m for p, m in cli.DEFAULT_VERIFY_FIELDS)

    def test_wrong_gauss_sums_give_an_expsum_witness(self, capsys, monkeypatch):
        build_table = expsums.build_table

        def reflected(fld, gen):
            # the same four roots of the denominator mod each prime, eta_1 and eta_3 on each
            # other's class (a shift of every class would be the table of psi(k x), whose
            # counts are the same)
            table = build_table(fld, gen)
            return dataclasses.replace(table, rows=table.rows[:, [0, 1, 4, 3, 2]])
        monkeypatch.setattr(expsums, "build_table", reflected)
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "5", "--expsums", "--json")
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if c["status"] == "FAIL"]
        assert [c["name"] for c in failed] == ["q=13 exponential sums"]
        witness = json.loads(failed[0]["detail"])
        assert set(witness) == {"c", "n", "expsum", "oracle"}
        assert witness["expsum"] != witness["oracle"]

    def test_a_mutant_period_fails_both_expsum_checks(self, capsys, monkeypatch):
        # eta_0 + 1 mod the first prime, in the store that verify reads
        monkeypatch.setattr(field_module, "_TABLES", {})
        fld = Field(13, 1)
        gen = find_generator(fld)
        rows = expsums.build_table(fld, gen).rows.copy()
        rows[0, 1] = (rows[0, 1] + 1) % rows[0, 0]
        field_module._TABLES["periods", gen.g] = rows
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "5", "--expsums", "--json")
        assert code == 1
        failed = {c["name"]: json.loads(c["detail"]) for c in json.loads(out)["checks"]
                  if c["status"] == "FAIL"}
        assert set(failed) == {"q=13 Gauss sums are roots", "q=13 exponential sums"}
        roots = failed["q=13 Gauss sums are roots"]
        assert (roots["ell"], roots["l"], roots["zero"]) == (int(rows[0, 0]), 0, "0")
        assert roots["residue"] != "0"
        counts = failed["q=13 exponential sums"]
        assert (counts["c"], counts["n"]) == (1, 1)
        assert counts["expsum"] != counts["oracle"] == "4"

    @pytest.mark.parametrize("p, joins", [(29, 7), (13, None)], ids=["q=29", "q=13"])
    def test_a_mutant_period_of_the_second_prime(self, capsys, monkeypatch, p, joins):
        # eta_0 + 1 mod the second prime, which N_n(c) joins from the first n with q^n at
        # least the first prime: n = 7 on F_29, and no n <= 8 on F_13
        monkeypatch.setattr(field_module, "_TABLES", {})
        fld = Field(p, 1)
        gen = find_generator(fld)
        rows = expsums.build_table(fld, gen).rows.copy()
        rows[1, 1] = (rows[1, 1] + 1) % rows[1, 0]
        field_module._TABLES["periods", gen.g] = rows
        assert min((n for n in range(1, 9) if p ** n >= rows[0, 0]), default=None) == joins
        code, out = run(capsys, "verify", "--p", str(p), "--nmax", "8", "--expsums", "--json")
        assert code == 1
        failed = {c["name"]: json.loads(c["detail"]) for c in json.loads(out)["checks"]
                  if c["status"] == "FAIL"}
        roots = failed.pop(f"q={p} Gauss sums are roots")
        assert (roots["ell"], roots["l"], roots["zero"]) == (int(rows[1, 0]), 0, "0")
        assert roots["residue"] != "0"
        if joins is not None:
            counts = failed.pop(f"q={p} exponential sums")
            assert (counts["c"], counts["n"]) == (1, joins)
            assert counts["expsum"] != counts["oracle"]
        assert failed == {}

    def test_one_class_read_per_expsum_series(self, capsys, monkeypatch):
        # one series per class representative g^l: 4 class reads, not one per (c, n)
        calls = []

        def counted(x, gen):
            calls.append(x)
            return quartic_class(x, gen)
        monkeypatch.setattr(expsums, "quartic_class", counted)
        code, _ = run(capsys, "verify", "--p", "29", "--nmax", "8", "--expsums")
        assert code == 0
        assert len(calls) == 4

    @pytest.mark.parametrize("l", range(4))
    def test_expsums_meet_every_class_of_minus_c(self, capsys, monkeypatch, l):
        # reconstruct_series reads c through the class of -c only
        reconstruct_series = expsums.reconstruct_series

        def off_by_one_on_class(nmax, c, table):
            off = quartic_class(-c, table.gen) == l
            return [count + off for count in reconstruct_series(nmax, c, table)]
        monkeypatch.setattr(expsums, "reconstruct_series", off_by_one_on_class)
        code, out = run(capsys, "verify", "--p", "29", "--nmax", "5", "--expsums", "--json")
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "FAIL"]
        assert failed == ["q=29 exponential sums"]

    def test_error_in_one_check_fails_that_check_only(self, capsys, monkeypatch):
        def not_integral(*args):
            raise NonIntegralError("injected")
        monkeypatch.setattr(expsums, "reconstruct_series", not_integral)
        code, out = run(capsys, "verify", "--p", "13", "--nmax", "5", "--expsums", "--json")
        assert code == 1
        checks = json.loads(out)["checks"]
        assert len(checks) == 8
        failed = [c for c in checks if c["status"] == "FAIL"]
        assert [c["name"] for c in failed] == ["q=13 exponential sums"]
        assert failed[0]["detail"] == "NonIntegralError: injected"

    def test_kept_oracle_rows_stay_within_their_charge(self, capsys, monkeypatch):
        # verify keeps the oracle's nmax x q counts as one object array; each entry is
        # charged a pointer and the int of the largest count, 8 + sys.getsizeof(q^nmax)
        # bytes.  On F_1021 at nmax 8 the rows hold about 0.31 MB of a 0.36 MB charge;
        # the counts' payload alone, n*q*n*bits(q)/8, is 0.08 MB
        monkeypatch.setattr(field_module, "_TABLES", {})
        fld, nmax = Field(1021, 1), 8
        counting.oracle_histogram(fld, [fld.one()] * 2)  # the tables stored first
        charges = []

        def recorded(what, nbytes):
            charges.append((what, nbytes))
            return field_module.check_bytes(what, nbytes)
        monkeypatch.setattr(cli, "check_bytes", recorded)
        assert run(capsys, "verify", "--p", "1021", "--nmax", str(nmax))[0] == 0
        charge = nmax * fld.q * (8 + sys.getsizeof(fld.q ** nmax))
        assert charges == [(f"{nmax} x {fld.q} oracle rows", charge)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = np.array(list(counting.oracle_histograms(fld, [fld.one()] * nmax)),
                            dtype=object)  # as verify keeps them
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rows.shape == (nmax, fld.q)
        assert charge // 2 < held <= charge


class TestDifferingRows:
    """`cli._differing_rows` against a literal row-by-row scan of the same arrays."""

    @staticmethod
    def _literal(axes, values):
        (a, labels_a), (b, labels_b) = axes.items()
        for i, x in enumerate(labels_a):
            for j, y in enumerate(labels_b):
                row = {a: x, b: y, **{m: v[i][j] for m, v in values.items()}}
                if len({row[m] for m in values}) > 1:
                    yield row

    @pytest.mark.parametrize("methods", [("series", "oracle"),
                                         ("series", "oracle", "relation")])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_a_literal_scan(self, methods, seed):
        rng = random.Random(seed)
        shape = rng.randint(1, 7), rng.randint(1, 5)
        base = [[rng.randrange(2**70) for _ in range(shape[1])] for _ in range(shape[0])]
        values = {}
        for method in methods:
            # a few entries off by 1 or by 2^64, which int64 would not see
            values[method] = [[v + rng.choice([0] * 8 + [1, -2**64]) for v in row]
                              for row in base]
        axes = {"y": rng.sample(range(100), shape[0]), "n": range(3, 3 + shape[1])}
        rows = list(cli._differing_rows(lambda: (axes, {
            m: np.array(v, dtype=object) for m, v in values.items()})))
        literal = list(self._literal(axes, values))
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in literal]

    def test_equal_arrays_yield_nothing(self):
        values = {m: np.array([[2**64, 3], [5, 7]], dtype=object) for m in ("a", "b", "c")}
        assert list(cli._differing_rows(lambda: ({"c": [0, 1], "n": [1, 2]}, values))) == []

    def test_arrays_are_built_on_the_first_next(self):
        built = []

        def build():
            built.append(1)
            return {"c": [4], "n": [1]}, {"a": np.array([[1]], dtype=object),
                                          "b": np.array([[2]], dtype=object)}
        rows = cli._differing_rows(build)
        assert built == []
        assert next(rows) == {"c": 4, "n": 1, "a": 1, "b": 2}
        assert built == [1]
