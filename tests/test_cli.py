"""CLI subcommands: output schema, agreement checks, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diagquartic import cli, counting
from diagquartic.cli import main
from diagquartic.errors import InvariantError


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
        assert run(capsys, "cyclotomic", "--p", "7")[0] == 2

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
        ["bench", "--p", "5", "--n", "0"],
        ["verify", "--p", "5", "--nmax", "1"],
        ["count", "--p", "5", "--y", "2", "--n", "3", "--method", "closed"],
        ["count", "--p", "5", "--y", "2", "--n", "3", "--method", "cyclotomy"],
        ["count", "--p", "5", "--y", "2", "--n", "3", "--method", "expsum"],
        ["series", "--p", "5", "--c", "1", "--y", "2", "--n", "3"],
        ["count", "--p", "13", "--y", "3", "--n", "3", "--method", "oracle"],
        ["count", "--p", "13", "--y", "2", "--n", "1", "--method", "oracle"],
    ], ids=["count-no-rhs", "count-c-and-y", "closed-q7",
            "series-n-neg", "bench-n0", "verify-nmax1", "closed-y",
            "cyclotomy-y", "expsum-y", "series-c-and-y", "oracle-quartic-y",
            "oracle-y-n1"])
    def test_exits_2(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2


def _injected_defect(*args):
    raise InvariantError("injected defect")


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


class TestBenchCommand:
    def test_counts_reported_and_agree(self, capsys):
        code, out = run(capsys, "bench", "--p", "13", "--n", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_agree"] is True
        assert all("count" in row for row in payload["rows"])
