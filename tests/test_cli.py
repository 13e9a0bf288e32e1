import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taydel.cli import main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def fixture(fixtures_dir, name):
    return str(fixtures_dir / name)


class TestInfo:
    def test_mixed_fixture_report(self, run, fixtures_dir):
        code, out, _ = run("info", fixture(fixtures_dir, "example2.fde"))
        assert code == 0
        assert "t_star: -2" in out
        assert "t_alpha: 1" in out
        assert "neutral: no" in out
        assert "compatibility: pass" in out
        assert "h2: pass" in out

    def test_neutral_fixture_report(self, run, fixtures_dir):
        code, out, _ = run("info", fixture(fixtures_dir, "example3.fde"))
        assert code == 0
        assert "neutral: yes" in out
        assert "t_alpha: 0.3517337112491" in out

    def test_proportional_fixture_report(self, run, fixtures_dir):
        code, out, _ = run("info", fixture(fixtures_dir, "example1.fde"))
        assert code == 0
        assert "t_star: 0" in out
        assert "t_alpha: inf" in out

    def test_parse_error_exit_code(self, run, tmp_path):
        bad = tmp_path / "bad.fde"
        bad.write_text("order = 1\nvars = u1\neq u1' = (\ninit u1 = [1]\n"
                       "horizon = 1\ntaylor_order = 4\n")
        code, _, err = run("info", str(bad))
        assert code == 1
        assert "error:" in err

    def test_check_failure_exit_code(self, run, tmp_path):
        bad = tmp_path / "incompatible.fde"
        bad.write_text(
            "order = 1\nvars = u1\ndelay d = constant(1)\n"
            "eq u1' = u1@d\nphi u1 = t + 5\ninit u1 = [1]\n"
            "horizon = 1\ntaylor_order = 4\n"
        )
        code, out, _ = run("info", str(bad))
        assert code == 2
        assert "compatibility: FAIL" in out

    def test_history_only_delay_gets_a_note(self, run, tmp_path):
        path = tmp_path / "far.fde"
        path.write_text(
            "order = 1\nvars = u\ndelay lag = vary(1 + t/2)\neq u' = u@lag\n"
            "phi u = 1\ninit u = [1]\nhorizon = 1\ntaylor_order = 4\n"
        )
        code, out, _ = run("info", str(path))
        assert code == 0
        assert "note: delay 'lag' stays in the history over the whole horizon\n" in out


class TestSolve:
    def test_csv_row_matches_published_coefficients(self, run, fixtures_dir):
        code, out, _ = run(
            "solve", fixture(fixtures_dir, "example1.fde"), "--order", "5", "--csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "var,k0,k1,k2,k3,k4,k5"
        assert lines[3] == "u3,0,1,3,4.5,4.5,3.375"

    def test_polynomial_fixture_csv(self, run, fixtures_dir):
        code, out, _ = run("solve", fixture(fixtures_dir, "example2.fde"), "--csv")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "u1"
        values = [float(v) for v in row[1:]]
        assert values[2] == pytest.approx(2.0, abs=1e-12)
        assert all(abs(v) <= 1e-12 for k, v in enumerate(values) if k != 2)

    def test_json_schema(self, run, fixtures_dir):
        code, out, _ = run("solve", fixture(fixtures_dir, "example2.fde"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"variables", "validity", "error_estimate", "pivot_log"}
        assert payload["variables"][0]["name"] == "u1"
        assert payload["validity"] == {"t_star": -2, "t_alpha": 1, "upper": 1}
        assert payload["error_estimate"]["N"] == 10
        assert payload["error_estimate"]["bound"] == 0
        assert payload["pivot_log"] == []

    def test_infinite_activation_serializes_as_null(self, run, fixtures_dir):
        code, out, _ = run("solve", fixture(fixtures_dir, "example1.fde"), "--json")
        assert code == 0
        assert json.loads(out)["validity"]["t_alpha"] is None

    def test_zero_pivot_exit_and_partial_table(self, run, fixtures_dir):
        code, out, err = run("solve", fixture(fixtures_dir, "example3.fde"), "--csv")
        assert code == 3
        assert "u2" in err and "k=0" in err
        assert "pivot = 0" in err and "residual = -2" in err
        lines = out.strip().splitlines()
        assert lines[1] == "u1,1,1,0.5"
        assert lines[2] == "u2,0,0,1"

    def test_output_file(self, run, fixtures_dir, tmp_path):
        target = tmp_path / "solution.csv"
        code, out, _ = run(
            "solve", fixture(fixtures_dir, "example1.fde"), "--csv",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("var,k0")

    def test_byte_identical_reruns(self, run, fixtures_dir):
        first = run("solve", fixture(fixtures_dir, "example2.fde"), "--json")
        second = run("solve", fixture(fixtures_dir, "example2.fde"), "--json")
        assert first == second

    def test_batch_mode(self, run, fixtures_dir, tmp_path):
        outdir = tmp_path / "batch"
        code, _, err = run(
            "solve", str(fixtures_dir), "--all", "--csv", "--out", str(outdir)
        )
        assert code == 3  # the neutral fixture fails; the others succeed
        produced = sorted(p.name for p in outdir.glob("*.csv"))
        assert produced == [
            "example1.csv", "example2.csv", "example3.csv", "example3_u1.csv",
        ]
        assert "u2" in err

    def test_batch_goes_on_past_failing_files(self, run, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        files = {
            "a_malformed.fde": SCALAR.replace("order = 1", "order = 1.5"),
            "b_domain.fde": SCALAR.replace("u@half - u", "exp(u@half)").replace("[1]", "[1000]"),
            "c_h2.fde": H2,
            "d_good.fde": SCALAR,
        }
        alone = {}
        for name, text in files.items():
            (batch / name).write_text(text)
            alone[name] = run("solve", str(batch / name))
        assert [code for code, _, _ in alone.values()] == [1, 3, 2, 0]
        assert all(len(err.splitlines()) == 1 for code, _, err in alone.values() if code)

        code, out, err = run("solve", str(batch), "--all")
        assert code == 3
        assert out == "".join(f"# {name}\n{alone[name][1]}" for name in files)
        assert err == "".join(err for _, _, err in alone.values())

        outdir = tmp_path / "out"
        assert run("solve", str(batch), "--all", "--out", str(outdir)) == (3, "", err)
        for name, (_, text, _) in alone.items():
            assert (outdir / name).with_suffix(".txt").read_text() == text

    def test_strict_flag_escalates_compatibility(self, run, tmp_path):
        path = tmp_path / "sloppy.fde"
        path.write_text(
            "order = 1\nvars = u1\ndelay d = constant(1)\n"
            "eq u1' = u1@d\nphi u1 = t + 5\ninit u1 = [1]\n"
            "horizon = 1\ntaylor_order = 4\n"
        )
        code, _, err = run("solve", str(path), "--csv")
        assert code == 0
        assert "warning" in err
        code, _, err = run("solve", str(path), "--csv", "--strict")
        assert code == 2
        assert "error" in err

    def test_batch_mode_needs_a_directory(self, run, fixtures_dir):
        path = fixture(fixtures_dir, "example1.fde")
        code, out, err = run("solve", path, "--all")
        assert (code, out, err) == (2, "", f"error: --all needs a directory, got {path!r}\n")

    def test_batch_mode_needs_a_problem_file(self, run, tmp_path):
        code, out, err = run("solve", str(tmp_path), "--all")
        assert (code, out, err) == (2, "", f"error: no .fde files in {tmp_path}\n")

    @pytest.mark.parametrize("batch", [False, True])
    def test_json_and_csv_together_are_refused_before_reading(self, run, tmp_path, batch):
        # the file does not exist: a refusal after reading it would exit 1
        missing = str(tmp_path / "missing.fde")
        code, out, err = run("solve", missing, "--json", "--csv", *(("--all",) if batch else ()))
        assert (code, out, err) == (2, "", "error: --json and --csv cannot be used together\n")

    def test_json_pivot_log_of_a_neutral_equation(self, run, tmp_path):
        path = tmp_path / "neutral.fde"
        path.write_text(SCALAR.replace("u@half - u", "u + 1/2*u'@half")
                        .replace("taylor_order = 10", "taylor_order = 3"))
        code, out, _ = run("solve", str(path), "--json")
        assert code == 0
        assert json.loads(out)["pivot_log"] == [
            {"var": "u", "k": k, "pivot": pivot}
            for k, pivot in enumerate((0.5, 0.75, 0.875, 0.9375))
        ]

    def test_constant_delayed_argument(self, run, tmp_path):
        # t - (1 + t) = -1: the inner series of the composition is 0
        path = tmp_path / "constant_argument.fde"
        path.write_text(
            "order = 1\nvars = u\ndelay d = vary(1 + t)\neq u' = -u@d\nphi u = exp(t)\n"
            "init u = [1]\nhorizon = 1\ntaylor_order = 12\n"
        )
        code, out, _ = run("solve", str(path))
        assert code == 0
        assert out.splitlines()[0] == "u: 1 -0.36787944117144233" + " 0" * 11


class TestEval:
    def test_polynomial_point(self, run, fixtures_dir):
        code, out, _ = run(
            "eval", fixture(fixtures_dir, "example2.fde"), "--at", "0.5"
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "0.5,0.5,0.25"

    def test_initial_point(self, run, fixtures_dir):
        code, out, _ = run("eval", fixture(fixtures_dir, "example1.fde"), "--at", "0")
        assert code == 0
        assert out.strip().splitlines()[1] == "0,1,1,0"

    def test_outside_validity_is_refused(self, run, fixtures_dir):
        code, _, err = run(
            "eval", fixture(fixtures_dir, "example2.fde"), "--at", "1.5"
        )
        assert code == 2
        assert "validity" in err

    def test_unchecked_mode(self, run, fixtures_dir):
        code, out, _ = run(
            "eval", fixture(fixtures_dir, "example2.fde"), "--at", "1.5",
            "--unchecked",
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "1.5,4.5,2.25"

    def test_multiple_points(self, run, fixtures_dir):
        code, out, _ = run(
            "eval", fixture(fixtures_dir, "example2.fde"), "--at", "0.1,0.2"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_empty_time_list_is_refused(self, run, fixtures_dir):
        code, out, err = run("eval", fixture(fixtures_dir, "example2.fde"), "--at", ",")
        assert (code, out, err) == (2, "", "error: --at needs at least one time value\n")


class TestCompare:
    def test_exponential_fixture(self, run, fixtures_dir):
        code, out, _ = run(
            "compare", fixture(fixtures_dir, "example1.fde"),
            "--order", "12", "--interval", "0,0.3",
        )
        assert code == 0
        for line in out.strip().splitlines():
            measured = float(line.split("max_error=")[1].split()[0])
            assert measured <= 1e-8

    def test_polynomial_fixture_reports_exact_bound(self, run, fixtures_dir):
        code, out, _ = run("compare", fixture(fixtures_dir, "example2.fde"))
        assert code == 0
        assert "0 (exact)" in out
        for line in out.strip().splitlines():
            measured = float(line.split("max_error=")[1].split()[0])
            assert measured <= 1e-9

    def test_neutral_fixture_is_refused_with_term(self, run, fixtures_dir):
        code, _, err = run("compare", fixture(fixtures_dir, "example3.fde"))
        assert code == 2
        assert "u2'''@half" in err

    def test_reduced_neutral_fixture_is_supported(self, run, fixtures_dir):
        code, out, _ = run(
            "compare", fixture(fixtures_dir, "example3_u1.fde"),
            "--interval", "0,0.3", "--h", "1e-3",
        )
        assert code == 0
        measured = float(out.split("max_error=")[1].split()[0])
        assert measured <= 1e-6

    def test_bad_interval(self, run, fixtures_dir):
        code, _, err = run(
            "compare", fixture(fixtures_dir, "example2.fde"),
            "--interval", "0,2",
        )
        assert code == 2
        assert "interval" in err

    @pytest.mark.parametrize("interval", ["0,1.0000000000001", "0.5,1.0000000000001"])
    def test_interval_end_within_round_off_of_upper_reads_as_upper(
        self, run, fixtures_dir, interval
    ):
        path = fixture(fixtures_dir, "example2.fde")
        start = interval.split(",")[0]
        expected = run("compare", path, "--interval", f"{start},1", "--h", "0.01")
        assert expected[0] == 0
        assert run("compare", path, "--interval", interval, "--h", "0.01") == expected

    def test_interval_start_within_round_off_past_upper_is_refused(self, run, fixtures_dir):
        code, out, err = run(
            "compare", fixture(fixtures_dir, "example2.fde"),
            "--interval", "1.0000000000001,1.0000000000002", "--h", "0.01",
        )
        assert (code, out) == (2, "")
        assert err == "error: comparison interval [1, 1] must lie inside [0, 1]\n"

    def test_coarse_reference_exceeds_the_bound(self, run, fixtures_dir):
        """At --h 0.5 the reference, not the Taylor polynomial, is off."""
        code, out, err = run(
            "compare", fixture(fixtures_dir, "example1.fde"), "--order", "20", "--h", "0.5"
        )
        assert code == 4
        assert [line.split(":")[0] for line in out.splitlines()] == ["u1", "u2", "u3"]
        assert err == "error: measured error exceeds the truncation bound for u1, u2, u3\n"

    def test_reference_overflow_names_the_operation_once(self, run, tmp_path):
        # the radius of u' = 10*u^2 + u(t/2) from u(0) = 1 is about 0.1, so the
        # reference squares a value past the double range before t = 1
        path = tmp_path / "blowup.fde"
        path.write_text(SCALAR.replace("u@half - u", "10*u^2 + u@half"))
        code, out, err = run("compare", str(path), "--order", "20")
        assert (code, out, err) == (2, "", "error: equation 1: u^2 overflows at t = 0.0985\n")

    def test_error_text_prints_constants_as_the_file_writes_them(self, run, tmp_path):
        # the shortest text that reads back to the same double: 0.1, not
        # 0.10000000000000001
        path = tmp_path / "pole.fde"
        path.write_text(SCALAR.replace("u@half - u", "u@half / (t - 0.1)"))
        code, out, err = run("compare", str(path), "--h", "0.05")
        assert (code, out) == (2, "")
        assert err == "error: equation 1: division by zero in u@half / (t - 0.1) at t = 0.1\n"


class TestExitContract:
    def test_missing_file(self, run):
        code, _, err = run("info", "no-such-file.fde")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "old, new, expected, command, message",
        [
            pytest.param("horizon = 1", "horizon = 1\n= 3", 1, "solve", None, id="missing_key"),
            pytest.param("order = 1", "order = 1.5", 1, "solve", None, id="fractional_order"),
            pytest.param(
                "taylor_order = 10",
                "taylor_order = 10\nhorizon = 1e6",
                1,
                "solve",
                "duplicate 'horizon' section (line 8, column 0)",
                id="repeated_horizon",
            ),
            pytest.param("order = 1", "order = inf", 1, "solve", None, id="infinite_order"),
            pytest.param(
                "taylor_order = 10", "taylor_order = 1.5", 1, "solve", None,
                id="fractional_taylor",
            ),
            pytest.param(
                "taylor_order = 10", "taylor_order = inf", 1, "solve", None,
                id="infinite_taylor",
            ),
            pytest.param("init u = [1]", "init u = [inf]", 2, "solve", None, id="infinite_init"),
            pytest.param(
                "horizon = 1", "horizon = inf", 2, "compare", None, id="infinite_horizon"
            ),
            pytest.param(
                "delay half = proportional(1/2)",
                "delay half = constant(inf)\nphi u = 1",
                2,
                "info",
                "bad.fde:3: constant delay must be finite, got inf",
                id="infinite_constant_lag",
            ),
            pytest.param(
                "delay half = proportional(1/2)",
                "delay half = vary(exp(1000*t))\nphi u = 1",
                2,
                "solve",
                None,
                id="overflowing_lag",
            ),
            pytest.param(
                "u@half - u", "exp(u)", 2, "compare", None, id="overflowing_reference"
            ),
            pytest.param(
                "horizon = 1", "horizon = 1e308", 2, "compare", None, id="huge_horizon"
            ),
            pytest.param("u@half - u", "u^1e999", 1, "solve", None, id="overflowing_exponent"),
            pytest.param("u@half - u", "1e999*u", 1, "solve", None, id="overflowing_literal"),
            pytest.param(
                "u@half - u", "u^(1e300/1e-300)", 1, "solve", None,
                id="overflowing_exponent_quotient",
            ),
            pytest.param(
                "delay half = proportional(1/2)",
                "delay half = vary(t^1e999 + 1)\nphi u = 1",
                1,
                "solve",
                None,
                id="overflowing_lag_literal",
            ),
            pytest.param(
                "delay half = proportional(1/2)",
                "delay half = vary(2 + sin(t*1e300*1e300))\nphi u = 1",
                2,
                "solve",
                None,
                id="sine_of_infinity",
            ),
            pytest.param(
                "u@half - u",
                "u + (",
                1,
                "solve",
                "expected a number, 't', a function call or a state reference, "
                "found 'end of input' (line 4, column 14)",
                id="unclosed_parenthesis",
            ),
            pytest.param(
                "delay half = proportional(1/2)",
                "delay half = vary(1 + * t)\nphi u = 1",
                1,
                "solve",
                "expected a number, 't', a function call or a state reference, "
                "found '*' (line 3, column 23)",
                id="bad_lag_expression",
            ),
            pytest.param(
                "horizon = 1",
                "phi u = exp(t\nhorizon = 1",
                1,
                "solve",
                "expected ')', found 'end of input' (line 6, column 14)",
                id="bad_history_expression",
            ),
            pytest.param(
                "u@half - u",
                " + ".join(["u@half"] * 1200),
                1,
                "solve",
                "expression is more than 250 levels deep (line 4, column 9)",
                id="long_sum",
            ),
            pytest.param(
                "u@half - u",
                "(" * 150 + "u@half" + ")" * 150,
                1,
                "solve",
                "parentheses nest deeper than 100 levels (line 4, column 109)",
                id="deep_parentheses",
            ),
            pytest.param(
                "eq u' = u@half - u",
                "eq u' = u@half - u\neq w' = u",
                1,
                "solve",
                "equation for unknown variable 'w' (line 5, column 0)",
                id="equation_for_unknown_variable",
            ),
            pytest.param(
                "init u = [1]",
                "init u = [1]\ninit w = [1]",
                1,
                "solve",
                "initial data for unknown variable 'w' (line 6, column 0)",
                id="init_for_unknown_variable",
            ),
            pytest.param(
                "init u = [1]",
                "init u = [1]\ninit u = [2]",
                1,
                "solve",
                "duplicate initial data for 'u' (line 6, column 0)",
                id="duplicate_init",
            ),
            pytest.param(
                "horizon = 1",
                "phi w = 1\nhorizon = 1",
                1,
                "solve",
                "history for unknown variable 'w' (line 6, column 0)",
                id="history_for_unknown_variable",
            ),
            pytest.param(
                "delay half = proportional(1/2)",
                "delay half = constant(1)\nphi u = 1\nphi u = 2",
                1,
                "solve",
                "duplicate history for 'u' (line 5, column 0)",
                id="duplicate_history",
            ),
            pytest.param(
                "init u = [1]", "", 2, "solve", "bad.fde: missing initial data for u",
                id="missing_init",
            ),
            pytest.param(
                "proportional(1/2)",
                "proportional(1/x)",
                1,
                "solve",
                "bad rational literal '1/x' (line 3, column 0)",
                id="bad_rational_literal",
            ),
            pytest.param(
                "vars = u", "vars = u, u", 1, "solve",
                "duplicate variable names (line 1, column 0)",
                id="duplicate_variable_names",
            ),
            pytest.param(
                "delay half", "delay 2half", 1, "solve",
                "bad delay name '2half' (line 3, column 0)",
                id="bad_delay_name",
            ),
            pytest.param(
                "delay half = proportional(1/2)",
                "delay half = vary(-1 + t)\nphi u = 1",
                2,
                "solve",
                "delay 'half': lag is negative at t = 0",
                id="negative_lag_at_start",
            ),
        ],
    )
    def test_malformed_file_gets_its_exit_code_and_one_line(
        self, run, tmp_path, old, new, expected, command, message
    ):
        path = tmp_path / "bad.fde"
        path.write_text(SCALAR.replace(old, new, 1))
        code, out, err = run(command, str(path), *(["--json"] if command == "solve" else []))
        assert (code, out) == (expected, "")
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
        if message is not None:
            assert err == f"error: {message}\n"

    def test_sine_of_infinity_names_the_argument(self, run, tmp_path):
        path = tmp_path / "sine.fde"
        path.write_text(
            SCALAR.replace("proportional(1/2)", "vary(2 + sin(t*1e300*1e300))\nphi u = 1")
        )
        code, _, err = run("solve", str(path))
        assert code == 2
        assert "sin of non-finite argument inf in sin(" in err and "at t=0.001" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "--interval", "0.5"], "--interval needs two numbers a,b, got '0.5'"),
            (
                ["compare", "--interval", "a,b"],
                "--interval needs comma-separated numbers, got 'a,b'",
            ),
            (["eval", "--at", "x"], "--at needs comma-separated numbers, got 'x'"),
            (["compare", "--h", "nan"], "step size must be positive, got nan"),
            (["compare", "--h", "inf"], "step size must be finite, got inf"),
            (["solve", "--order", "0"], "truncation order must be at least 1, got 0"),
            (["compare", "--order", "0"], "truncation order must be at least 1, got 0"),
            (["solve", "--order", "100000"], "truncation order must be at most 500, got 100000"),
            (
                ["eval", "--at", "0.1", "--order", "501"],
                "truncation order must be at most 500, got 501",
            ),
            (["compare", "--order", "501"], "truncation order must be at most 500, got 501"),
            (["eval", "--at", "inf", "--unchecked"], "--at needs finite numbers, got inf"),
            (["eval", "--at", "0.1,nan"], "--at needs finite numbers, got nan"),
            (["compare", "--interval", "0,inf"], "--interval needs finite numbers, got inf"),
            (["compare", "--samples", "1"], "--samples must lie in [2, 10000], got 1"),
            (
                ["compare", "--samples", "100000000"],
                "--samples must lie in [2, 10000], got 100000000",
            ),
            # a ratio past 2**53 is no exact step count, so none is printed
            (["compare", "--h", "1e-300"], "step size 1e-300 cuts [0, 1] into too many steps"),
            # an empty interval is refused as empty, though it lies inside [0, upper]
            (["compare", "--interval", "0.5,0.5"], "comparison interval [0.5, 0.5] is empty"),
            (["compare", "--interval", "0.7,0.3"], "comparison interval [0.7, 0.3] is empty"),
        ],
    )
    def test_bad_flag_value_gets_one_line(self, run, tmp_path, argv, message):
        path = tmp_path / "scalar.fde"
        path.write_text(SCALAR)
        code, out, err = run(argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--at", "abc"], "--at needs comma-separated numbers, got 'abc'"),
            (["--at", ",", "--order", "500"], "--at needs at least one time value"),
        ],
    )
    def test_eval_checks_at_before_solving(self, run, fixtures_dir, argv, message):
        # example3 stops at a zero pivot (exit 3) once solved: --at is
        # refused before that, and before a solve at the largest order
        code, out, err = run("eval", str(fixtures_dir / "example3.fde"), *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unwritable_out_gets_one_line(self, run, tmp_path, fixtures_dir):
        taken = tmp_path / "taken.txt"
        taken.write_text("")
        code, out, err = run("solve", str(fixtures_dir), "--all", "--out", str(taken))
        assert (code, out, err) == (
            2, "", f"error: cannot make the output directory {taken}: File exists\n"
        )
        path = tmp_path / "scalar.fde"
        path.write_text(SCALAR)
        missing = tmp_path / "missing" / "x.txt"
        for argv in (["solve"], ["eval", "--at", "0.1"]):
            code, out, err = run(argv[0], str(path), *argv[1:], "--out", str(missing))
            assert (code, out, err) == (
                2, "", f"error: cannot write {missing}: No such file or directory\n"
            )

    def test_system_order_is_bounded(self, run, tmp_path):
        # the march scales coefficient k+n by (k+n)!/k! as a double: at
        # N = 500 order 120 overflowed it and exited 1 with a traceback
        def write(n, rhs="u@h"):
            path = tmp_path / f"order{n}.fde"
            path.write_text(
                f"order = {n}\nvars = u\ndelay h = proportional(1/2)\ndelay c = constant(1)\n"
                f"eq u{chr(39) * n} = {rhs}\nphi u = 1\n"
                f"init u = [{', '.join(['1'] + ['0'] * (n - 1))}]\nhorizon = 1\n"
                "taylor_order = 500\n"
            )
            return str(path)

        at_bound = write(100)
        assert run("info", at_bound)[0] == 0
        assert run("solve", at_bound)[0] == 0
        # the worst case measured: a top-order constant-lag history leaf
        assert run("solve", write(100, rhs="u" + "'" * 100 + "@c"))[0] == 0
        for n in (101, 120):
            path = write(n)
            for argv in (["info"], ["solve"], ["eval", "--at", "0.1"], ["compare"]):
                code, out, err = run(argv[0], path, *argv[1:])
                assert (code, out, err) == (
                    2, "", f"error: order{n}.fde: system order must be at most 100, got {n}\n"
                )

    def test_truncation_order_in_the_file_is_bounded(self, run, tmp_path):
        path = tmp_path / "huge.fde"
        path.write_text(SCALAR.replace("taylor_order = 10", "taylor_order = 100000"))
        for argv in (["solve"], ["eval", "--at", "0.1"], ["compare"]):
            code, out, err = run(argv[0], str(path), *argv[1:])
            assert (code, out, err) == (
                2, "", "error: truncation order must be at most 500, got 100000\n"
            )
        path.write_text(SCALAR.replace("taylor_order = 10", "taylor_order = 500"))
        assert run("solve", str(path), "--json")[0] == 0

    def test_history_table_work_is_bounded(self, run, tmp_path):
        # one power table of about N^3 work per time-varying delay: thirty
        # at N = 500 would take about a minute, and are refused up front
        delays = "".join(f"delay d{i} = vary({1 + i / 10} + t*t/{i + 2})\n" for i in range(30))
        path = tmp_path / "lags.fde"
        path.write_text(
            "order = 1\nvars = u\n" + delays
            + "eq u' = " + " + ".join(f"u@d{i}" for i in range(30)) + "\n"
            + "phi u = exp(t/3)\ninit u = [1]\nhorizon = 1\ntaylor_order = 500\n"
        )
        code, out, err = run("solve", str(path))
        assert (code, out, err) == (
            2, "", "error: history substitution at truncation order 500 expands at most "
            "2 time-varying delays, got 30\n",
        )
        assert run("solve", str(path), "--order", "20")[0] == 0

    def test_lags_folded_to_constants_take_no_table_budget(self, run, tmp_path):
        # vary(1/2) folds to a constant lag, whose inner series is t: it
        # builds no power table, and is solved as constant(1/2) is
        rows = []
        for law in ("vary", "constant"):
            path = tmp_path / f"{law}.fde"
            path.write_text(
                "order = 1\nvars = u\n"
                + "".join(
                    f"delay {d} = {law}({lag})\n" for d, lag in zip("abc", ("1/2", "1/4", "3/4"))
                )
                + "eq u' = -u@a - u@b - u@c\nphi u = 1\ninit u = [1]\nhorizon = 1\n"
                "taylor_order = 500\n"
            )
            code, out, _ = run("solve", str(path))
            assert code == 0
            rows.append(next(line for line in out.splitlines() if line.startswith("u:")))
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("law", ["vary(1/2 + t^2/4)", "constant(1/2)"])
    def test_overflowing_derivative_of_a_history_expansion_gets_one_line(
        self, run, tmp_path, law
    ):
        # the expansion of phi'' about -1/2 is finite, and its derivative
        # shift overflows at index 4
        path = tmp_path / "overflow.fde"
        path.write_text(
            f"order = 2\nvars = u\ndelay d = {law}\neq u'' = u''@d\n"
            "phi u = 1e306*exp(9*t)\ninit u = [1e306, 9e306]\nhorizon = 1\ntaylor_order = 20\n"
        )
        assert run("solve", str(path)) == (2, "", "error: non-finite coefficient inf at index 4\n")

    def test_non_finite_evaluated_value_gets_one_line(self, run, fixtures_dir):
        code, out, err = run(
            "eval", fixture(fixtures_dir, "example2.fde"), "--at", "0.1,1e200", "--unchecked"
        )
        assert (code, out, err) == (2, "", "error: u1 at t = 1e+200 evaluates to inf\n")

    def test_unreadable_problem_file_gets_one_line(self, run, tmp_path):
        binary = tmp_path / "binary.fde"
        binary.write_bytes(b"order = 1\n\xff\xfe\n")
        for path in (tmp_path, binary):
            code, out, err = run("info", str(path))
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_overflowing_constant_term_is_a_marching_error(self, run, tmp_path):
        path = tmp_path / "overflow.fde"
        path.write_text(SCALAR.replace("u@half - u", "exp(u@half)").replace("[1]", "[1000]"))
        code, out, err = run("solve", str(path))
        assert (code, out) == (3, "")
        assert err == (
            "error: equation 1, marching index 0: exp overflows at constant "
            "term 1000.0 in exp(u1@half)\n"
        )

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_overflowing_sum_of_terms_is_a_marching_error_at_every_order(
        self, run, tmp_path, order
    ):
        # each term is finite and their sum is not; the coefficient at
        # index 2 is refused where it is made, whether or not a later round
        # or the truncated series reads it
        path = tmp_path / "sum.fde"
        path.write_text(
            "order = 2\nvars = u\neq u'' = 1e308*u + 1e308*u\ninit u = [1, 0]\n"
            "horizon = 1\ntaylor_order = 4\n"
        )
        code, out, err = run("solve", str(path), "--order", str(order))
        assert (code, out, err) == (
            3, "", "error: equation 1, marching index 0: non-finite coefficient inf at index 2\n"
        )

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_lag_ahead_of_zero_right_after_zero_is_refused(self, run, tmp_path, command):
        # the argument t/2 reads u itself, not phi: solve printed the
        # coefficient 2 as -0.25 (the pantograph value is +0.25), and compare
        # agreed with it, because the oracle ran the same reduced system
        path = tmp_path / "pantograph.fde"
        path.write_text(
            "order = 1\nvars = u\ndelay d = vary(t/2)\neq u' = -u@d\nphi u = exp(t)\n"
            "init u = [1]\nhorizon = 1\ntaylor_order = 5\n"
        )
        code, out, err = run(command, str(path))
        assert (code, out, err) == (
            2, "", "error: delay 'd': lag is 0 at t = 0 and the delayed argument is ahead "
            "of 0 right after it; write it as a proportional delay\n",
        )

    def test_non_finite_reference_is_refused(self, run, tmp_path):
        path = tmp_path / "cube.fde"
        path.write_text(SCALAR.replace("u@half - u", "u*u*u").replace("[1]", "[10]"))
        code, out, err = run("compare", str(path))
        assert (code, out, err) == (
            2, "", "error: the reference solution is not finite at t = 0.007\n"
        )

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_bound_past_order_169_is_printed(self, run, tmp_path, command):
        # 170! is the first factorial past a double; the bound never needs one
        path = tmp_path / "square.fde"
        path.write_text(SCALAR.replace("u@half - u", "u*u").replace("[1]", "[0.5]"))
        for order in ("169", "170", "500"):
            code, out, err = run(command, str(path), "--order", order)
            assert (code, err) == (0, "")
            assert re.search(r"\bu.*[0-9]e-[0-9]+$", out.splitlines()[-1])

    def test_bound_whose_power_of_delta_overflows_is_printed(self, run, tmp_path):
        # 900**105 is past a double, but the bound itself is about 1.6e-7
        path = tmp_path / "slow.fde"
        path.write_text(
            SCALAR.replace("u@half - u", "u*u").replace("[1]", "[0.001]")
            .replace("horizon = 1", "horizon = 900").replace("= 10", "= 104")
        )
        code, out, err = run("solve", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "error bound on [0, 900]: u=1.5684042572215676e-07"

    @pytest.mark.parametrize("module", ["taydel", "taydel.cli"])
    def test_module_entry_points_run_the_cli(self, fixtures_dir, module):
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        argv = ["solve", fixture(fixtures_dir, "example2.fde"), "--csv"]
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("var,k0,k1,")
        assert subprocess.run(
            [sys.executable, "-m", module], capture_output=True, env=env, timeout=60
        ).returncode == 2  # argparse: a subcommand is required

    def test_reference_step_budget_is_refused_before_integrating(self, tmp_path):
        path = tmp_path / "long.fde"
        path.write_text(SCALAR.replace("horizon = 1", "horizon = 1e6"))
        src = Path(__file__).resolve().parent.parent / "src"
        pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "taydel", "compare", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath),
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: --h 0.001 cuts [0, 1e+06] into 1000000000 reference steps, "
            "more than the budget of 100000; use a larger --h\n"
        )

    def test_reference_step_budget_is_checked_before_solving(self, run, tmp_path, monkeypatch):
        def refuse(reduced):
            raise AssertionError("solved a comparison whose reference is over budget")

        monkeypatch.setattr("taydel.engine.solve_reduced", refuse)
        path = tmp_path / "long.fde"
        path.write_text(SCALAR.replace("horizon = 1", "horizon = 101"))
        code, out, err = run("compare", str(path), "--interval", "0,100.001")
        assert (code, out) == (2, "")
        assert err.startswith("error: --h 0.001 cuts [0, 100.001] into 100001 reference steps")

    def test_cli_import_loads_only_the_standard_library(self):
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        code = (
            "import sys; bare = set(sys.modules); import taydel.cli; "
            "print(sorted(m for m in set(sys.modules) - bare "
            "if m.partition('.')[0] not in {*sys.stdlib_module_names, 'taydel'}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_cli_import_does_not_load_logging(self):
        """Nor dataclasses and inspect, which the value classes no longer
        need, nor the reference integrator, which only compare loads.  The
        child runs without ``site`` (``-S``) and with only ``src`` on its
        path: ``site`` itself can import ``inspect`` while it processes an
        installation's ``.pth`` files, before taydel loads."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, taydel.cli; "
            "print([m for m in ('logging', 'dataclasses', 'inspect', 'taydel.oracle') "
            "if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


SCALAR = """\
order = 1
vars = u
delay half = proportional(1/2)
eq u' = u@half - u
init u = [1]
horizon = 1
taylor_order = 10
"""

# the first equation reads the top derivative of the other variable through a
# proportional delay, which the H2 check refuses
H2 = """\
order = 1
vars = u, v
delay half = proportional(1/2)
eq u' = v'@half + u
eq v' = u
init u = [1]
init v = [0]
horizon = 1
taylor_order = 6
"""

# phi(0) = 5 against init 1: a warning, or exit 2 under --strict
MISMATCH = """\
order = 1
vars = u
delay d = constant(1)
eq u' = u@d
phi u = t + 5
init u = [1]
horizon = 1
taylor_order = 4
"""

MATRIX_COMMANDS = (
    ("info",),
    ("solve",),
    ("solve", "--json"),
    ("solve", "--csv", "--order", "25"),
    ("solve", "--strict"),
    ("eval", "--at", "0.1,0.2,0.3"),
    ("eval", "--at", "5"),
    ("compare",),
    ("compare", "--interval", "0,100"),
)


def test_command_matrix_output_is_unchanged(run, fixtures_dir, tmp_path):
    """sha256 over (argv, exit code, stdout, stderr) of every command line on
    the fixtures, an H2 file and a compatibility-mismatch file."""
    (tmp_path / "h2.fde").write_text(H2)
    (tmp_path / "mismatch.fde").write_text(MISMATCH)
    paths = sorted(fixtures_dir.glob("*.fde")) + [tmp_path / "h2.fde", tmp_path / "mismatch.fde"]
    digest = hashlib.sha256()
    for path in paths:
        for command, *flags in MATRIX_COMMANDS:
            result = run(command, str(path), *flags)
            digest.update(repr(((command, path.name, *flags), *result)).encode())
    assert digest.hexdigest() == (
        "057d43da9694ffb25c217264420d92105a3876f747a14abbd65fa044cab966a1"
    )


# fuzzing the exit contract -----------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_TEXTS = [path.read_text() for path in sorted(FIXTURES.glob("*.fde"))]
# values that break numbers and expressions; multi-digit runs are left out,
# since growing taylor_order into the thousands only makes a run slow
FUZZ_TOKENS = (
    "inf", "nan", "1e999", "1e308", "0/0", "exp(1000*t)", "sin(t*1e300*1e300)",
    "(-1)^(1/2)", "-", "^", "/", "(", ")", "=", "[", "]", ",", "'", "@half", "t", "u1",
)
# --interval bounds the reference integration: a horizon like 1e308 is
# accepted, and comparing over all of it would take for ever
COMMANDS = (
    ("info",),
    ("solve", "--json"),
    ("eval", "--at", "0.1,0.2"),
    ("compare", "--h", "1e-2", "--samples", "20", "--interval", "0,0.25"),
)


@st.composite
def mutated_fixture(draw) -> str:
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("insert", "delete", "shuffle", "long sum", "horizon")))
        if kind == "shuffle":
            text = "\n".join(draw(st.permutations(text.splitlines())))
            continue
        if kind == "horizon":
            # a huge horizon, which --interval bounds
            text = re.sub(r"(?m)^horizon\b.*$", "horizon = 1e6", text)
            continue
        if kind == "long sum":
            # past the parser's bound of 250 tree levels when the line is an eq
            lines = text.splitlines()
            row = draw(st.integers(0, len(lines) - 1))
            lines[row] += " + u1" * draw(st.integers(251, 300))
            text = "\n".join(lines)
            continue
        at = draw(st.integers(0, len(text)))
        if kind == "insert":
            glue = draw(st.sampled_from(("", " ", " + ", " * ")))
            text = text[:at] + glue + draw(st.sampled_from(FUZZ_TOKENS)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
    return text


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=mutated_fixture())
def test_mutated_fixtures_keep_the_exit_contract(text):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "fuzz.fde"
        path.write_text(text)
        for command, *flags in COMMANDS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = main([command, str(path), *flags])
            assert code in range(5), (command, code)
            if code:
                assert err.getvalue().count("error: ") <= 1, err.getvalue()


def test_readme_problem_file_example_parses(run, tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```\n(# comments run to end of line\n.*?)```", readme, re.S)
    path = tmp_path / "readme.fde"
    path.write_text(block.group(1))
    code, out, err = run("info", str(path))
    assert (code, err) == (0, "")
    assert "neutral: yes" in out
