"""CLI: output formats, schema validation, exit codes, determinism."""

import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from viscosym import cli
from viscosym.cli import run
from viscosym.expr import Num

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_cli(capsys, *args: str) -> tuple[int, str]:
    code = run(list(args))
    return code, capsys.readouterr().out


def run_json(capsys, name: str, *args: str):
    code, out = run_cli(capsys, *args)
    payload = json.loads(out)
    jsonschema.validate(payload, schema(name))
    return code, payload


class TestTable:
    def test_markdown_matches_published_table(self, capsys):
        code, out = run_cli(capsys, "table", "--format", "markdown")
        assert code == 0
        assert out == (
            "| [ , ] | X1 | X2 | X3 | X4 | X5 |\n"
            "| --- | --- | --- | --- | --- | --- |\n"
            "| X1 | 0 | 0 | 0 | -X2 | 0 |\n"
            "| X2 | 0 | 0 | 0 | X1 | 0 |\n"
            "| X3 | 0 | 0 | 0 | 0 | 0 |\n"
            "| X4 | X2 | -X1 | 0 | 0 | 0 |\n"
            "| X5 | 0 | 0 | 0 | 0 | 0 |\n")

    def test_json_schema(self, capsys):
        code, payload = run_json(capsys, "table", "table")
        assert code == 0
        assert payload["labels"] == ["X1", "X2", "X3", "X4", "X5"]


class TestAdjoint:
    def test_audit_exits_one_with_payload(self, capsys):
        code, payload = run_json(capsys, "adjoint-table", "adjoint-table")
        assert code == 1                      # known published-table mismatches
        assert payload["mismatch_count"] == 4
        flagged = {(c["t"], c["r"]) for c in payload["cells"] if not c["match"]}
        assert flagged == {(1, 2), (1, 4), (2, 1), (2, 4)}

    def test_matrix(self, capsys):
        code, payload = run_json(capsys, "adjoint-matrix", "adjoint-matrix", "--t", "4")
        assert code == 0
        assert payload["entries"][0][0] == "cos(s)"
        assert payload["entries"][1][0] == "-sin(s)"


class TestVerify:
    def test_symmetry_passes(self, capsys):
        code, payload = run_json(capsys, "verify", "verify", "--generator", "X4")
        assert code == 0
        assert payload["ok"] and payload["symbolic_zero"]
        assert payload["residual"] == "0"

    def test_parameters_are_bound_in_a_json_generator(self, capsys):
        # b*u in phi1 is 0*u under --param-b 0, as b is in the equation
        code, payload = run_json(
            capsys, "verify", "--param-b", "0", "verify", "--generator",
            '{"xi1":"x","xi2":"y","xi3":"2*t","phi1":"b*u","phi2":"-4*f"}')
        assert code == 0
        assert payload["ok"] and payload["symbolic_zero"]

    def test_a_small_parameter_is_bound_as_written(self, capsys):
        # a = 1e-10 once bound as the nearest fraction with denominator at
        # most 10^9, which is 0, and the check passed with residual 0
        code, payload = run_json(
            capsys, "verify", "--tol", "1e-12", "--param-a", "1e-10", "--param-b", "0",
            "verify", "--generator", '{"xi1":"x"}')
        assert code == 1
        assert payload["residual"] == "1/5000000000*u_xxt"

    @pytest.mark.parametrize("text, value", [
        ("2", 2), ("0.5", Fraction(1, 2)), ("-1.25", Fraction(-5, 4)), ("-1", -1),
        ("1e-10", Fraction(1, 10 ** 10)), ("0.1", Fraction(1, 10)), ("-0", 0),
        ("1." + "0" * 30 + "1", 1)])     # beyond a double's digits
    def test_parameter_values_are_exact_decimals(self, text, value):
        assert cli._param(text, "--param-a") is Num(value)

    def test_non_symmetry_fails(self, capsys):
        code, payload = run_json(capsys, "verify", "verify",
                                 "--generator", '{"xi1": "t"}')
        assert code == 1
        assert not payload["ok"]
        assert "u_xt" in payload["residual"]

    def test_combination(self, capsys):
        code, payload = run_json(capsys, "verify", "verify",
                                 "--generator", "X1 + 2*X3 - X5")
        assert code == 0 and payload["ok"]

    def test_parameters_are_bound_in_the_check(self, capsys):
        # with b = 0 the equation admits the dilation; a check that kept b
        # symbolic printed residual 0 next to ok false
        code, payload = run_json(
            capsys, "verify", "verify", "--param-b", "0", "--generator",
            '{"xi1":"x","xi2":"y","xi3":"2*t","phi2":"-4*f"}')
        assert code == 0
        assert payload["ok"] and payload["symbolic_zero"]
        assert payload["residual"] == "0"

    def test_parameters_are_bound_in_a_json_generator(self, capsys):
        # b*u in phi1 is 0*u under --param-b 0, as b is in the equation
        code, payload = run_json(
            capsys, "verify", "--param-b", "0", "verify", "--generator",
            '{"xi1":"x","xi2":"y","xi3":"2*t","phi1":"b*u","phi2":"-4*f"}')
        assert code == 0
        assert payload["ok"] and payload["symbolic_zero"]

    def test_a_small_parameter_is_bound_as_written(self, capsys):
        # a = 1e-10 once bound as the nearest fraction with denominator at
        # most 10^9, which is 0, and the check passed with residual 0
        code, payload = run_json(
            capsys, "verify", "--tol", "1e-12", "--param-a", "1e-10", "--param-b", "0",
            "verify", "--generator", '{"xi1":"x"}')
        assert code == 1
        assert payload["residual"] == "1/5000000000*u_xxt"

    @pytest.mark.parametrize("text, value", [
        ("2", 2), ("0.5", Fraction(1, 2)), ("-1.25", Fraction(-5, 4)), ("-1", -1),
        ("1e-10", Fraction(1, 10 ** 10)), ("0.1", Fraction(1, 10)), ("-0", 0),
        ("1." + "0" * 30 + "1", 1)])     # beyond a double's digits
    def test_parameter_values_are_exact_decimals(self, text, value):
        assert cli._param(text, "--param-a") is Num(value)


class TestOptimal:
    def test_published_example(self, capsys):
        code, payload = run_json(capsys, "optimal", "optimal",
                                 "--coeffs", "0,0,2,1,3")
        assert code == 0
        assert payload["class"] == 3
        assert payload["c1"] == pytest.approx(2)
        assert payload["c2"] == pytest.approx(3)
        assert payload["word"] == []

    def test_rotation_case(self, capsys):
        code, payload = run_json(capsys, "optimal", "optimal",
                                 "--coeffs", "3,4,0,0,0")
        assert code == 0
        assert payload["class"] == 2
        assert payload["word"][0]["t"] == 4
        assert payload["scale"] == pytest.approx(0.2)

    def test_subcase_label(self, capsys):
        code, payload = run_json(capsys, "optimal", "optimal",
                                 "--coeffs", "0,0,0,0,2")
        assert payload["label"] == "4b"


class TestReduce:
    def test_published_row_reports_diff_and_exits_one(self, capsys):
        code, payload = run_json(capsys, "reduce", "reduce", "--generator", "X1")
        assert code == 1                       # audit mismatch is the known outcome
        assert payload["table4_row"] == 1
        assert set(payload["diff_terms"]) == {"a*h_etaetaeta", "b*h_etaeta"}
        assert payload["verify"]["max_discrepancy"] < 1e-7

    def test_rotation_not_in_table_exits_zero(self, capsys):
        code, payload = run_json(capsys, "reduce", "reduce", "--generator", "X4")
        assert code == 0
        assert payload["table4_row"] is None
        assert payload["xi"] == "x^2 + y^2"

    def test_verify_reduction(self, capsys):
        code, payload = run_json(capsys, "verify-reduction",
                                 "verify-reduction", "--generator", "X2 + X3")
        assert code == 0
        assert payload["passed"]
        assert payload["max_discrepancy"] < 1e-7

    def test_reduce_decides_its_check_at_tol(self, capsys):
        # X4's discrepancy is about 3e-11: below the default 1e-7, above 1e-30
        code, payload = run_json(capsys, "reduce", "reduce", "--generator", "X4",
                                 "--tol=1e-30")
        assert code == 1
        assert payload["verify"]["max_discrepancy"] > 1e-30
        code, payload = run_json(capsys, "reduce", "reduce", "--generator", "X4")
        assert code == 0
        code, payload = run_json(capsys, "verify-reduction", "verify-reduction",
                                 "--generator", "X4", "--tol=1e-30")
        assert code == 1 and not payload["passed"]

    def test_numeric_parameter_override(self, capsys):
        code, payload = run_json(capsys, "reduce", "reduce", "--generator", "X3",
                                 "--param-b", "2")
        assert code == 1   # published row 3 mismatch
        assert payload["reduced_residual"] == "-g - 2*h_xixi - 2*h_etaeta"


class TestFlow:
    def test_csv_output(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.json"
        seeds.write_text("[[1.0, 0.0, 0.0]]")
        code, out = run_cli(capsys, "flow", "--generator", "X4",
                            "--seeds", str(seeds), "--eps", "0:6.283185307179586:5",
                            "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "seed_id,eps,x,y,t"
        assert len(lines) == 6

    def test_json_schema_and_projection(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.csv"
        seeds.write_text("1,0,0\n0,1,0\n")
        code, payload = run_json(capsys, "flow", "flow", "--generator", "X4",
                                 "--seeds", str(seeds), "--eps", "0:1:3",
                                 "--project-xy")
        assert code == 0
        assert payload["columns"] == ["seed_id", "eps", "x", "y"]
        assert len(payload["rows"]) == 6


class TestDetermining:
    def test_counts_and_solution_check(self, capsys):
        code, payload = run_json(capsys, "determining", "determining")
        assert code == 0
        assert payload["solution_check"] is True
        assert payload["published_count"] == 227
        assert payload["monomial_count"] > 50
        # the published count is reported, never asserted against
        assert "not asserted" in payload["count_comparison"]


class TestErrorsAndDeterminism:
    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["no-such-command"])
        assert err.value.code == 2

    def test_parse_error_exit_two(self, capsys):
        code = run(["verify", "--generator", "X1 + * X2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "byte" in captured.err

    def test_bad_seeds_file_exit_two(self, capsys):
        code, _ = run_cli(capsys, "flow", "--generator", "X4",
                          "--seeds", "/nonexistent.json", "--eps", "0:1:2")
        assert code == 2

    def test_byte_identical_reruns(self, capsys):
        outputs = []
        for _ in range(2):
            _, out = run_cli(capsys, "verify", "--generator",
                             '{"xi1": "t"}', "--seed", "7")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_env_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("VISCOSYM_FORMAT", "markdown")
        code, out = run_cli(capsys, "table")
        assert out.startswith("| [ , ] |")
        _, out = run_cli(capsys, "table", "--format=json")   # a flag still wins
        assert out.startswith("{")
        monkeypatch.setenv("VISCOSYM_SEED", "7")
        _, by_env = run_cli(capsys, "verify", "--generator", '{"xi1": "t"}')
        monkeypatch.delenv("VISCOSYM_SEED")
        _, by_flag = run_cli(capsys, "verify", "--generator", '{"xi1": "t"}', "--seed=7")
        assert by_env == by_flag

    def test_nesting_limit(self, capsys):
        code, payload = run_json(capsys, "verify", "verify",
                                 "--generator", "(" * 50 + "X1" + ")" * 50)
        assert code == 0 and payload["ok"]
        for depth in (300, 3000):
            code = run(["verify", "--generator", "(" * depth + "X1" + ")" * depth])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("error: nesting deeper than")
            assert "(at byte 100)" in captured.err

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        def broken(args, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_table", broken)
        code = run(["table"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_propagate(self, monkeypatch, exc):
        def stopped(args, config):
            raise exc()

        monkeypatch.setattr(cli, "_cmd_table", stopped)
        with pytest.raises(exc):
            run(["table"])

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "viscosym.cli", "optimal", "--coeffs", "0,0,7,0,2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["class"] == 4 and payload["c1"] == pytest.approx(2 / 7)


class TestInputValidation:
    """Malformed input exits 2 with one error line on stderr and no output."""

    SEEDS = {"good.json": "[[1, 0, 0]]", "short.json": "[[1.0, 2.0]]",
             "text.json": '[[1, "2", 3]]', "object.json": '{"x": 1}',
             "nan.json": "[[1, 2, NaN]]", "inf.csv": "1 2 inf\n",
             "huge.json": "[[1" + "0" * 400 + ", 0, 0]]"}

    @pytest.mark.parametrize("argv", [
        ["verify", "--generator", '{"xi1": 3}'],
        ["verify", "--generator", '{"zeta": "x"}'],
        ["verify", "--generator", '{"xi1": ["x"]}'],
        ["optimal", "--coeffs", "inf,1,0,0,0"],
        ["optimal", "--coeffs", "1,nan,0,0,0"],
        # a non-finite normalized vector, and a nonzero entry that underflows
        ["optimal", "--coeffs", "0,0,1,1e-310,0"],
        ["optimal", "--coeffs", "0,1e-200,0,0,1e200"],
        ["optimal", "--coeffs", "0,0,1,1e-400,0"],
        ["verify", "--generator", "X4", "--param-a", "inf"],
        ["verify", "--generator", "X4", "--param-b", "nan"],
        ["reduce", "--generator", "X1", "--param-a=-inf"],
        # a nonzero value that underflows, and a value that is no number
        ["verify", "--generator", "X4", "--param-a", "1e-400"],
        ["--param-b=abc", "verify", "--generator", "X4"],
        ["verify", "--generator", "X4", "--tol", "nan"],
        # a sampled check compares |value| < tol, so tol <= 0 never passes
        ["--tol=-1", "verify-reduction", "--generator=X1+X3"],
        ["--tol=-1", "verify", "--generator", '{"xi1": "t"}'],
        ["verify", "--generator", "X4", "--tol", "0"],
        ["flow", "--generator", "X1", "--seeds", "good.json", "--eps", "0:inf:3"],
        ["flow", "--generator", "X1", "--seeds", "good.json", "--eps", "nan:1:3"],
        ["flow", "--generator", "X1", "--seeds", "good.json", "--eps", "0:1:3",
         "--tol", "nan"],
        *[["flow", "--generator", "X4", "--seeds", name, "--eps", "0:1:5"]
          for name in ("short.json", "text.json", "object.json", "nan.json", "inf.csv",
                       "huge.json")],
        # flows whose spectrum has no closed form here: 1 +- i, and +-sqrt(2)
        ["flow", "--generator", '{"xi1": "x + y", "xi2": "y - x"}', "--seeds", "good.json",
         "--eps", "0:1:3"],
        ["flow", "--generator", '{"xi1": "2*y", "xi2": "x"}', "--seeds", "good.json",
         "--eps", "0:1:3"],
        # float overflow in the sampled fallback
        ["verify", "--generator", '{"xi1": "x^1000000"}'],
        ["verify", "--generator", '{"xi1": "exp(exp(exp(x)))"}'],
        ["verify", "--generator", '{"xi1": "10^400*x"}'],
    ], ids=" ".join)
    def test_exit_two(self, capsys, tmp_path, argv):
        for name, text in self.SEEDS.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / arg) if arg in self.SEEDS else arg for arg in argv]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_term_budget_bounds_an_angle_sum_power(self, capsys):
        # sin of a 5-term angle sum, cubed (507 terms) and prolonged, used to
        # run without bound: its third prolongation builds ever larger sums
        start = time.perf_counter()
        code = run(["verify", "--generator", '{"xi1": "sin(x+y+t+u+f)^3"}'])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: a ")
        assert captured.err.endswith(" terms, more than 2000\n")
        assert elapsed < 10

    @pytest.mark.parametrize("generator", [
        '{"xi1": "sqrt(10^800)*x"}',   # exact root beyond the double range
        '{"phi1": "10^300*u*x^400"}',  # inf - inf in a sampled sum
    ])
    def test_overflow_names_the_double_range(self, capsys, generator):
        code = run(["verify", "--generator", generator])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: numeric overflow: a value exceeds the double range\n"

    def test_flow_overflow_names_the_double_range(self, capsys, tmp_path):
        # finite eps bounds whose flow leaves the double range at the first point
        (tmp_path / "good.json").write_text(self.SEEDS["good.json"])
        code = run(["flow", "--generator", "X4 + X3", "--seeds", str(tmp_path / "good.json"),
                    "--eps=-1e308:1e308:3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: numeric overflow: a value exceeds the double range\n"

    def test_coefficient_underflow_is_rejected_but_zero_is_not(self, capsys):
        assert run(["optimal", "--coeffs", "0,0,1,1e-400,0"]) == 2
        assert capsys.readouterr().err == \
            "error: --coeffs entry '1e-400' is not zero but underflows to 0.0\n"
        assert run(["optimal", "--coeffs", "0,0,1,0,0"]) == 0
        plain = capsys.readouterr()
        assert run(["optimal", "--coeffs", "0,0,1,-0e-400,0.0"]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("var, flag, value", [("VISCOSYM_SEED", "--seed", "abc"),
                                                  ("VISCOSYM_FORMAT", "--format", "xml")])
    def test_bad_environment_default_fails_like_its_flag(self, capsys, monkeypatch,
                                                         var, flag, value):
        with pytest.raises(SystemExit) as by_flag:
            run([f"{flag}={value}", "table"])
        flag_err = capsys.readouterr().err
        monkeypatch.setenv(var, value)
        with pytest.raises(SystemExit) as by_env:
            run(["table"])
        captured = capsys.readouterr()
        assert by_env.value.code == by_flag.value.code == 2
        assert captured.out == ""
        assert captured.err == flag_err
        assert f"argument {flag}: invalid" in captured.err

    def test_eps_count_is_capped(self, capsys, tmp_path):
        # a short argv must not buy hours of sampling: N is checked before
        # any sample is taken
        seeds = tmp_path / "good.json"
        seeds.write_text(self.SEEDS["good.json"])
        start = time.perf_counter()
        code = run(["flow", "--generator", "X4", "--seeds", str(seeds),
                    "--eps", "0:1:1000000000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: eps sampling takes at most 100000 values, got 1000000000\n"
        assert elapsed < 1.0

    def test_flow_point_count_is_capped(self, capsys, tmp_path):
        # 100 seeds x 100000 values would hold 10^7 points at once: the
        # product is refused before any column is built
        seeds = tmp_path / "many.json"
        seeds.write_text(json.dumps([[1.0, 0.0, float(k)] for k in range(100)]))
        tracemalloc.start()
        try:
            code = run(["flow", "--generator", "X4", "--seeds", str(seeds),
                        "--eps", "0:1:100000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: flow sampling takes at most 1000000 points, "
                                "got 100 seeds x 100000 eps values = 10000000\n")
        assert peak < 2_000_000
