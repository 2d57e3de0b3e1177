import json
import math
import os
import subprocess
import sys

import pytest

import implicit_deriv
import implicit_deriv.cli as cli
import implicit_deriv.counting
import implicit_deriv.oracle
from implicit_deriv import DerivativeFormula, build_formula
from implicit_deriv.expressions import MAX_NESTING


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """The CLI in a fresh interpreter, so an uncaught error shows as a
    traceback on stderr rather than failing inside the test harness."""
    src = os.path.dirname(os.path.dirname(implicit_deriv.__file__))
    return subprocess.run(
        [sys.executable, "-m", "implicit_deriv.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestExpand:
    def test_text_order_two(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "2")
        assert code == 0
        assert out == "-Fxx/Fy + 2*Fx*Fxy/Fy^2 - Fx^2*Fyy/Fy^3\n"

    def test_latex_order_one(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "1", "--format", "latex")
        assert code == 0
        assert out == "-\\frac{F_{x}}{F_{y}}\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "implicit-deriv/1"
        assert payload["term_count"] == 9
        assert len(payload["terms"]) == 9
        for term in payload["terms"]:
            int(term["coefficient"])  # decimal strings
            assert isinstance(term["fy_exponent"], int)
            assert all(len(pair) == 2 for pair in term["partition"])

    def test_deterministic(self, capsys):
        first = run(capsys, "expand", "--n", "5", "--format", "json")
        second = run(capsys, "expand", "--n", "5", "--format", "json")
        assert first == second


class TestPartitions:
    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "partitions", "--n", "2")
        assert code == 0
        assert out.splitlines() == [
            "(2,0)  size=1  weight=1  sign=-",
            "(1,1)+(1,0)  size=2  weight=2  sign=+",
            "(1,0)^2+(0,2)  size=3  weight=1  sign=-",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "partitions", "--n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["term_count"] == 24


class TestCount:
    def test_table_lines(self, capsys):
        code, out, _ = run(capsys, "count", "--max", "5")
        assert code == 0
        assert out.splitlines() == ["1 1", "2 3", "3 9", "4 24", "5 61"]

    def test_methods_agree(self, capsys):
        for method in ("gf", "enum", "both"):
            code, out, _ = run(capsys, "count", "--max", "6", "--method", method)
            assert code == 0
            assert out.splitlines()[-1] == "6 145"

    def test_disagreement_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            implicit_deriv.counting, "term_count_enum", lambda n: 0
        )
        code, out, err = run(capsys, "count", "--max", "3", "--method", "both")
        assert code == 2
        assert "disagreement" in err


class TestVerify:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "4")
        assert code == 0
        assert out.splitlines() == [
            "n=1 equal (1 terms)",
            "n=2 equal (3 terms)",
            "n=3 equal (9 terms)",
            "n=4 equal (24 terms)",
        ]

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "3", "--json")
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in reports] == [1, 2, 3]
        assert all(r["status"] == "equal" for r in reports)
        assert all(r["coefficient_mismatches"] == [] for r in reports)

    def test_cf_mode_succeeds_on_predicted_mismatches(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "3", "--cf-mode")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n=1 mismatch as predicted (0/1")
        assert lines[1].startswith("n=2 mismatch as predicted (1/3")

    def test_parallel_jobs_match_sequential(self, capsys):
        sequential = run(capsys, "verify", "--max", "4")
        parallel = run(capsys, "verify", "--max", "4", "--jobs", "2")
        assert parallel == sequential

    def test_mutated_coefficient_exits_two(self, capsys, monkeypatch):
        real = build_formula

        def tampered(n):
            f = real(n)
            if n == 3:
                from dataclasses import replace

                bumped = replace(f.terms[0], coefficient=f.terms[0].coefficient * 5)
                return DerivativeFormula(n=n, terms=(bumped,) + f.terms[1:])
            return f

        monkeypatch.setattr(implicit_deriv.oracle, "build_formula", tampered)
        code, out, _ = run(capsys, "verify", "--max", "3")
        assert code == 2
        assert "n=3 MISMATCH" in out


class TestCompareCf:
    def test_per_term_table(self, capsys):
        code, out, _ = run(capsys, "compare-cf", "--n", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "partition  corrected  cf_original  q"
        assert "(1,1)^3+(1,0)^2+(0,2)  +600  +1200  2" in lines

    def test_order_two_table(self, capsys):
        code, out, _ = run(capsys, "compare-cf", "--n", "2")
        assert code == 0
        assert out.splitlines()[1:] == [
            "(2,0)  -1  -1  1",
            "(1,1)+(1,0)  +2  +2  1",
            "(1,0)^2+(0,2)  -1  -2  2",
        ]

    def test_count_mode(self, capsys):
        code, out, _ = run(capsys, "compare-cf", "--n", "2", "--count")
        assert code == 0
        assert out == "n=2 cf_count=2 a=3 disagree\n"


class TestEval:
    def test_circle_second_derivative(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "0", "--y", "1", "--n", "2"
        )
        assert code == 0
        assert out == "-1\n"

    def test_solve_y_then_evaluate(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--expr", "x-exp(y)", "--x", "1", "--solve-y", "0.5",
            "--n", "1",
        )
        assert code == 0
        assert out == "1\n"

    def test_fd_check_lines(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "0", "--y", "1",
            "--n", "2", "--fd-check",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "-1"
        assert lines[1].startswith("fd ")
        assert lines[2].startswith("diff ")
        assert abs(float(lines[1].split()[1]) + 1.0) < 1e-4

    def test_fd_check_solves_where_f_x_is_undefined(self, capsys):
        # the stencil point x0 - h is 0, where sqrt(x) has no x-derivative;
        # the Newton solve needs only F and F_y there
        code, out, _ = run(
            capsys, "eval", "--expr", "y-sqrt(x)", "--x", "0.001",
            "--y", repr(math.sqrt(0.001)), "--n", "1", "--fd-check",
        )
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0]) == pytest.approx(0.5 / math.sqrt(0.001), rel=1e-12)
        assert lines[1].startswith("fd ")

    def test_singular_point_exits_three(self, capsys):
        code, _, err = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "1", "--y", "0", "--n", "2"
        )
        assert code == 3
        assert "vertical tangent" in err

    def test_no_real_root_exits_three(self, capsys):
        code, _, err = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "2", "--solve-y", "1",
            "--n", "1",
        )
        assert code == 3
        assert "numeric error" in err

    def test_bad_expression_exits_one(self, capsys):
        code, _, err = run(
            capsys, "eval", "--expr", "x-*y", "--x", "1", "--y", "0", "--n", "1"
        )
        assert code == 1
        assert "offset 2" in err

    def test_deep_nesting_exits_one_without_traceback(self):
        expr = "(" * 3000 + "x" + ")" * 3000
        done = run_process("eval", "--expr", expr, "--x", "1", "--y", "0", "--n", "1")
        assert done.returncode == 1
        assert "cannot parse --expr" in done.stderr
        assert "Traceback" not in done.stderr

    def test_long_flat_chain_evaluates(self):
        # a 3000-term left-associative chain is a 3000-deep tree
        expr = "+".join(["x"] * 2999) + "-y"
        for y_source in (["--y", "2999"], ["--solve-y", "1"]):
            done = run_process("eval", "--expr", expr, "--x", "1", *y_source, "--n", "2")
            assert done.returncode == 0, done.stderr
            assert "Traceback" not in done.stderr
            assert done.stdout == "0\n"

    def test_calls_nested_to_the_limit_evaluate_quickly(self):
        # MAX_NESTING - 1 nested calls around x: the innermost x is the
        # deepest factor the parser admits
        depth = MAX_NESTING - 1
        expr = "sin(" * depth + "x" + ")" * depth + "+y"
        done = run_process("eval", "--expr", expr, "--x", "0.5", "--solve-y", "0", "--n", "8")
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        float(done.stdout)

    @pytest.mark.parametrize(
        "expr, x, n",
        [("log(x)+y", "-1", "2"), ("sqrt(x)+y", "0", "2"), ("1/(x-1)+y", "1", "2"),
         ("(x-1)^-1+y", "1", "2"), ("exp(1000*x)+y", "1", "2"),
         ("y-sqrt(x^2)", "0", "1"), ("y-sqrt(x^4)", "0", "2")],
    )
    def test_domain_errors_exit_three(self, capsys, expr, x, n):
        code, out, err = run(capsys, "eval", "--expr", expr, "--x", x, "--y", "0", "--n", n)
        assert code == 3
        assert out == ""
        assert "numeric error" in err

    def test_requires_exactly_one_y_source(self, capsys):
        code, _, _ = run(capsys, "eval", "--expr", "x-exp(y)", "--x", "1", "--n", "1")
        assert code == 1
        code, _, _ = run(
            capsys, "eval", "--expr", "x-exp(y)", "--x", "1", "--y", "0",
            "--solve-y", "0", "--n", "1",
        )
        assert code == 1


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "expand")[0] == 1

    def test_rejects_zero_order(self, capsys):
        assert run(capsys, "expand", "--n", "0")[0] == 1

    def test_unknown_format(self, capsys):
        assert run(capsys, "expand", "--n", "1", "--format", "html")[0] == 1
