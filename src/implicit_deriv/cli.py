"""Command-line front end.

Subcommands: expand, partitions, count, verify, compare-cf, eval.  Results go
to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage error,
2 verification or count disagreement, 3 numeric/singularity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from . import counting, oracle
from .expressions import ExpressionSyntaxError, parse_expression
from .formula import build_formula, cf_notation, cf_original_coefficient, render
from .numeric import (
    EvalConfig,
    derivative_table,
    evaluate_formula,
    finite_difference_check,
    implicit_solve,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_NUMERIC = 3


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="implicit-deriv",
        description="Exact expansions of d^n y/dx^n for implicitly defined y(x).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the order-n expansion")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")

    p = sub.add_parser("partitions", help="list the formula partitions of order n")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("count", help="print term counts a(1..N)")
    p.add_argument("--max", type=_positive_int, required=True)
    p.add_argument("--method", choices=("enum", "gf", "both"), default="gf")

    p = sub.add_parser("verify", help="check the expansion against brute force")
    p.add_argument("--max", type=_positive_int, default=8)
    p.add_argument(
        "--cf-mode",
        action="store_true",
        help="use the original 1974 coefficients; succeeds when the brute "
        "force disagrees by exactly the predicted q factors",
    )
    p.add_argument("--json", action="store_true", help="one JSON report per line")
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser("compare-cf", help="corrected vs 1974 coefficients")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument(
        "--count", action="store_true", help="compare term counts instead of terms"
    )

    p = sub.add_parser("eval", help="evaluate d^n y/dx^n numerically")
    p.add_argument("--expr", required=True, help="F(x, y), e.g. 'x^2+y^2-1'")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument(
        "--solve-y",
        type=float,
        metavar="GUESS",
        help="derive y by Newton iteration from this guess",
    )
    p.add_argument("--fd-check", action="store_true")
    return parser


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _cmd_expand(args) -> int:
    print(render(build_formula(args.n), args.format))
    return EXIT_OK


def _cmd_partitions(args) -> int:
    formula = build_formula(args.n)
    if args.format == "json":
        print(render(formula, "json"))
        return EXIT_OK
    for term in formula.terms:
        weight = abs(term.coefficient)
        sign = "-" if term.coefficient < 0 else "+"
        print(f"{term.partition}  size={term.partition.size}  weight={weight}  sign={sign}")
    return EXIT_OK


def _cmd_count(args) -> int:
    status = EXIT_OK
    if args.method != "enum":
        table = counting.series_table(args.max - 1, args.max)
    for n in range(1, args.max + 1):
        if args.method == "enum":
            count = counting.term_count_enum(n)
        else:
            count = int(table[n - 1][n])
        if args.method == "both":
            enumerated = counting.term_count_enum(n)
            if enumerated != count:
                print(
                    f"count disagreement at n={n}: gf={count} enum={enumerated}",
                    file=sys.stderr,
                )
                status = EXIT_DISAGREEMENT
                continue
        print(f"{n} {count}")
    return status


def _predicted_q_factors(n: int) -> dict:
    """Partitions of order n whose 1974 coefficient overshoots, with factor."""
    return {
        term.partition: q
        for term in build_formula(n).terms
        if (q := cf_notation(term.partition).q) > 1
    }


def _verify_one(task: tuple[int, bool]) -> "oracle.ComparisonReport":
    n, cf_mode = task
    return oracle.compare_with_formula(n, cf_original=cf_mode)


def _cmd_verify(args) -> int:
    tasks = [(n, args.cf_mode) for n in range(1, args.max + 1)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_verify_one, tasks))
    else:
        reports = [_verify_one(task) for task in tasks]

    status = EXIT_OK
    for report in reports:
        if args.json:
            print(json.dumps(report.to_json()))
        term_count = len(build_formula(report.n).terms)
        if not args.cf_mode:
            if report.status == "equal":
                if not args.json:
                    print(f"n={report.n} equal ({term_count} terms)")
            else:
                if not args.json:
                    print(f"n={report.n} MISMATCH")
                status = EXIT_DISAGREEMENT
            continue
        # cf mode: the mismatches must be exactly the terms with q > 1,
        # each off by its own factor q.
        predicted = _predicted_q_factors(report.n)
        seen = {m.partition: m for m in report.coefficient_mismatches}
        as_predicted = (
            not report.missing
            and not report.extra
            and set(seen) == set(predicted)
            and all(m.found == m.expected * predicted[p] for p, m in seen.items())
        )
        if as_predicted:
            if not args.json:
                print(
                    f"n={report.n} mismatch as predicted "
                    f"({len(predicted)}/{term_count} terms off by their q factor)"
                )
        else:
            if not args.json:
                print(f"n={report.n} UNEXPECTED DISCREPANCY")
            status = EXIT_DISAGREEMENT
    return status


def _cmd_compare_cf(args) -> int:
    if args.count:
        a_n = counting.term_count_gf(args.n)
        cf = counting.cf_term_count(args.n)
        marker = "agree" if cf == a_n else "disagree"
        print(f"n={args.n} cf_count={cf} a={a_n} {marker}")
        return EXIT_OK
    print("partition  corrected  cf_original  q")
    for term in build_formula(args.n).terms:
        q = cf_notation(term.partition).q
        sign = -1 if term.coefficient < 0 else 1
        original = sign * cf_original_coefficient(term.partition)
        print(f"{term.partition}  {term.coefficient:+d}  {original:+d}  {q}")
    return EXIT_OK


def _cmd_eval(args, parser) -> int:
    if (args.y is None) == (args.solve_y is None):
        parser.error("exactly one of --y and --solve-y is required")
    try:
        expression = parse_expression(args.expr)
    except ExpressionSyntaxError as exc:
        print(f"cannot parse --expr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = EvalConfig()
    try:
        if args.solve_y is not None:
            y = implicit_solve(expression, args.x, args.solve_y, config)
        else:
            y = args.y
        table = derivative_table(expression, args.x, y, args.n, config)
        value = evaluate_formula(args.n, table, config)
        print(_format_number(value))
        if args.fd_check:
            check = finite_difference_check(expression, args.x, y, args.n, config)
            print(f"fd {_format_number(check.fd_value)}")
            print(f"diff {_format_number(check.abs_diff)}")
    except (ArithmeticError, ValueError, KeyError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "partitions":
            return _cmd_partitions(args)
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "compare-cf":
            return _cmd_compare_cf(args)
        if args.command == "eval":
            return _cmd_eval(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
