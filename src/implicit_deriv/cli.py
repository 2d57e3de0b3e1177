"""Command-line front end.

Subcommands: expand, partitions, count, verify, compare-cf, eval.  Results go
to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage error,
2 verification or count disagreement, 3 numeric/singularity error, 141
stdout closed by its reader before the output was complete.

expand, partitions and compare-cf write each term as the partition walk
yields it, so their memory does not grow with the number of terms.  The JSON
header's term_count comes from the generating function before any term is
walked, so JSON accepts orders up to MAX_COUNT_ORDER only; if the terms
written differ from it in number, the command exits 2 with a message on
stderr, and stdout stops short of the closing "]}".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from typing import Iterable, Iterator, Mapping

from . import counting, oracle
from .counting import MAX_COUNT_ORDER
from .expressions import ExpressionSyntaxError, parse_expression
# build_formula, cf_notation, cf_original_coefficient and render are unused
# here; they stay bound because bench/trace_child.py wraps them under these
# names.
from .formula import (  # noqa: F401
    FormulaTerm,
    TermCountMismatch,
    build_formula,
    cf_notation,
    cf_original_coefficient,
    cf_original_terms,
    formula_terms,
    render,
    render_chunks,
)
from .numeric import (
    MAX_EVAL_ORDER,
    derivative_table,
    evaluate_formula,
    finite_difference_check,
    implicit_solve,
)
from .oracle import MAX_VERIFY_ORDER
from .partitions import Partition2D

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_NUMERIC = 3
# 128 + SIGPIPE: what a shell reports for a writer that a closed pipe ends.
EXIT_CLOSED_PIPE = 141

# Chunks joined into one stdout write by the streaming commands.
_WRITE_BATCH = 1024


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument for a value, not an option, when it
        # looks like a negative number, but its own pattern admits only
        # -123 and -1.5: "--x -1e-3" would read -1e-3 as an unknown option.
        # Anything that starts like a negative number is a value here; the
        # option's type then accepts or rejects it.  No option of this
        # parser starts with "-" and a digit.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, not {text!r}")
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
    p.set_defaults(run=_write_rendering)

    p = sub.add_parser("partitions", help="list the formula partitions of order n")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_partitions)

    p = sub.add_parser("count", help="print term counts a(1..N)")
    p.add_argument("--max", type=_positive_int, required=True)
    p.add_argument("--method", choices=("enum", "gf", "both"), default="gf")
    p.set_defaults(run=_cmd_count)

    p = sub.add_parser("verify", help="check the expansion against brute force")
    p.add_argument("--max", type=_positive_int, default=8)
    p.add_argument(
        "--cf-mode",
        action="store_true",
        help="use the original 1974 coefficients; succeeds when the brute "
        "force disagrees by exactly the predicted q factors",
    )
    p.add_argument("--json", action="store_true", help="one JSON report per line")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("compare-cf", help="corrected vs 1974 coefficients")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument(
        "--count", action="store_true", help="compare term counts instead of terms"
    )
    p.set_defaults(run=_cmd_compare_cf)

    p = sub.add_parser("eval", help="evaluate d^n y/dx^n numerically")
    p.add_argument("--expr", required=True, help="F(x, y), e.g. 'x^2+y^2-1'")
    p.add_argument("--x", type=_finite_float, required=True)
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--y", type=_finite_float)
    point.add_argument(
        "--solve-y",
        type=_finite_float,
        metavar="GUESS",
        help="derive y by Newton iteration from this guess",
    )
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--fd-check", action="store_true")
    p.set_defaults(run=_cmd_eval)
    return parser


def _format_number(value: float) -> str:
    if abs(value) < 1e16 and value == int(value):  # false for nan and inf
        return str(int(value))
    return repr(value)


def _write_chunks(chunks: Iterable[str]) -> None:
    """Write the chunks to stdout as they come, joined a batch at a time
    (a write call per term added about a quarter to `expand --n 15`'s
    time).  The terms made before a TermCountMismatch are written."""
    batch: list[str] = []
    try:
        for chunk in chunks:
            batch.append(chunk)
            if len(batch) == _WRITE_BATCH:
                sys.stdout.write("".join(batch))
                batch.clear()
    except TermCountMismatch:
        sys.stdout.write("".join(batch))
        raise
    sys.stdout.write("".join(batch))


def _write_rendering(args) -> int:
    """Write the order-n rendering to stdout term by term, then a newline.
    Only the JSON header holds a term count, so only JSON computes one."""
    n, fmt = args.n, args.format
    term_count = None
    if fmt == "json":
        command = f"{args.command} --format json"
        if _order_above_cap("--n", n, "MAX_COUNT_ORDER", MAX_COUNT_ORDER, command):
            return EXIT_USAGE
        term_count = counting.term_count_gf(n)
    try:
        _write_chunks(render_chunks(n, formula_terms(n), fmt, term_count))
    except TermCountMismatch as exc:
        print(f"term count disagreement at n={n}: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_partitions(args) -> int:
    if args.format == "json":
        return _write_rendering(args)
    _write_chunks(_partition_lines(args.n))
    return EXIT_OK


def _partition_lines(n: int) -> Iterator[str]:
    for term in formula_terms(n):
        weight = abs(term.coefficient)
        sign = "-" if term.coefficient < 0 else "+"
        yield f"{term.partition}  size={term.partition.size}  weight={weight}  sign={sign}\n"


def _order_above_cap(option: str, order: int, cap_name: str, cap: int, command: str) -> bool:
    """True, after a message on stderr, when the order exceeds its cap."""
    if order <= cap:
        return False
    print(
        f"{option} {order} is above {cap_name} = {cap}, the highest order {command} accepts",
        file=sys.stderr,
    )
    return True


def _cmd_count(args) -> int:
    if _order_above_cap("--max", args.max, "MAX_COUNT_ORDER", MAX_COUNT_ORDER, "count"):
        return EXIT_USAGE
    status = EXIT_OK
    if args.method != "enum":
        table = counting.series_table(args.max - 1)
    for n in range(1, args.max + 1):
        if args.method == "enum":
            count = counting.term_count_enum(n)
        else:
            count = table[n - 1][n]
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


def _verify_order(
    n: int, expected: Mapping[oracle.Monomial, int], cf_mode: bool
) -> tuple[oracle.ComparisonReport, dict[Partition2D, int]]:
    """Compare order n with `expected`, its brute-force expansion, in one
    pass over `formula_terms(n)`, with the 1974 coefficients in cf mode.
    Returns the report and the factor q of each term whose q exceeds 1
    (cf mode only)."""
    if not cf_mode:
        return oracle.compare_expansions(n, expected, formula_terms(n)), {}
    predicted: dict[Partition2D, int] = {}

    def originals() -> Iterator[FormulaTerm]:
        for term, original, q in cf_original_terms(formula_terms(n)):
            if q > 1:
                predicted[term.partition] = q
            yield original

    return oracle.compare_expansions(n, expected, originals()), predicted


def _cmd_verify(args) -> int:
    if _order_above_cap("--max", args.max, "MAX_VERIFY_ORDER", MAX_VERIFY_ORDER, "verify"):
        return EXIT_USAGE
    status = EXIT_OK
    # Each order is one step from the one below, which the step frees
    # before the terms are keyed, so the two peaks do not add up.  The
    # range comes first, so zip makes no order past --max.
    for n, expected in zip(range(1, args.max + 1), oracle.brute_force_expansions()):
        report, predicted = _verify_order(n, expected, args.cf_mode)
        # a passing order has one term per brute-force monomial
        if not args.cf_mode:
            ok = report.status == "equal"
            line = f"n={n} equal ({len(expected)} terms)" if ok else f"n={n} MISMATCH"
        else:
            # the mismatches must be exactly the terms with q > 1, each off
            # by its own factor q
            seen = {m.partition: m for m in report.coefficient_mismatches}
            ok = (
                not report.missing
                and not report.extra
                and set(seen) == set(predicted)
                and all(m.found == m.expected * predicted[p] for p, m in seen.items())
            )
            line = (
                f"n={n} mismatch as predicted "
                f"({len(predicted)}/{len(expected)} terms off by their q factor)"
                if ok else f"n={n} UNEXPECTED DISCREPANCY"
            )
        print(json.dumps(report.to_json()) if args.json else line)
        if not ok:
            status = EXIT_DISAGREEMENT
    return status


def _cmd_compare_cf(args) -> int:
    if args.count:
        if _order_above_cap("--n", args.n, "MAX_COUNT_ORDER", MAX_COUNT_ORDER, "compare-cf --count"):
            return EXIT_USAGE
        a_n = counting.term_count_gf(args.n)
        cf = counting.cf_term_count(args.n)
        marker = "agree" if cf == a_n else "disagree"
        print(f"n={args.n} cf_count={cf} a={a_n} {marker}")
        return EXIT_OK
    print("partition  corrected  cf_original  q")
    _write_chunks(_compare_cf_lines(args.n))
    return EXIT_OK


def _compare_cf_lines(n: int) -> Iterator[str]:
    for term, original, q in cf_original_terms(formula_terms(n)):
        yield f"{term.partition}  {term.coefficient:+d}  {original.coefficient:+d}  {q}\n"


def _cmd_eval(args) -> int:
    if _order_above_cap("--n", args.n, "MAX_EVAL_ORDER", MAX_EVAL_ORDER, "eval"):
        return EXIT_USAGE
    try:
        expression = parse_expression(args.expr)
    except ExpressionSyntaxError as exc:
        print(f"cannot parse --expr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            if args.solve_y is not None:
                y = implicit_solve(expression, args.x, args.solve_y)
            else:
                y = args.y
            table = derivative_table(expression, args.x, y, args.n)
            value = evaluate_formula(args.n, table)
            if not math.isfinite(value):
                raise ArithmeticError(f"d^{args.n}y/dx^{args.n} is not finite ({value!r})")
            lines = [_format_number(value)]
            if args.fd_check:
                fd = finite_difference_check(expression, args.x, y, args.n)
                if not math.isfinite(fd):
                    raise ArithmeticError(f"finite-difference estimate is not finite ({fd!r})")
                lines += [f"fd {_format_number(fd)}", f"diff {_format_number(abs(value - fd))}"]
            print("\n".join(lines))
        except (ArithmeticError, ValueError, KeyError) as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one plain stderr line, without the source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.run(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # No reader to tell; what is still buffered goes to devnull at exit.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
