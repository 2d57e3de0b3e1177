"""Command-line front end.

Subcommands: expand, partitions, count, verify, compare-cf, eval.  Results go
to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage error,
2 verification or count disagreement, or a term failing its check,
3 numeric/singularity error, 141 stdout closed by its reader before the
output was complete.

expand, partitions and compare-cf write each term as the partition walk
yields it, so their memory does not grow with the number of terms, and each
stdout write stays of bounded size whatever the order.  Their text and
LaTeX output and compare-cf's table accept orders up to MAX_STREAM_ORDER
(10^5): a term's factorials grow with the order, and at 10^6 the first term
alone takes 10 s.  The JSON header's term_count comes from the generating
function before any term is walked, so JSON accepts orders up to
MAX_COUNT_ORDER only; if the terms written differ from it in number, the
command exits 2 with a message on stderr, and stdout stops short of the
closing "]}".  A term that fails its check (an exact, positive weight and a
formula partition) ends the command the same way: the terms made before it
are written (in verify, the lines of the orders before it), one line goes
to stderr, and the status is 2.  `count --method enum` and `both` check
each walked head's first coordinates against the order, and end the same
way after the lines of the orders before it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from collections.abc import Iterable, Iterator
from itertools import chain, islice

from . import _forwarding

# Only the standard library loads with this module: each handler imports
# the package modules it runs, so a command loads only its own code.

# Names bound here for bench/trace_child.py (see `_forwarding`).  The
# formula four are not called here; `_cmd_eval` calls the other five as
# attributes of this module, so it calls whatever is bound here.
_FORWARDED = (
    "build_formula", "cf_notation", "cf_original_coefficient", "render",
    "parse_expression", "derivative_table", "evaluate_formula",
    "finite_difference_check", "implicit_solve",
)
__getattr__ = _forwarding(__name__, *_FORWARDED)


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_NUMERIC = 3
# 128 + SIGPIPE: what a shell reports for a writer that a closed pipe ends.
EXIT_CLOSED_PIPE = 141

# The streaming commands join _WRITE_BUDGET // n terms of order n (at least
# one, and 1024 or more up to n = 16) into one stdout write.  A term renders
# to O(n) bytes, up to about 3n subscript letters plus its coefficient's
# digits, so this bounds the size of a write whatever the order.
_WRITE_BUDGET = 1 << 14


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
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
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


def _write_terms(n: int, chunks: Iterable[str]) -> int:
    """Write an order-n stream of terms to stdout as they come, joined a
    batch at a time (a write call per term added about a quarter to
    `expand --n 15`'s time).  When a term fails its check or the JSON terms
    differ in number from the header, write the terms made before it, one
    line on stderr, and exit 2."""
    from .formula import TermCountMismatch
    from .partitions import TermCheckError

    batch: list[str] = []
    per_write = max(1, _WRITE_BUDGET // n)
    chunks = iter(chunks)
    message = None
    try:
        # list.extend keeps the items it took before the iterator raised,
        # so a failed check leaves the terms made before it in the batch.
        while True:
            batch.extend(islice(chunks, per_write))
            if len(batch) < per_write:
                break
            sys.stdout.write("".join(batch))
            batch.clear()
    except TermCountMismatch as exc:
        message = f"term count disagreement at n={n}: {exc}"
    except TermCheckError as exc:
        message = f"term check failed at n={n}: {exc}"
    sys.stdout.write("".join(batch))
    if message is None:
        return EXIT_OK
    print(message, file=sys.stderr)
    return EXIT_DISAGREEMENT


def _write_rendering(args) -> int:
    """Write the order-n rendering to stdout term by term, then a newline.
    Only the JSON header holds a term count, so only JSON computes one."""
    from .formula import render_chunks
    from .partitions import MAX_STREAM_ORDER, weighted_formula_heads

    n, fmt = args.n, args.format
    term_count = None
    if fmt == "json":
        from .counting import MAX_COUNT_ORDER, term_count_gf

        command = f"{args.command} --format json"
        if _order_above_cap("--n", n, "MAX_COUNT_ORDER", MAX_COUNT_ORDER, command):
            return EXIT_USAGE
        term_count = term_count_gf(n)
    elif _order_above_cap("--n", n, "MAX_STREAM_ORDER", MAX_STREAM_ORDER, args.command):
        return EXIT_USAGE
    chunks = render_chunks(n, weighted_formula_heads(n), fmt, term_count)
    return _write_terms(n, chain(chunks, "\n"))


def _cmd_partitions(args) -> int:
    if args.format == "json":
        return _write_rendering(args)
    from .partitions import MAX_STREAM_ORDER

    if _order_above_cap("--n", args.n, "MAX_STREAM_ORDER", MAX_STREAM_ORDER, "partitions"):
        return EXIT_USAGE
    return _write_terms(args.n, _partition_lines(args.n))


def _label_tables():
    """One walk's label tables: a lookup of each run's label (`_run_label`),
    made once per (part, length), and each tail's share of a partition's
    label, "+" and the tail's label ("" for the empty tail), made once per
    distinct tail.  A head's label is its runs' labels joined by "+"; no
    run of equal parts crosses from head to tail, so a head's label and its
    tail's share join to the partition's, as `parts_label` prints it."""
    from .formula import _Fragments
    from .partitions import _run_label, part_runs

    run_labels = _Fragments(_run_label).__getitem__
    suffixes = _Fragments(
        lambda tail: "+" + "+".join(map(run_labels, part_runs(tail))) if tail else ""
    )
    return run_labels, suffixes


def _partition_lines(n: int) -> Iterator[str]:
    # A line per term: its partition, size, weight and sign.
    from .partitions import part_runs, weighted_formula_heads

    run_labels, suffixes = _label_tables()
    for head, tails in weighted_formula_heads(n):
        label = "+".join(map(run_labels, part_runs(head)))
        head_size = len(head)
        for tail, coefficient in tails:
            yield (
                f"{label}{suffixes[tail]}  size={head_size + len(tail)}  weight={abs(coefficient)}  "
                f"sign={'-' if coefficient < 0 else '+'}\n"
            )


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
    from .counting import MAX_COUNT_ORDER, series_table, term_count_enum

    if _order_above_cap("--max", args.max, "MAX_COUNT_ORDER", MAX_COUNT_ORDER, "count"):
        return EXIT_USAGE
    status = EXIT_OK
    if args.method != "enum":
        table = series_table(args.max - 1)
    if args.method != "gf":
        from .partitions import TermCheckError
    for n in range(1, args.max + 1):
        count = table[n - 1][n] if args.method != "enum" else None
        if args.method != "gf":
            # the walk's heads are checked as they are counted, as verify
            # checks its terms: a wrong head ends the command
            try:
                enumerated = term_count_enum(n)
            except TermCheckError as exc:
                print(f"term check failed at n={n}: {exc}", file=sys.stderr)
                return EXIT_DISAGREEMENT
            if count is None:
                count = enumerated
            elif enumerated != count:
                print(
                    f"count disagreement at n={n}: gf={count} enum={enumerated}",
                    file=sys.stderr,
                )
                status = EXIT_DISAGREEMENT
                continue
        print(f"{n} {count}")
    return status


def _cmd_verify(args) -> int:
    from .oracle import MAX_VERIFY_ORDER, brute_force_expansion, formula_to_expr, total_derivative
    from .partitions import TermCheckError, weighted_formula_heads

    if _order_above_cap("--max", args.max, "MAX_VERIFY_ORDER", MAX_VERIFY_ORDER, "verify"):
        return EXIT_USAGE
    if args.cf_mode:
        from .formula import cf_original_groups
        from .oracle import _published_q
    status = EXIT_OK
    expected = brute_force_expansion(1)
    for n in range(1, args.max + 1):
        if n > 1:
            # The step frees the order below, and the terms keyed for it
            # are dropped, before these terms are keyed: no two peaks add up.
            expected = total_derivative(expected)
        groups = weighted_formula_heads(n)
        if args.cf_mode:
            # each term with its 1974 coefficient in place of its own
            groups = (
                (head, [(tail, original) for tail, _, original, _ in terms])
                for head, terms in cf_original_groups(groups)
            )
        try:
            found = formula_to_expr(groups)
        except TermCheckError as exc:
            print(f"term check failed at n={n}: {exc}", file=sys.stderr)
            return EXIT_DISAGREEMENT
        # a passing order has one term per brute-force monomial
        if not args.cf_mode:
            ok = found == expected
            line = f"n={n} equal ({len(expected)} terms)" if ok else f"n={n} MISMATCH"
        else:
            # each 1974 value is the brute force's times the q of the brute
            # force's own monomial, by the published definition of q
            ok = len(found) == len(expected) and all(
                found.get(key) == _published_q(key) * c for key, c in expected.items()
            )
            off = sum([_published_q(key) > 1 for key in expected])
            line = (
                f"n={n} mismatch as predicted ({off}/{len(expected)} terms off by their q factor)"
                if ok else f"n={n} UNEXPECTED DISCREPANCY"
            )
        if args.json:
            from .oracle import _report_line

            line = _report_line(n, expected, found)
        del found
        print(line)
        if not ok:
            status = EXIT_DISAGREEMENT
    return status


def _cmd_compare_cf(args) -> int:
    if args.count:
        from .counting import MAX_COUNT_ORDER, cf_term_count, term_count_gf

        if _order_above_cap("--n", args.n, "MAX_COUNT_ORDER", MAX_COUNT_ORDER, "compare-cf --count"):
            return EXIT_USAGE
        a_n = term_count_gf(args.n)
        cf = cf_term_count(args.n)
        marker = "agree" if cf == a_n else "disagree"
        print(f"n={args.n} cf_count={cf} a={a_n} {marker}")
        return EXIT_OK
    from .partitions import MAX_STREAM_ORDER

    if _order_above_cap("--n", args.n, "MAX_STREAM_ORDER", MAX_STREAM_ORDER, "compare-cf"):
        return EXIT_USAGE
    return _write_terms(args.n, _compare_cf_lines(args.n))


def _compare_cf_lines(n: int) -> Iterator[str]:
    from .formula import cf_original_groups
    from .partitions import part_runs, weighted_formula_heads

    yield "partition  corrected  cf_original  q\n"
    run_labels, suffixes = _label_tables()
    for head, terms in cf_original_groups(weighted_formula_heads(n)):
        label = "+".join(map(run_labels, part_runs(head)))
        for tail, coefficient, original, q in terms:
            yield f"{label}{suffixes[tail]}  {coefficient:+d}  {original:+d}  {q}\n"


def _cmd_eval(args) -> int:
    from .expressions import ExpressionSyntaxError
    from .numeric import MAX_EVAL_ORDER

    if _order_above_cap("--n", args.n, "MAX_EVAL_ORDER", MAX_EVAL_ORDER, "eval"):
        return EXIT_USAGE
    here = sys.modules[__name__]
    try:
        expression = here.parse_expression(args.expr)
    except ExpressionSyntaxError as exc:
        print(f"cannot parse --expr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            if args.solve_y is not None:
                y = here.implicit_solve(expression, args.x, args.solve_y)
            else:
                y = args.y
            table = here.derivative_table(expression, args.x, y, args.n)
            value = here.evaluate_formula(args.n, table)
            if not math.isfinite(value):
                raise ArithmeticError(f"d^{args.n}y/dx^{args.n} is not finite ({value!r})")
            lines = [_format_number(value)]
            if args.fd_check:
                fd = here.finite_difference_check(expression, args.x, y, args.n)
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
