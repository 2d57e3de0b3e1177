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
each walked head's coordinates against the order and its tails, and end
the same way after the lines of the orders before it.

The subcommands and their options are one table, `_COMMANDS`.  A
well-formed command line is read straight from it; only a line it does not
read, such as --help or a usage error, builds argparse's parser from the
same table, so argparse loads for those alone, and help, usage lines and
error messages stay argparse's own.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from collections.abc import Iterable, Iterator
from itertools import chain, islice

from . import _forwarding

# Only the standard library loads with this module, and not argparse: each
# handler imports the package modules it runs, so a command loads only its
# own code.

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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"must be a positive integer, not {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, not {text!r}")
    return value


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


# An option's default, or a marker in its place: _REQUIRED for an option
# that must be given, _ONE_OF for the options of a command of which exactly
# one must be given (then the default is None).
_REQUIRED = object()
_ONE_OF = object()

# The subcommands, each with its handler, its help line and its options.  An
# option is (converter, default, help, metavar), help and metavar optional.
# The converter is a function of the value's text that raises ValueError
# with its message, a tuple of the values allowed, or None for a flag that
# takes no value and stores True.  `_parse` reads a command line from this
# table, and `_build_parser` builds argparse's parser from it.
_COMMANDS = {
    "expand": (_write_rendering, "print the order-n expansion", {
        "--n": (_positive_int, _REQUIRED),
        "--format": (("text", "latex", "json"), "text"),
    }),
    "partitions": (_cmd_partitions, "list the formula partitions of order n", {
        "--n": (_positive_int, _REQUIRED),
        "--format": (("text", "json"), "text"),
    }),
    "count": (_cmd_count, "print term counts a(1..N)", {
        "--max": (_positive_int, _REQUIRED),
        "--method": (("enum", "gf", "both"), "gf"),
    }),
    "verify": (_cmd_verify, "check the expansion against brute force", {
        "--max": (_positive_int, 8),
        "--cf-mode": (
            None, False,
            "use the original 1974 coefficients; succeeds when the brute "
            "force disagrees by exactly the predicted q factors",
        ),
        "--json": (None, False, "one JSON report per line"),
    }),
    "compare-cf": (_cmd_compare_cf, "corrected vs 1974 coefficients", {
        "--n": (_positive_int, _REQUIRED),
        "--count": (None, False, "compare term counts instead of terms"),
    }),
    "eval": (_cmd_eval, "evaluate d^n y/dx^n numerically", {
        "--expr": (str, _REQUIRED, "F(x, y), e.g. 'x^2+y^2-1'"),
        "--x": (_finite_float, _REQUIRED),
        "--y": (_finite_float, _ONE_OF),
        "--solve-y": (
            _finite_float, _ONE_OF, "derive y by Newton iteration from this guess", "GUESS",
        ),
        "--n": (_positive_int, _REQUIRED),
        "--fd-check": (None, False),
    }),
}


class _Arguments:
    """A command line as read by `_parse`: the attributes of argparse's
    namespace for it, `command`, `run` and one per option."""

    def __init__(self, values: dict) -> None:
        self.__dict__.update(values)


def _starts_like_a_negative_number(text: str) -> bool:
    # The pattern -\.?\d at the start of text: "-", perhaps ".", then a
    # decimal digit, as re's \d reads one.
    rest = text[2:] if text[1:2] == "." else text[1:]
    return text[:1] == "-" and rest[:1].isdecimal()


def _parse(argv: list[str]) -> _Arguments | None:
    """The arguments of the command line argv, read from `_COMMANDS`, or
    None for a line that argparse must read.

    A line read here holds the subcommand first, then each option of it at
    most once by its exact flag, as "--flag value" or "--flag=value", or
    "--flag" alone for a flag without a value.  Each value passes its
    converter or is one of its choices, and starts with "-" only where it
    starts like a negative number.  Every required option is given, and
    exactly one of a command's _ONE_OF options.  argparse reads each such
    line the same way.  Any other line is None: "-h", "--help", "--", an
    abbreviated or repeated flag, a missing or refused value."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    run, _, options = _COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, text = token.partition("=")
        if flag not in options or flag in given:
            return None
        convert = options[flag][0]
        if convert is None:
            if equals:
                return None
            given[flag] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None:
                return None
        if text.startswith("-") and not _starts_like_a_negative_number(text):
            return None
        if isinstance(convert, tuple):
            if text not in convert:
                return None
            given[flag] = text
            continue
        try:
            given[flag] = convert(text)
        except ValueError:
            return None
    one_of = [flag for flag, option in options.items() if option[1] is _ONE_OF]
    if one_of and len(given.keys() & one_of) != 1:
        return None
    values = {"command": argv[0], "run": run}
    for flag, option in options.items():
        default = option[1]
        if default is _ONE_OF:
            default = None
        elif default is _REQUIRED and flag not in given:
            return None
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return _Arguments(values)


def _build_parser():
    """argparse's parser for `_COMMANDS`.  Only a line that `_parse` does
    not read builds it, so argparse loads only for help and usage errors,
    and its help, usage lines and error messages are its own."""
    import argparse
    import re

    class ArgumentParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # argparse takes an argument for a value, not an option, when
            # it looks like a negative number, but its own pattern admits
            # only -123 and -1.5: "--x -1e-3" would read -1e-3 as an
            # unknown option.  Anything that starts like a negative number
            # is a value here (`_starts_like_a_negative_number`); the
            # option's type then accepts or rejects it.  No option of this
            # parser starts with "-" and a digit.
            self._negative_number_matcher = re.compile(r"-\.?\d")

        # argparse exits with status 2 on bad usage; the contract here is 1.
        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def checked(convert):
        # A converter's ValueError as argparse's "argument --n: <message>".
        def convert_text(text: str):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return convert_text

    parser = ArgumentParser(
        prog="implicit-deriv",
        description="Exact expansions of d^n y/dx^n for implicitly defined y(x).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        one_of = None
        for flag, (convert, default, *text) in options.items():
            kwargs = dict(zip(("help", "metavar"), text))
            if convert is None:
                kwargs["action"] = "store_true"
            elif isinstance(convert, tuple):
                kwargs["choices"] = convert
            else:
                kwargs["type"] = checked(convert)
            target = p
            if default is _REQUIRED:
                kwargs["required"] = True
            elif default is _ONE_OF:
                if one_of is None:
                    one_of = p.add_mutually_exclusive_group(required=True)
                target = one_of
            else:
                kwargs["default"] = default
            target.add_argument(flag, **kwargs)
        p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
