"""A mutant table: each row plants one fault in process and names the CLI
checks that must catch it (exit 2) and those that it passes (exit 0).

A fault that no check catches stays a row, so the blind spot is on record
and a new check that closes it shows up here.  Mutation analysis after
DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer
11(4), 1978."""

import inspect
import math
import textwrap

import pytest

import implicit_deriv.cli as cli
import implicit_deriv.counting as counting
import implicit_deriv.expressions as expressions
import implicit_deriv.formula as formula
import implicit_deriv.numeric as numeric
import implicit_deriv.oracle as oracle
import implicit_deriv.partitions as partitions
from oracles import circle_derivative
from test_oracle import mutant_kernel, wrong_raise


# eval's curves, each with its exact d^6y/dx^6 at the point: x - exp(y) = 0
# is y = log(x), where it is -5!/x^6; its table has only F_x and the pure
# y-partials, so the circle, with F_xx, covers the entries it lacks.
EVAL_CURVES = [
    ("x-exp(y)", 1.5, 0.4, -math.factorial(5) / 1.5**6),
    ("x^2+y^2-1", 0.6, 0.8, circle_derivative(6, 0.6)),
]


def _eval_on_curves(capsys):
    # eval's exit code on each curve, or 2 when it exits 0 with another
    # value (to 1e-9, as the benchmark checks its curves).
    for expr, x, guess, exact in EVAL_CURVES:
        argv = ["eval", "--expr", expr, "--x", str(x), "--solve-y", str(guess), "--n", "6"]
        status = cli.main(argv)
        out = capsys.readouterr().out
        if status:
            return status
        if not math.isclose(float(out), exact, rel_tol=1e-9):
            return 2
    return 0


# Each check: a command line whose exit code is its verdict, or a function
# of pytest's capsys that returns one.
CHECKS = {
    "verify": ["verify", "--max", "7"],
    "json term_count": ["expand", "--n", "6", "--format", "json"],
    "count both": ["count", "--max", "8", "--method", "both"],
    "verify cf-mode": ["verify", "--max", "6", "--cf-mode"],
    "eval curves": _eval_on_curves,
}
# Every check but eval's reads the partition walk.
WALK_CHECKS = ["verify", "json term_count", "count both", "verify cf-mode"]
# The order-6 head the walk mutants drop or repeat: the sixth it yields.
HEAD = 5


def _walk_mutant(monkeypatch, copies):
    real = partitions._walk_heads

    def walk(n):
        for index, head in enumerate(real(n)):
            for _ in range(copies if n == 6 and index == HEAD else 1):
                yield head

    monkeypatch.setattr(partitions, "_walk_heads", walk)


def _head_one_1_0_short(monkeypatch):
    # The first order-6 head that ends in a run of two or more (1, 0) comes
    # one (1, 0) short, with the denominator and tails of the whole head.
    real = partitions._walk_heads

    def walk(n):
        short = n == 6
        for head, denominator, tails in real(n):
            if short and head[-2:] == ((1, 0), (1, 0)):
                head, short = head[:-1], False
            yield head, denominator, tails

    monkeypatch.setattr(partitions, "_walk_heads", walk)


def _kernel_mutant(old="", new="", **tables):
    # The brute force's total-derivative step, built by `mutant_kernel`.
    return lambda monkeypatch: monkeypatch.setattr(
        oracle, "total_derivative", mutant_kernel(old, new, **tables)
    )


def _u_exponent_i_plus_j(monkeypatch):
    monkeypatch.setattr(counting, "_corrected_exponent", lambda i, j: i + j)


def _cf_q_one_too_many(monkeypatch):
    real = formula.cf_q
    monkeypatch.setattr(formula, "cf_q", lambda parts: real(parts) + 1)


def _cf_q_of_the_head_before(monkeypatch):
    # cf_original_groups pairs each head's q with the tails of the head
    # after it: the 1974 value of a term is the wrong q times its weight.
    real = formula.cf_original_groups

    def groups(heads):
        q_before = 1
        for head, terms in real(heads):
            yield head, tuple([
                (tail, coefficient, q_before * coefficient, q_before)
                for tail, coefficient, _, _ in terms
            ])
            q_before = terms[0][3]

    monkeypatch.setattr(formula, "cf_original_groups", groups)


def _source_mutant(module, name, old, new):
    # module.name with one line of its source replaced, bound in the
    # module's own namespace.
    def plant(monkeypatch):
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert source.count(old) == 1, old
        namespace = dict(vars(module))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(module, name, namespace[name])

    return plant


def _term_mutant(monkeypatch, alter):
    # The first term of the order-6 head HEAD, its coefficient altered.
    real = partitions.weighted_formula_heads

    def walk(n):
        for index, (head, tails) in enumerate(real(n)):
            if n == 6 and index == HEAD:
                (tail, coefficient), *rest = tails
                tails = ((tail, alter(coefficient)), *rest)
            yield head, tails

    monkeypatch.setattr(partitions, "weighted_formula_heads", walk)


MUTANTS = {
    "none": (lambda monkeypatch: None, [], list(CHECKS)),
    "walk drops a head": (
        lambda monkeypatch: _walk_mutant(monkeypatch, 0), WALK_CHECKS, ["eval curves"],
    ),
    "walk repeats a head": (
        lambda monkeypatch: _walk_mutant(monkeypatch, 2), WALK_CHECKS, ["eval curves"],
    ),
    # The term check refuses the short head's terms, and count both's
    # head check its first coordinates, which sum to 5.
    "walk yields a head one (1, 0) short": (
        _head_one_1_0_short, WALK_CHECKS, ["eval curves"],
    ),
    # eval reads no walk: its Taylor pass and its Lagrange extraction are
    # seen by the value it prints alone.
    "Taylor exp rule reads f one index low": (
        _source_mutant(
            expressions, "_series_function",
            "_accumulate(total, u[m], f[k - m], m)", "_accumulate(total, u[m], f[k - m - 1], m)",
        ),
        ["eval curves"], WALK_CHECKS,
    ),
    "_lagrange_coefficient reads K_u one u-power low": (
        _source_mutant(
            numeric, "_lagrange_coefficient", "scaled[a + 1][g]", "scaled[a][g]",
        ),
        ["eval curves"], WALK_CHECKS,
    ),
    # The brute force's total-derivative step, which only verify reads,
    # replaced: the expansion and the counts pass.  One row per rule of
    # the step: a partial's raise in x, its raise in y and the F_x after
    # it, and F_y^-size's image, (1, 1) and then (0, 2) with F_x.
    "kernel raise in x": (
        _kernel_mutant(_RAISE_X=wrong_raise(oracle._RAISE_X, (1, 1), (3, 1))),
        ["verify", "verify cf-mode"], ["json term_count", "count both", "eval curves"],
    ),
    "kernel raise in y": (
        _kernel_mutant(_RAISE_Y=wrong_raise(oracle._RAISE_Y, (1, 1), (1, 3))),
        ["verify", "verify cf-mode"], ["json term_count", "count both", "eval curves"],
    ),
    "kernel drops the F_x after a raise in y": (
        _kernel_mutant(
            "at = bisect(rest, _X)\n            key = rest[:at] + _F_X + rest[at:]",
            "key = rest",
        ),
        ["verify", "verify cf-mode"], ["json term_count", "count both", "eval curves"],
    ),
    "kernel F_y rule drops the size factor": (
        _kernel_mutant("scale = -size * c", "scale = -c"),
        ["verify", "verify cf-mode"], ["json term_count", "count both", "eval curves"],
    ),
    "kernel F_y image drops its (0, 2)": (
        _kernel_mutant(
            "rest = _F_YY + parts\n        at = bisect(rest, _X, 1)",
            "rest = parts\n        at = bisect(rest, _X)",
        ),
        ["verify", "verify cf-mode"], ["json term_count", "count both", "eval curves"],
    ),
    "u-exponent i + j": (
        _u_exponent_i_plus_j, ["json term_count", "count both"],
        ["verify", "verify cf-mode", "eval curves"],
    ),
    # verify --cf-mode reads q off the brute force's own monomial, not
    # from cf_q, so it sees this fault.
    "cf_q one too many": (
        _cf_q_one_too_many, ["verify cf-mode"],
        ["verify", "json term_count", "count both", "eval curves"],
    ),
    "cf q of the head before": (
        _cf_q_of_the_head_before, ["verify cf-mode"],
        ["verify", "json term_count", "count both", "eval curves"],
    ),
    # the counts see the number of terms, not their coefficients
    "one weight off by one": (
        lambda monkeypatch: _term_mutant(monkeypatch, lambda c: c + (1 if c > 0 else -1)),
        ["verify", "verify cf-mode"], ["json term_count", "count both", "eval curves"],
    ),
    "one sign flipped": (
        lambda monkeypatch: _term_mutant(monkeypatch, lambda c: -c),
        ["verify", "verify cf-mode"], ["json term_count", "count both", "eval curves"],
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_fault_is_caught_by_its_checks(mutant, monkeypatch, capsys):
    plant, caught, passed = MUTANTS[mutant]
    plant(monkeypatch)
    codes = {}
    for name, check in CHECKS.items():
        if callable(check):
            codes[name] = check(capsys)
        else:
            codes[name] = cli.main(check)
            capsys.readouterr()
    assert codes == {**{name: 2 for name in caught}, **{name: 0 for name in passed}}


def test_cf_q_one_too_many_fails_verify_cf_mode_at_order_one(monkeypatch, capsys):
    # Order 1's one term, F_x, has q = 1: the planted q of 2 doubles its
    # 1974 value, where the brute force's monomial reads q = 1.
    _cf_q_one_too_many(monkeypatch)
    assert cli.main(CHECKS["verify cf-mode"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n=1 UNEXPECTED DISCREPANCY"
