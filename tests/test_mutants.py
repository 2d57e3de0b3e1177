"""A mutant table: each row plants one fault in process and names the CLI
checks that must catch it (exit 2) and those that it passes (exit 0).

A fault that no check catches stays a row, so the blind spot is on record
and a new check that closes it shows up here.  Mutation analysis after
DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer
11(4), 1978."""

import pytest

import implicit_deriv.cli as cli
import implicit_deriv.counting as counting
import implicit_deriv.formula as formula
import implicit_deriv.oracle as oracle
import implicit_deriv.partitions as partitions
from test_oracle import mutant_kernel, wrong_raise_in_y


CHECKS = {
    "verify": ["verify", "--max", "7"],
    "json term_count": ["expand", "--n", "6", "--format", "json"],
    "count both": ["count", "--max", "8", "--method", "both"],
    "verify cf-mode": ["verify", "--max", "6", "--cf-mode"],
}
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
        lambda monkeypatch: _walk_mutant(monkeypatch, 0), list(CHECKS), [],
    ),
    "walk repeats a head": (
        lambda monkeypatch: _walk_mutant(monkeypatch, 2), list(CHECKS), [],
    ),
    # The term check refuses the short head's terms.  count both passes:
    # term_count_enum counts each head's tails and checks no head.
    "walk yields a head one (1, 0) short": (
        _head_one_1_0_short, ["verify", "json term_count", "verify cf-mode"], ["count both"],
    ),
    # The brute force's total-derivative step, which only verify reads,
    # replaced: the expansion and the counts pass.
    "kernel F_y rule drops the size factor": (
        lambda monkeypatch: monkeypatch.setattr(
            oracle, "total_derivative", mutant_kernel("scale = -size * c", "scale = -c")
        ),
        ["verify", "verify cf-mode"], ["json term_count", "count both"],
    ),
    "kernel raise in y": (
        lambda monkeypatch: monkeypatch.setattr(
            oracle, "total_derivative", mutant_kernel(_RAISE_Y=wrong_raise_in_y())
        ),
        ["verify", "verify cf-mode"], ["json term_count", "count both"],
    ),
    "u-exponent i + j": (
        _u_exponent_i_plus_j, ["json term_count", "count both"], ["verify", "verify cf-mode"],
    ),
    # verify --cf-mode reads q off the brute force's own monomial, not
    # from cf_q, so it sees this fault.
    "cf_q one too many": (
        _cf_q_one_too_many, ["verify cf-mode"], ["verify", "json term_count", "count both"],
    ),
    "cf q of the head before": (
        _cf_q_of_the_head_before, ["verify cf-mode"],
        ["verify", "json term_count", "count both"],
    ),
    # the counts see the number of terms, not their coefficients
    "one weight off by one": (
        lambda monkeypatch: _term_mutant(monkeypatch, lambda c: c + (1 if c > 0 else -1)),
        ["verify", "verify cf-mode"], ["json term_count", "count both"],
    ),
    "one sign flipped": (
        lambda monkeypatch: _term_mutant(monkeypatch, lambda c: -c),
        ["verify", "verify cf-mode"], ["json term_count", "count both"],
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_fault_is_caught_by_its_checks(mutant, monkeypatch, capsys):
    plant, caught, passed = MUTANTS[mutant]
    plant(monkeypatch)
    codes = {}
    for name, argv in CHECKS.items():
        codes[name] = cli.main(argv)
        capsys.readouterr()
    assert codes == {**{name: 2 for name in caught}, **{name: 0 for name in passed}}


def test_cf_q_one_too_many_fails_verify_cf_mode_at_order_one(monkeypatch, capsys):
    # Order 1's one term, F_x, has q = 1: the planted q of 2 doubles its
    # 1974 value, where the brute force's monomial reads q = 1.
    _cf_q_one_too_many(monkeypatch)
    assert cli.main(CHECKS["verify cf-mode"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n=1 UNEXPECTED DISCREPANCY"
