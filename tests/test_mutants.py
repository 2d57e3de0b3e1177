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
import implicit_deriv.partitions as partitions

from oracles import classical_partition_count

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


def _u_exponent_i_plus_j(monkeypatch):
    monkeypatch.setattr(counting, "_corrected_exponent", lambda i, j: i + j)


def _cf_q_one_too_many(monkeypatch):
    real = formula.cf_q
    monkeypatch.setattr(formula, "cf_q", lambda parts: real(parts) + 1)


MUTANTS = {
    "none": (lambda monkeypatch: None, [], list(CHECKS)),
    "walk drops a head": (
        lambda monkeypatch: _walk_mutant(monkeypatch, 0), list(CHECKS), [],
    ),
    "walk repeats a head": (
        lambda monkeypatch: _walk_mutant(monkeypatch, 2), list(CHECKS), [],
    ),
    "u-exponent i + j": (
        _u_exponent_i_plus_j, ["json term_count", "count both"], ["verify", "verify cf-mode"],
    ),
    # verify --cf-mode checks each 1974 value against the same q that made
    # it, so no command sees this fault.
    "cf_q one too many": (_cf_q_one_too_many, [], list(CHECKS)),
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


def test_cf_q_one_too_many_shows_only_in_the_closed_form(monkeypatch, capsys):
    # Every term of order 6 is reported off, 145 of 145, where the closed
    # form a(6) - (p(0) + ... + p(5)) gives 126, a(6) = 145.
    _cf_q_one_too_many(monkeypatch)
    assert cli.main(CHECKS["verify cf-mode"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "n=6 mismatch as predicted (145/145 terms off by their q factor)"
    assert 145 - sum(classical_partition_count(k) for k in range(6)) == 126
