"""Property tests: Partition2D invariants and weights on random multisets of
parts, and the JSON round trip on formulas of order up to 9 and random
selections of their terms."""

from collections import Counter
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from implicit_deriv import (  # noqa: E402
    DerivativeFormula,
    Partition2D,
    build_formula,
    formula_from_json,
    partition_coefficient,
    render,
)

from oracles import fraction_partition_coefficient  # noqa: E402

PARTS = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda part: part != (0, 0))
MULTISETS = st.lists(PARTS, min_size=1, max_size=12)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(MULTISETS, st.randoms(use_true_random=False))
def test_partition_invariants(parts, rng):
    p = Partition2D(parts)
    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert p.parts == tuple(sorted(parts, reverse=True))
    assert Partition2D(shuffled) == p and hash(Partition2D(shuffled)) == hash(p)
    assert p.x_sum == sum(i for i, _ in parts)
    assert p.y_sum == sum(j for _, j in parts)
    assert p.size == len(parts)
    counts = Counter(parts)
    multiplicities = p.multiplicities()
    assert multiplicities == counts
    assert list(multiplicities) == sorted(counts, reverse=True)
    assert all(p.multiplicity(*part) == e for part, e in counts.items())
    assert p.is_formula_partition() == (p.y_sum == p.size - 1 and (0, 1) not in counts)
    assert Partition2D(p.to_json()) == p


@SETTINGS
@given(MULTISETS)
def test_weight_matches_fraction_oracle(parts):
    p = Partition2D(parts)
    assert partition_coefficient(p) == fraction_partition_coefficient(p)


_formula = lru_cache(maxsize=None)(build_formula)
# an order and either every term of its formula (None) or a set of indices
SELECTIONS = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.none() | st.sets(st.integers(0, len(_formula(n).terms) - 1)),
))


@SETTINGS
@given(SELECTIONS)
def test_json_round_trip(selection):
    n, chosen = selection
    formula = _formula(n)
    if chosen is not None:
        formula = DerivativeFormula(n=n, terms=tuple(formula.terms[k] for k in sorted(chosen)))
    assert formula_from_json(render(formula, "json")) == formula
