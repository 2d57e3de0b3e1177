"""The frozen value records: equality, hash, repr, immutability, and
round trips through pickle and copy for each of the eleven classes."""

import copy
import pickle
from fractions import Fraction

import pytest

from implicit_deriv import (
    ComparisonReport,
    DerivativeFormula,
    FormulaTerm,
    Partition2D,
    build_formula,
    cf_notation,
    compare_with_formula,
    parse_expression,
)
from implicit_deriv.expressions import (
    BinaryOp,
    FunctionCall,
    Negate,
    Number,
    Power,
    Variable,
)
from implicit_deriv.oracle import CoefficientMismatch

WORKED = Partition2D([(1, 0), (1, 0), (0, 2)])

# One instance of each record class, with the repr it prints.
INSTANCES = [
    (Number(Fraction(3, 2)), "Number(value=Fraction(3, 2))"),
    (Variable("x"), "Variable(name='x')"),
    (
        parse_expression("x^2 + sin(y)"),
        "BinaryOp(op='+', left=Power(base=Variable(name='x'), exponent=2), "
        "right=FunctionCall(name='sin', argument=Variable(name='y')))",
    ),
    (Power(Variable("y"), -3), "Power(base=Variable(name='y'), exponent=-3)"),
    (Negate(Variable("y")), "Negate(operand=Variable(name='y'))"),
    (
        FunctionCall("exp", Number(Fraction(1))),
        "FunctionCall(name='exp', argument=Number(value=Fraction(1, 1)))",
    ),
    (
        FormulaTerm(WORKED, -1),
        "FormulaTerm(partition=Partition2D([(1, 0), (1, 0), (0, 2)]), coefficient=-1)",
    ),
    (
        build_formula(1),
        "DerivativeFormula(n=1, terms=(FormulaTerm(partition=Partition2D([(1, 0)]), "
        "coefficient=-1),))",
    ),
    (
        cf_notation(WORKED),
        "CfNotation(row_sums={1: 2, 0: 1}, col_sums={0: 2, 2: 1}, s=1, q=2)",
    ),
    (
        CoefficientMismatch(WORKED, 6, 12),
        "CoefficientMismatch(partition=Partition2D([(1, 0), (1, 0), (0, 2)]), "
        "expected=6, found=12)",
    ),
    (
        compare_with_formula(1, ()),
        "ComparisonReport(n=1, missing=((Partition2D([(1, 0)]), -1),), extra=(), "
        "coefficient_mismatches=())",
    ),
]
IDS = [type(value).__name__ for value, _ in INSTANCES]


@pytest.mark.parametrize("value, text", INSTANCES, ids=IDS)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [value for value, _ in INSTANCES], ids=IDS)
def test_round_trips_through_pickle_and_copy(value):
    for made in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(made) is type(value)
        assert made == value
        assert repr(made) == repr(value)


@pytest.mark.parametrize("value", [value for value, _ in INSTANCES], ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value):
    field = value.__slots__[0]
    kept = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = None
    assert getattr(value, field) is kept


def test_equality_and_hash_follow_type_and_fields():
    term = FormulaTerm(WORKED, -1)
    assert term == FormulaTerm(Partition2D([(0, 2), (1, 0), (1, 0)]), -1)
    assert hash(term) == hash(FormulaTerm(WORKED, -1))
    assert term != FormulaTerm(WORKED, -2)
    assert len({Variable("x"), Variable("x"), Variable("y")}) == 2
    # one field each, with the same value, under two classes
    assert Variable("x") != Number("x")
    assert (Number(Fraction(1)) == 1) is False
    assert parse_expression("x*y - 1") == BinaryOp(
        "-", BinaryOp("*", Variable("x"), Variable("y")), Number(Fraction(1))
    )
    # a field that holds dicts cannot be hashed, as a dict cannot
    with pytest.raises(TypeError):
        hash(cf_notation(WORKED))


def test_fields_by_position_or_by_name():
    assert CoefficientMismatch(partition=WORKED, expected=6, found=12) == (
        CoefficientMismatch(WORKED, 6, found=12)
    )
    assert DerivativeFormula(n=1, terms=()) == DerivativeFormula(1, ())
    for bad in (
        lambda: Variable(),
        lambda: Variable("x", "y"),
        lambda: Variable("x", name="y"),
        lambda: Variable(label="x"),
        lambda: ComparisonReport(1, (), ()),
    ):
        with pytest.raises(TypeError):
            bad()

