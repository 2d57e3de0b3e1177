"""Exact expansions of higher derivatives of implicitly defined functions.

For F(x, y) = 0 defining y(x) where F_y != 0, the n-th derivative of y has a
closed-form expansion over two-dimensional partitions with exact integer
coefficients.  This package builds, renders, counts and numerically evaluates
that expansion, verifies it against a brute-force total-derivative engine,
and reproduces the coefficient and term-count errors of the 1974
Comtet-Fiolet publication of the formula.
"""

from .counting import (
    cf_term_count,
    series_table,
    term_count_enum,
    term_count_gf,
)
from .expressions import (
    ExpressionSyntaxError,
    parse_expression,
)
from .formula import (
    CfNotation,
    DerivativeFormula,
    FormulaTerm,
    TermCountMismatch,
    build_formula,
    cf_notation,
    cf_original_coefficient,
    render,
    render_chunks,
    required_derivatives,
)
from .numeric import (
    ConvergenceError,
    SingularPointError,
    derivative_table,
    evaluate_formula,
    finite_difference_check,
    implicit_solve,
)
from .oracle import (
    ComparisonReport,
    brute_force_expansion,
    compare_with_formula,
    formula_to_expr,
    total_derivative,
)
from .partitions import (
    Partition2D,
    TermCheckError,
    formula_partitions,
    lower_x,
    lower_y,
    partition_coefficient,
    partitions_1d,
    weighted_formula_heads,
)

__version__ = "0.1.0"

__all__ = [
    "CfNotation",
    "ComparisonReport",
    "ConvergenceError",
    "DerivativeFormula",
    "ExpressionSyntaxError",
    "FormulaTerm",
    "Partition2D",
    "SingularPointError",
    "TermCheckError",
    "TermCountMismatch",
    "brute_force_expansion",
    "build_formula",
    "cf_notation",
    "cf_original_coefficient",
    "cf_term_count",
    "compare_with_formula",
    "derivative_table",
    "evaluate_formula",
    "finite_difference_check",
    "formula_partitions",
    "formula_to_expr",
    "implicit_solve",
    "lower_x",
    "lower_y",
    "parse_expression",
    "partition_coefficient",
    "partitions_1d",
    "render",
    "render_chunks",
    "required_derivatives",
    "series_table",
    "term_count_enum",
    "term_count_gf",
    "total_derivative",
    "weighted_formula_heads",
]
