"""Exact expansions of higher derivatives of implicitly defined functions.

For F(x, y) = 0 defining y(x) where F_y != 0, the n-th derivative of y has a
closed-form expansion over two-dimensional partitions with exact integer
coefficients.  This package builds, renders, counts and numerically evaluates
that expansion, verifies it against a brute-force total-derivative engine,
and reproduces the coefficient and term-count errors of the 1974
Comtet-Fiolet publication of the formula.
"""

__version__ = "0.1.0"

# The public names and the module that defines each.  `import implicit_deriv`
# loads none of the modules: each name, and each module by its own name,
# is looked up on first use (PEP 562), so a command loads only the modules
# it runs.
_EXPORTS = {
    "counting": ("cf_term_count", "series_table", "term_count_enum", "term_count_gf"),
    "expressions": ("ExpressionSyntaxError", "parse_expression"),
    "formula": (
        "CfNotation", "DerivativeFormula", "FormulaTerm", "TermCountMismatch",
        "build_formula", "cf_notation", "cf_original_coefficient", "render",
        "render_chunks",
    ),
    "numeric": (
        "ConvergenceError", "SingularPointError", "derivative_table", "evaluate_formula",
        "finite_difference_check", "implicit_solve", "required_derivatives",
    ),
    "oracle": (
        "ComparisonReport", "brute_force_expansion", "compare_with_formula",
        "formula_to_expr", "total_derivative",
    ),
    "partitions": (
        "Partition2D", "TermCheckError", "formula_partitions", "lower_x", "lower_y",
        "partition_coefficient", "partitions_1d", "weighted_formula_heads",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

# Not exported: the symbolic partials, which no command runs.  The tests use
# them as an oracle, and `expressions` and `numeric` forward them here.
_MODULE_OF.update(
    dict.fromkeys(("ONE", "ZERO", "differentiate", "evaluate", "mixed_partial"), "_symbolic")
)
_MODULES = ("cli", "_symbolic", *_EXPORTS)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None and name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if module is None:
        return import_module(f"{__name__}.{name}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def _forwarding(module: str, *names: str):
    """A PEP 562 `__getattr__` for `module` that looks each of `names` up on
    the module defining it (`_MODULE_OF`) on first use; any other name
    raises `AttributeError`.

    bench/trace_child.py wraps functions under the names their callers bind
    (its `BINDINGS`), so some modules must bind names they never call, or
    call only through the module; and `expressions` keeps the names of the
    symbolic partials it no longer defines.  Looked up on first use, such a
    name loads its defining module only when it is read, not with the
    module that binds it."""

    def forward(name: str):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return __getattr__(name)

    return forward


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__all__})
