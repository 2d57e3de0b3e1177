"""Symbolic partial derivatives of parsed expressions, and their evaluation.

No command imports this module: `eval` reads every partial from one
truncated Taylor pass (`expressions.taylor_coefficients`).  The tests use
the symbolic partials as that pass's oracle.  `expressions` looks
`differentiate`, `mixed_partial`, `evaluate`, `ZERO` and `ONE` up here on
first use, and `numeric` the two names the benchmark's tracer wraps on it,
so loading either module loads neither this one nor `fractions`.

Constants fold exactly: a quotient of int constants, or an int constant to
a negative power, is a Fraction, never a float.  differentiate and evaluate
recurse once per node, so a long flat chain such as x+x+...+x can exhaust
the interpreter's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction

from .expressions import (
    _MATH, BinaryOp, Expression, FunctionCall, Negate, Number, Power, Variable,
)

ZERO = Number(0)
ONE = Number(1)


# --- smart constructors: constant folding only ------------------------------


def _is_const(e: Expression, value: int | None = None) -> bool:
    return isinstance(e, Number) and (value is None or e.value == value)


def _add(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return Number(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return BinaryOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return Number(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return _neg(b)
    return BinaryOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return Number(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return BinaryOp("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_const(b) and b.value != 0:
        if _is_const(a):
            return Number(Fraction(a.value) / b.value)
        if b.value == 1:
            return a
    if _is_const(a, 0):
        return ZERO
    return BinaryOp("/", a, b)


def _neg(a: Expression) -> Expression:
    if _is_const(a):
        return Number(-a.value)
    if isinstance(a, Negate):
        return a.operand
    return Negate(a)


def _pow(base: Expression, exponent: int) -> Expression:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if _is_const(base):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Number(Fraction(base.value) ** exponent)
    return Power(base, exponent)


def differentiate(e: Expression, variable: str) -> Expression:
    """Partial derivative with respect to "x" or "y", folding constants."""
    if isinstance(e, Number):
        return ZERO
    if isinstance(e, Variable):
        return ONE if e.name == variable else ZERO
    if isinstance(e, Negate):
        return _neg(differentiate(e.operand, variable))
    if isinstance(e, BinaryOp):
        da = differentiate(e.left, variable)
        db = differentiate(e.right, variable)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, e.right), _mul(e.left, db))
        # quotient rule
        numerator = _sub(_mul(da, e.right), _mul(e.left, db))
        return _div(numerator, _pow(e.right, 2))
    if isinstance(e, Power):
        if e.exponent == 0:
            return ZERO
        scaled = _mul(Number(e.exponent), _pow(e.base, e.exponent - 1))
        return _mul(scaled, differentiate(e.base, variable))
    if isinstance(e, FunctionCall):
        du = differentiate(e.argument, variable)
        u = e.argument
        if e.name == "exp":
            outer: Expression = FunctionCall("exp", u)
        elif e.name == "log":
            return _div(du, u)
        elif e.name == "sin":
            outer = FunctionCall("cos", u)
        elif e.name == "cos":
            outer = _neg(FunctionCall("sin", u))
        elif e.name == "sqrt":
            return _div(du, _mul(Number(2), FunctionCall("sqrt", u)))
        else:  # pragma: no cover - parser admits only known functions
            raise ValueError(f"no derivative rule for {e.name!r}")
        return _mul(outer, du)
    raise TypeError(f"not an expression node: {e!r}")


def mixed_partial(
    e: Expression, i: int, j: int, _cache: dict[tuple[int, int], Expression] | None = None
) -> Expression:
    """The mixed partial of order i in x and j in y, by recursive symbolic
    differentiation memoized on (i, j)."""
    if i < 0 or j < 0:
        raise ValueError("derivative orders must be non-negative")
    cache = _cache if _cache is not None else {}
    if (i, j) not in cache:
        if i == 0 and j == 0:
            cache[i, j] = e
        elif j > 0:
            cache[i, j] = differentiate(mixed_partial(e, i, j - 1, cache), "y")
        else:
            cache[i, j] = differentiate(mixed_partial(e, i - 1, 0, cache), "x")
    return cache[i, j]


def evaluate(e: Expression, x: float, y: float) -> float:
    """Evaluate at a point in double precision.  Domain violations raise the
    underlying math error (ValueError or ZeroDivisionError)."""
    if isinstance(e, Number):
        return float(e.value)
    if isinstance(e, Variable):
        return x if e.name == "x" else y
    if isinstance(e, Negate):
        return -evaluate(e.operand, x, y)
    if isinstance(e, BinaryOp):
        a = evaluate(e.left, x, y)
        b = evaluate(e.right, x, y)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Power):
        return evaluate(e.base, x, y) ** e.exponent
    if isinstance(e, FunctionCall):
        return _MATH[e.name](evaluate(e.argument, x, y))
    raise TypeError(f"not an expression node: {e!r}")
