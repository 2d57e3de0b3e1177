"""Expression trees for concrete F(x, y): parsing, differentiation, evaluation.

Grammar (standard precedence, left-associative at each level):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" integer)? | "-" factor
    atom   := number | "x" | "y" | ident "(" expr ")" | "(" expr ")"

Factors nest at most MAX_NESTING deep (each parenthesis, call and unary minus
adds a level), so the recursive parser, differentiate and evaluate stay
within the interpreter's recursion limit.

Identifiers: exp, log, sin, cos, sqrt.  Numbers are decimals with optional
fractional part and exponent; exponents of "^" must be integers (an optional
leading minus is accepted).  Numeric literals are stored exactly as rationals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
MAX_NESTING = 100


class ExpressionSyntaxError(ValueError):
    """Parse failure; `position` is the 0-based offset in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class Number:
    value: Fraction


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exponent: int


@dataclass(frozen=True)
class Negate:
    operand: "Expression"


@dataclass(frozen=True)
class FunctionCall:
    name: str
    argument: "Expression"


Expression = Union[Number, Variable, BinaryOp, Power, Negate, FunctionCall]

ZERO = Number(Fraction(0))
ONE = Number(Fraction(1))


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.lastgroup is None:
            # Skip over whitespace-only tail.
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExpressionSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = match.lastgroup
        value = match.group(kind)
        tokens.append((kind, value, match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", position)
        self.advance()

    def parse(self) -> Expression:
        expr = self.expr()
        kind, value, position = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {value!r}", position)
        return expr

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinaryOp(value, node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinaryOp(value, node, self.factor())
            else:
                return node

    def factor(self) -> Expression:
        kind, value, position = self.peek()
        if self.depth == MAX_NESTING:
            raise ExpressionSyntaxError("too deeply nested", position)
        self.depth += 1
        if kind == "op" and value == "-":
            self.advance()
            node = Negate(self.factor())
        else:
            node = self.atom()
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                node = Power(node, self.integer())
        self.depth -= 1
        return node

    def integer(self) -> int:
        sign = 1
        kind, value, position = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, position = self.peek()
        if kind != "number" or not value.isdigit():
            raise ExpressionSyntaxError("expected an integer exponent", position)
        self.advance()
        return sign * int(value)

    def atom(self) -> Expression:
        kind, value, position = self.advance()
        if kind == "number":
            return Number(Fraction(value))
        if kind == "ident":
            if value in ("x", "y"):
                return Variable(value)
            if value in FUNCTIONS:
                self.expect_op("(")
                argument = self.expr()
                self.expect_op(")")
                return FunctionCall(value, argument)
            raise ExpressionSyntaxError(f"unknown identifier {value!r}", position)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            f"unexpected {value!r}" if value else "unexpected end of input", position
        )


def parse_expression(text: str) -> Expression:
    """Parse F(x, y) from text; raises ExpressionSyntaxError with a position."""
    return _Parser(text).parse()


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
            return Number(a.value / b.value)
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
        return Number(base.value**exponent)
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
        scaled = _mul(Number(Fraction(e.exponent)), _pow(e.base, e.exponent - 1))
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
            return _div(du, _mul(Number(Fraction(2)), FunctionCall("sqrt", u)))
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


_MATH = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


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
