"""Expression trees for concrete F(x, y): parsing, differentiation, evaluation
and truncated Taylor expansion.

Grammar (standard precedence, left-associative at each level):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" integer)? | "-" factor
    atom   := number | "x" | "y" | ident "(" expr ")" | "(" expr ")"

Factors nest at most MAX_NESTING deep (each parenthesis, call and unary minus
adds a level), so the recursive parser stays within the interpreter's
recursion limit.  differentiate and evaluate recurse once per node, so a long
flat chain such as x+x+...+x can still exhaust it; taylor_coefficients, which
serves numeric evaluation, walks the tree with an explicit stack instead.

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


# --- truncated bivariate Taylor arithmetic ------------------------------------
#
# A series is a list of n+1 homogeneous components; component k is a list of
# k+1 floats, entry j being the coefficient of X^(k-j) Y^j.  The elementary
# functions follow from the Euler operator E = X d/dX + Y d/dY, which scales a
# degree-k component by k: f = g(u) gives E f = g'(u) E u, so each component
# of f is a sum over components of u and of lower components of f
# (Griewank & Walther, Evaluating Derivatives, 2nd ed. 2008, ch. 13).


def _accumulate(total: list[float], a: list[float], b: list[float], scale: float) -> None:
    """total += scale * a * b for homogeneous components a and b."""
    for i, ai in enumerate(a):
        if ai:
            ai *= scale
            for j, bj in enumerate(b):
                total[i + j] += ai * bj


def _series_mul(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    n = len(a) - 1
    out = [[0.0] * (k + 1) for k in range(n + 1)]
    for p in range(n + 1):
        for q in range(n + 1 - p):
            _accumulate(out[p + q], a[p], b[q], 1.0)
    return out


def _series_div(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """a / b from b * q = a: q_k = (a_k - sum over m >= 1 of b_m q_(k-m)) / b_0."""
    b0 = b[0][0]
    q = [[a[0][0] / b0]]
    for k in range(1, len(a)):
        total = list(a[k])
        for m in range(1, k + 1):
            _accumulate(total, b[m], q[k - m], -1.0)
        q.append([v / b0 for v in total])
    return q


def _series_pow(base: list[list[float]], exponent: int) -> list[list[float]]:
    """base^exponent for exponent >= 1, by binary powering."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else _series_mul(result, base)
        exponent >>= 1
        if not exponent:
            return result
        base = _series_mul(base, base)


def _series_function(name: str, u: list[list[float]]) -> list[list[float]]:
    """exp, log, sin, cos or sqrt of a series whose constant term lies in the
    function's domain (the math call on it raises otherwise)."""
    u0 = u[0][0]
    f = [[_MATH[name](u0)]]
    if name in ("sin", "cos"):
        # E sin u = cos u E u and E cos u = -sin u E u: carry the partner along
        partner = [[math.cos(u0) if name == "sin" else math.sin(u0)]]
        sign = 1.0 if name == "sin" else -1.0
    for k in range(1, len(u)):
        total = [0.0] * (k + 1)
        if name == "exp":  # k f_k = sum of m u_m f_(k-m)
            for m in range(1, k + 1):
                _accumulate(total, u[m], f[k - m], m)
            f.append([v / k for v in total])
        elif name == "log":  # k u_0 f_k = k u_k - sum of m f_m u_(k-m)
            for m in range(1, k):
                _accumulate(total, f[m], u[k - m], -m)
            f.append([(uk + v / k) / u0 for uk, v in zip(u[k], total)])
        elif name == "sqrt":  # 2 f_0 f_k = u_k - sum of f_m f_(k-m)
            for m in range(1, k):
                _accumulate(total, f[m], f[k - m], -1.0)
            f.append([(uk + v) / (2.0 * f[0][0]) for uk, v in zip(u[k], total)])
        else:
            partner_total = [0.0] * (k + 1)
            for m in range(1, k + 1):
                _accumulate(total, u[m], partner[k - m], sign * m)
                _accumulate(partner_total, u[m], f[k - m], -sign * m)
            f.append([v / k for v in total])
            partner.append([v / k for v in partner_total])
    return f


_CHILD_FIELDS = {
    Number: (),
    Variable: (),
    BinaryOp: ("left", "right"),
    Power: ("base",),
    Negate: ("operand",),
    FunctionCall: ("argument",),
}


def _constant_series(value: float, n: int) -> list[list[float]]:
    return [[value]] + [[0.0] * (k + 1) for k in range(1, n + 1)]


def _taylor_node(
    node: Expression,
    args: list[list[list[float]]],
    varies: bool,
    point: dict[str, float],
    n: int,
) -> list[list[float]]:
    """The series of one node from the series of its children; `varies` tells
    whether the node's subtree holds an expanded variable."""
    if isinstance(node, Number):
        return _constant_series(float(node.value), n)
    if isinstance(node, Variable):
        s = _constant_series(point[node.name], n)
        if varies and n:
            s[1] = [1.0, 0.0] if node.name == "x" else [0.0, 1.0]
        return s
    if isinstance(node, Negate):
        return [[-v for v in component] for component in args[0]]
    if isinstance(node, BinaryOp):
        a, b = args
        if node.op == "+":
            return [[p + q for p, q in zip(ca, cb)] for ca, cb in zip(a, b)]
        if node.op == "-":
            return [[p - q for p, q in zip(ca, cb)] for ca, cb in zip(a, b)]
        if node.op == "*":
            return _series_mul(a, b)
        return _series_div(a, b)
    u = args[0]
    if isinstance(node, FunctionCall):
        # An argument free of expanded variables has nothing to propagate, so
        # sqrt of a constant 0 stays legal, as its symbolic derivative folds
        # to 0.  The test is structural: an argument that merely vanishes to
        # an order above n still goes through the recurrence.
        if not varies:
            return _constant_series(_MATH[node.name](u[0][0]), n)
        return _series_function(node.name, u)
    if isinstance(node, Power):
        k = node.exponent
        constant = u[0][0] ** k  # float pow, raising where evaluate raises
        if k == 0:
            return _constant_series(constant, n)
        if k == 1:
            return u
        if k < 0:
            u = _series_div(_constant_series(1.0, n), u)
        result = _series_pow(u, abs(k))
        result[0][0] = constant
        return result
    raise TypeError(f"not an expression node: {node!r}")


def taylor_coefficients(
    e: Expression, x0: float, y0: float, n: int, variables: str = "xy"
) -> list[list[float]]:
    """Taylor coefficients of F(x0 + X, y0 + Y) up to total degree n.

    Returns n+1 homogeneous components: entry j of component k is the
    coefficient c_ij of X^i Y^j with i = k - j, so the mixed partial F_ij at
    the point is i! j! c_ij.  Only the variables named in `variables` are
    expanded; any other is held at its value, so its coefficients are 0.
    One forward pass over the expression DAG computes every component, each
    node once (memoized by identity, walked with an explicit stack, so neither
    tree depth nor structural equality is involved).  The constant term is
    computed as `evaluate` computes F, and domain violations raise the same
    errors: ValueError for log or sqrt of a non-positive argument,
    ZeroDivisionError for a zero divisor, 0^-k or a derivative of sqrt at 0,
    OverflowError where a power or exp overflows.  A function whose argument
    holds no expanded variable is a constant; any other goes through its
    recurrence, so sqrt(x - x) raises at n >= 1 where the symbolic derivative
    folds to 0.
    """
    if n < 0:
        raise ValueError("the truncation degree must be non-negative")
    point = {"x": float(x0), "y": float(y0)}
    series: dict[int, list[list[float]]] = {}
    varying: set[int] = set()  # ids of nodes whose subtree holds an expanded variable
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in series:
            stack.pop()
            continue
        children = [getattr(node, name) for name in _CHILD_FIELDS.get(type(node), ())]
        pending = [child for child in children if id(child) not in series]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        varies = (
            node.name in variables if isinstance(node, Variable)
            else any(id(child) in varying for child in children)
        )
        if varies:
            varying.add(id(node))
        series[id(node)] = _taylor_node(
            node, [series[id(child)] for child in children], varies, point, n
        )
    return series[id(e)]
