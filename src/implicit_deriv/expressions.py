"""Expression trees for concrete F(x, y): parsing and truncated Taylor
expansion, which serves numeric evaluation.

Grammar (standard precedence, left-associative at each level):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" integer)? | "-" factor
    atom   := number | "x" | "y" | ident "(" expr ")" | "(" expr ")"

Factors nest at most MAX_NESTING deep (each parenthesis, call and unary minus
adds a level), so the recursive parser stays within the interpreter's
recursion limit.  taylor_coefficients walks the tree with an explicit stack
and holds only the series its parents have yet to consume (no per-node memo),
so its memory is bounded by the nesting cap, not by the expression's length.

The symbolic partials (differentiate, mixed_partial, evaluate, ZERO, ONE)
live in `_symbolic`, which no command runs; this module looks them up there
on first use, so loading it loads neither `_symbolic` nor `fractions`.

Identifiers: exp, log, sin, cos, sqrt.  Numbers are decimals with optional
fractional part and exponent; exponents of "^" must be integers (an optional
leading minus is accepted) of magnitude at most MAX_LITERAL_EXPONENT.  Numeric
literals are stored exactly: an integer literal as an int, any other as a
Fraction (the only use of `fractions` here), so a literal's decimal exponent is
capped at MAX_LITERAL_EXPONENT in magnitude and its digit strings at the
interpreter's int-string limit; past any of these the parser raises
ExpressionSyntaxError instead of building a huge exact value or a power that
takes hours to expand.
"""

from __future__ import annotations

import math
import re
from functools import partial
from itertools import chain

from . import _forwarding
from ._record import Record

__getattr__ = _forwarding(__name__, "ONE", "ZERO", "differentiate", "evaluate", "mixed_partial")

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
MAX_NESTING = 100
# The largest magnitude of a literal's decimal exponent (the interpreter's
# default int-string digit limit) and of a "^" exponent k, whose series power
# takes about 2 * log2(k) series products (4 s for (x+y)^4095 at n = 100).
MAX_LITERAL_EXPONENT = 4300


class ExpressionSyntaxError(ValueError):
    """Parse failure; `position` is the 0-based offset in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class Number(Record):
    __slots__ = ("value",)
    value: int  # or a Fraction: exact, as parsed or folded


class Variable(Record):
    __slots__ = ("name",)
    name: str


class BinaryOp(Record):
    __slots__ = ("op", "left", "right")
    op: str
    left: Expression
    right: Expression


class Power(Record):
    __slots__ = ("base", "exponent")
    base: Expression
    exponent: int


class Negate(Record):
    __slots__ = ("operand",)
    operand: Expression


class FunctionCall(Record):
    __slots__ = ("name", "argument")
    name: str
    argument: Expression


Expression = Number | Variable | BinaryOp | Power | Negate | FunctionCall


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.))"
)
# The binary operators by precedence level, loosest first.
_LEVELS = ("+-", "*/")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, offset) of each token; the last is of kind "end"."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {match[kind]!r}", match.start(kind))
        tokens.append((kind, match[kind], match.start(kind)))
        if kind == "end":
            return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def take(self, kind: str, values: str = "") -> tuple[str, int] | None:
        """Consume the next token and return its (value, offset) if it is of
        `kind` and, when `values` is given, one of them; else return None."""
        token_kind, value, position = self.tokens[self.index]
        if token_kind != kind or (values and value not in values):
            return None
        self.index += 1
        return value, position

    def error(self, message: str = "") -> ExpressionSyntaxError:
        """`message` at the next token's offset; by default, that it is unexpected."""
        _, value, position = self.tokens[self.index]
        if not message:
            message = f"unexpected {value!r}" if value else "unexpected end of input"
        return ExpressionSyntaxError(message, position)

    def parse(self) -> Expression:
        node = self.binary(0)
        if not self.take("end"):
            raise self.error()
        return node

    def binary(self, level: int) -> Expression:
        """A left-associative chain of _LEVELS[level]'s operators over the next level."""
        operand = partial(self.binary, level + 1) if level + 1 < len(_LEVELS) else self.factor
        node = operand()
        while op := self.take("op", _LEVELS[level]):
            node = BinaryOp(op[0], node, operand())
        return node

    def factor(self) -> Expression:
        if self.depth == MAX_NESTING:
            raise self.error("too deeply nested")
        self.depth += 1
        if self.take("op", "-"):
            node = Negate(self.factor())
        else:
            node = self.atom()
            if self.take("op", "^"):
                sign = -1 if self.take("op", "-") else 1
                if not self.tokens[self.index][1].isdigit():  # only a number is all digits
                    raise self.error("expected an integer exponent")
                digits, position = self.take("number")
                exponent = _exact(int, digits, position)
                if exponent > MAX_LITERAL_EXPONENT:
                    raise ExpressionSyntaxError(f"exponent beyond {MAX_LITERAL_EXPONENT}", position)
                node = Power(node, sign * exponent)
        self.depth -= 1
        return node

    def atom(self) -> Expression:
        if number := self.take("number"):
            value, position = number
            if value.isdigit():
                return Number(_exact(int, value, position))
            exponent = value.lower().partition("e")[2]
            if exponent and abs(_exact(int, exponent, position)) > MAX_LITERAL_EXPONENT:
                raise ExpressionSyntaxError(
                    f"decimal exponent beyond {MAX_LITERAL_EXPONENT}", position
                )
            from fractions import Fraction

            return Number(_exact(Fraction, value, position))
        if ident := self.take("ident"):
            name, position = ident
            if name in ("x", "y"):
                return Variable(name)
            if name not in FUNCTIONS:
                raise ExpressionSyntaxError(f"unknown identifier {name!r}", position)
            if not self.take("op", "("):
                raise self.error("expected '('")
        elif not self.take("op", "("):
            raise self.error()
        node = self.binary(0)
        if not self.take("op", ")"):
            raise self.error("expected ')'")
        return FunctionCall(ident[0], node) if ident else node


def _exact(kind: type, digits: str, position: int):
    """int or Fraction of a literal; a digit string over the interpreter's
    int-string limit is a syntax error, not a ValueError from int()."""
    try:
        return kind(digits)
    except ValueError:
        raise ExpressionSyntaxError(
            "numeric literal has too many digits", position
        ) from None


def parse_expression(text: str) -> Expression:
    """Parse F(x, y) from text; raises ExpressionSyntaxError with a position."""
    return _Parser(text).parse()


# --- truncated bivariate Taylor arithmetic ------------------------------------
#
# A series is a list of n+1 homogeneous components; component k is a list of
# k+1 floats, entry j being the coefficient of X^(k-j) Y^j.  The elementary
# functions follow from the Euler operator E = X d/dX + Y d/dY, which scales a
# degree-k component by k: f = g(u) gives E f = g'(u) E u, so each component
# of f is a sum over components of u and of lower components of f
# (Griewank & Walther, Evaluating Derivatives, 2nd ed. 2008, ch. 13).

_MATH = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


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
    # Components of a above its last nonzero one add nothing, as _accumulate
    # skips each zero entry: for a polynomial factor only its degree counts.
    top = len(a)
    while top and not any(a[top - 1]):
        top -= 1
    # So do b's, when a's entries are finite: each then adds a signed zero
    # to a total that started at +0.0 and so is never -0.0, which leaves it
    # as it was.  An inf or nan in a would turn such a zero into nan.
    reach = len(b)
    if all(map(math.isfinite, chain.from_iterable(a[:top]))):
        while reach and not any(b[reach - 1]):
            reach -= 1
    for p in range(top):
        for q in range(min(n + 1 - p, reach)):
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
        # as float() of a Fraction divides, so that an int too large for a
        # float overflows with the same message as a Fraction
        value = node.value
        return _constant_series(value.numerator / value.denominator, n)
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
    One post-order pass over the tree computes every component, children left
    to right as `evaluate` takes them, with an explicit stack, so tree depth
    is no limit.  Only the results of finished subtrees not yet consumed by
    their parent are held: at most about two per nesting level, so memory is
    O(MAX_NESTING n^2) for a parsed expression, whatever its length.  There
    is no memo: a subtree shared by several parents (a DAG built by hand) is
    walked once per use, as `evaluate` walks it.  The constant term is
    computed as `evaluate` computes F, and domain violations raise the same
    errors, the first in evaluation order: ValueError for log or sqrt of a
    non-positive argument, ZeroDivisionError for a zero divisor, 0^-k or a
    derivative of sqrt at 0, OverflowError where a power or exp overflows.
    A function whose argument holds no expanded variable is a constant; any
    other goes through its recurrence, so sqrt(x - x) raises at n >= 1 where
    the symbolic derivative folds to 0.
    """
    if n < 0:
        raise ValueError("the truncation degree must be non-negative")
    point = {"x": float(x0), "y": float(y0)}
    # (series, varies) of each finished subtree whose parent is not yet done
    results: list[tuple[list[list[float]], bool]] = []
    stack = [(e, False)]  # (node, its children are finished)
    while stack:
        node, ready = stack.pop()
        fields = _CHILD_FIELDS.get(type(node), ())
        if fields and not ready:
            stack.append((node, True))
            stack.extend((getattr(node, name), False) for name in reversed(fields))
            continue
        split = len(results) - len(fields)
        args = results[split:]
        del results[split:]
        varies = (
            node.name in variables if isinstance(node, Variable)
            else any(child_varies for _, child_varies in args)
        )
        results.append((_taylor_node(node, [s for s, _ in args], varies, point, n), varies))
    return results[0][0]
