"""Brute-force expansion of implicit derivatives by total differentiation.

This is the independent check on the closed-form expansion: starting from
dy/dx = -F_x / F_y and repeatedly applying the total-derivative operator
d/dx + y' * d/dy, it produces the order-n derivative as an exact symbolic
expression, which is then compared term by term with the formula.

An expression is a dict from monomial to exact integer coefficient.  A
monomial F_y^-size * parts of the mixed partials F_ij of F is keyed by its
parts alone: every partial (i, j) but F_y = F_01, once per power, in
ascending order, each as its one-byte code (`encode_monomial`), so a key
is a `bytes`, which hashes once and compares by memcmp.  The codes number
the parts with 1 <= i + j <= MAX_VERIFY_ORDER but (0, 1) in ascending
order, so byte order is part order.  The closed form is read as the
weighted walk groups it (`weighted_formula_heads`), and the term of a head
and a tail is keyed by their parts reversed, the tail's codes before the
head's, so the two expansions compare by dict equality.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable, Mapping, Sequence

from . import _forwarding
from ._record import Record
from .partitions import Part, Partition2D, WeightedHead, weighted_formula_heads

__getattr__ = _forwarding(__name__, "build_formula", "cf_original_coefficient")


Monomial = bytes
Expansion = dict[Monomial, int]

F_X: Part = (1, 0)
F_Y: Part = (0, 1)

# The highest order `verify --max` accepts: the brute force's time about
# doubles per order and its memory grows 1.3-1.5x (`verify --max 16` takes
# 2.1 s and 60 MB on 2 vCPUs).  A key spends one byte per part, and the
# parts up to degree 16 take 151 of the 256 codes.
MAX_VERIFY_ORDER = 16


def _part_codes(top: int) -> tuple[tuple[Part, ...], tuple[tuple[int | None, ...], ...]]:
    """The parts with 1 <= i + j <= top but (0, 1), in ascending order (the
    part of code k is the k-th), and the triangle of their codes: row i
    holds the code of each (i, j) with j <= top - i, None for (0, 0) and
    (0, 1); two indexings find a code sooner than hashing the part would.
    Raises ValueError past 256 parts, the most one byte numbers."""
    parts = tuple(
        (i, j) for i in range(top + 1) for j in range(top + 1 - i)
        if i + j and (i, j) != F_Y
    )
    if len(parts) > 256:
        raise ValueError(f"{len(parts)} parts up to degree {top} need more than one byte each")
    codes = iter(range(len(parts)))
    triangle = tuple(
        tuple(None if (i, j) in ((0, 0), F_Y) else next(codes) for j in range(top + 1 - i))
        for i in range(top + 1)
    )
    return parts, triangle


_PARTS, _CODES = _part_codes(MAX_VERIFY_ORDER)


def _code(part: Part) -> int | None:
    """The code of a part, None for a part outside the table."""
    i, j = part
    if type(i) is int and type(j) is int and i >= 0 <= j and i + j <= MAX_VERIFY_ORDER:
        return _CODES[i][j]
    return None


# Each code's part raised in x, (i + 1, j), and in y, (i, j + 1), by code;
# None for a part of the top degree, whose raise has no code.
_RAISE_X = [_code((i + 1, j)) for i, j in _PARTS]
_RAISE_Y = [_code((i, j + 1)) for i, j in _PARTS]
# Each code's share of the 1974 factor q, j - 1 for a part (i, j) with j >= 2.
_Q_SHARE = bytes([max(j - 1, 0) for _, j in _PARTS]).ljust(256, b"\0")
_BYTE = [bytes((code,)) for code in range(len(_PARTS))]
_X = _code(F_X)
_XY = _code((1, 1))
_F_X = _BYTE[_X]
_F_XY = _BYTE[_XY]
_F_YY = _BYTE[_code((0, 2))]


def encode_monomial(parts: Sequence[Part]) -> Monomial:
    """The key of the monomial of `parts`, given in ascending order.  A part
    outside the code table raises ValueError naming it."""
    try:
        # a negative coordinate would index the triangle from its end
        return bytes([_CODES[i][j] if i >= 0 <= j else None for i, j in parts])
    except (IndexError, TypeError):
        for part in parts:
            if _code(part) is None:
                raise ValueError(
                    f"part {part} has no code: the oracle keys the parts with "
                    f"1 <= i + j <= MAX_VERIFY_ORDER = {MAX_VERIFY_ORDER} but (0, 1)"
                ) from None
        raise


def decode_monomial(key: Monomial) -> tuple[Part, ...]:
    """The parts of a key, in ascending order."""
    return tuple([_PARTS[code] for code in key])


def total_derivative(expr: Mapping[Monomial, int]) -> Expansion:
    """Apply d/dx + y' * d/dy with y' = -F_x / F_y.

    The operator is a derivation: by the product rule, a monomial's image
    sums over its factors, and a factor of multiplicity m contributes m
    times its own image.  A partial maps as
    (i, j) -> (i + 1, j) - (i, j + 1) * F_x / F_y: its x-derivative plus y'
    times its y-derivative.  For F_y^-size that image, (1, 1) - (0, 2) F_x /
    F_y, is taken -size times with F_y one power lower.  Each of the four
    rules adds one part per power of F_y it lowers, so every image has the
    shape F_y^-size * parts again.  No part ever becomes (0, 1) or (0, 0),
    so the keys stay canonical.  A part of degree MAX_VERIFY_ORDER raises
    ValueError: its image has no code.
    """
    out: Expansion = {}
    get = out.get
    for parts, c in expr.items():
        size = len(parts)
        start = 0
        while start < size:
            code = parts[start]
            end = start + 1
            while end < size and parts[end] == code:
                end += 1
            multiplicity = end - start
            scale = multiplicity * c
            in_x = _RAISE_X[code]
            if in_x is None:
                raise ValueError(
                    f"part {_PARTS[code]} has degree MAX_VERIFY_ORDER = {MAX_VERIFY_ORDER}: "
                    "its derivative has no code"
                )
            # one copy of the part removed; both images sort after it
            rest = parts[:start] + parts[start + 1:]
            at = bisect(rest, in_x, start)
            key = rest[:at] + _BYTE[in_x] + rest[at:]
            out[key] = get(key, 0) + scale
            in_y = _RAISE_Y[code]
            at = bisect(rest, in_y, start)
            rest = rest[:at] + _BYTE[in_y] + rest[at:]
            at = bisect(rest, _X)
            key = rest[:at] + _F_X + rest[at:]
            out[key] = get(key, 0) - scale
            start = end
        scale = -size * c
        at = bisect(parts, _XY)
        key = parts[:at] + _F_XY + parts[at:]
        out[key] = get(key, 0) + scale
        # (0, 2) has the least code, so it goes in first, and F_x after it
        rest = _F_YY + parts
        at = bisect(rest, _X, 1)
        key = rest[:at] + _F_X + rest[at:]
        out[key] = get(key, 0) - scale
    return {key: c for key, c in out.items() if c}


def _published_q(key: Monomial) -> int:
    """The factor q by which the 1974 coefficient of monomial `key`
    overshoots, as published: 1 + the sum of j - 1 over the parts (i, j)
    with j >= 2.  It reads the monomial, not the walk's head (`formula.cf_q`)."""
    return 1 + sum(key.translate(_Q_SHARE))


def brute_force_expansion(n: int) -> Expansion:
    """The order-n derivative, expanded by total-derivative steps from
    dy/dx = -F_x / F_y, as a new dict.  Only the latest order is held: each
    step drops the one below."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    expansion: Expansion = {_F_X: -1}
    for _ in range(n - 1):
        expansion = total_derivative(expansion)
    return expansion


def formula_to_expr(groups: Iterable[WeightedHead]) -> Expansion:
    """The closed-form terms as monomials, read lazily from groups shaped
    as `weighted_formula_heads` yields them: the term of head h and tail t
    is keyed by the parts of h + t in ascending order, (h + t)[::-1], which
    are t's reversed and then h's.  Each head is encoded once and each
    distinct tail once.  A part outside the code table raises ValueError
    naming it."""
    expr: Expansion = {}
    get = expr.get
    tail_keys: dict[tuple[Part, ...], bytes] = {}
    for head, tails in groups:
        head_key = encode_monomial(head[::-1])
        for tail, coefficient in tails:
            tail_key = tail_keys.get(tail)
            if tail_key is None:
                tail_key = tail_keys[tail] = encode_monomial(tail[::-1])
            key = tail_key + head_key
            expr[key] = get(key, 0) + coefficient
    return expr


class CoefficientMismatch(Record):
    __slots__ = ("partition", "expected", "found")
    partition: Partition2D
    expected: int
    found: int


class ComparisonReport(Record):
    """Outcome of checking a closed-form expansion against the brute force.

    `missing` lists monomials the brute force produced that the formula lacks,
    `extra` the converse; both carry the brute-force/formula coefficient.
    """

    __slots__ = ("n", "missing", "extra", "coefficient_mismatches")
    n: int
    missing: tuple[tuple[Partition2D, int], ...]
    extra: tuple[tuple[Partition2D, int], ...]
    coefficient_mismatches: tuple[CoefficientMismatch, ...]

    @property
    def status(self) -> str:
        """The status: "equal" exactly when all three lists are empty."""
        return "mismatch" if self.missing or self.extra or self.coefficient_mismatches else "equal"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "status": self.status,
            "missing": [
                {"partition": p.to_json(), "coefficient": str(c)}
                for p, c in self.missing
            ],
            "extra": [
                {"partition": p.to_json(), "coefficient": str(c)}
                for p, c in self.extra
            ],
            "coefficient_mismatches": [
                {
                    "partition": m.partition.to_json(),
                    "expected": str(m.expected),
                    "found": str(m.found),
                }
                for m in self.coefficient_mismatches
            ],
        }


def _power_product(parts: tuple[Part, ...]) -> tuple[tuple[Part, int], ...]:
    """The monomial of `parts` as sorted (partial, exponent) pairs: the
    order in which a mismatch report lists its entries."""
    powers = {F_Y: -len(parts)}
    for part in parts:
        powers[part] = powers.get(part, 0) + 1
    return tuple(sorted(powers.items()))


def compare_with_formula(
    n: int,
    groups: Iterable[WeightedHead] | None = None,
    expected: Mapping[Monomial, int] | None = None,
) -> ComparisonReport:
    """Compare order-n closed-form terms, grouped by head as
    `weighted_formula_heads(n)` yields them (the default), against
    `expected`, the order-n brute-force expansion, made here by default.
    A caller that already holds order n passes it in.

    The groups are read once, as they come.  A caller passes the closed
    form itself, a tampered expansion or the 1974 one (each tail with the
    1974 coefficient that `cf_original_groups` gives it), whose report is
    expected to flag every term whose factor q exceeds 1.  `verify` decides
    on the keyed terms alone and builds the report (`_report`) for --json.
    """
    if expected is None:
        expected = brute_force_expansion(n)
    found = formula_to_expr(weighted_formula_heads(n) if groups is None else groups)
    return _report(n, expected, found)


def _report(n: int, expected: Mapping[Monomial, int], found: Expansion) -> ComparisonReport:
    """The report of keyed terms against the brute force; only the keys that differ are decoded."""
    if expected == found:
        return ComparisonReport(n=n, missing=(), extra=(), coefficient_mismatches=())

    differing = [key for key, want in expected.items() if found.get(key) != want]
    differing += [key for key in found if key not in expected]
    decoded = {decode_monomial(key): key for key in differing}
    missing = []
    extra = []
    mismatches = []
    # each key has its own power product, so the order is the same as
    # that of the keys' parts
    for parts in sorted(decoded, key=_power_product):
        key = decoded[parts]
        want = expected.get(key)
        have = found.get(key)
        partition = Partition2D._from_sorted(parts[::-1])
        if want is None:
            extra.append((partition, have))
        elif have is None:
            missing.append((partition, want))
        else:
            mismatches.append(CoefficientMismatch(partition=partition, expected=want, found=have))
    return ComparisonReport(
        n=n,
        missing=tuple(missing),
        extra=tuple(extra),
        coefficient_mismatches=tuple(mismatches),
    )
