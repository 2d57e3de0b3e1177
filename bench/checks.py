"""Output checks for the CLI benchmark.

Every check rests on something the code under test did not compute: the
published term counts, the paper's q factor, closed-form derivatives of two
curves, an independent Newton solve, or data recorded from the seed commit's
stdout (its sha256 and a few float results, labelled seed-recorded).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from fractions import Fraction

# A child's stdout is hashed as it streams; only this much of it is kept.
KEEP_BYTES = 1 << 20

_MATH = {name: getattr(math, name) for name in ("exp", "log", "sin", "cos", "sqrt")}


class StdoutProbe:
    """sha256, size and line count of a stream fed chunk by chunk, plus the
    number of occurrences of an optional needle.  The text is kept only up to
    KEEP_BYTES, so a 15 MB expansion costs the benchmark no memory."""

    def __init__(self, needle: bytes | None = None):
        self.sha256 = hashlib.sha256()
        self.nbytes = 0
        self.lines = 0
        self.head = bytearray()
        self.needle = needle
        self.needle_count = 0
        self._tail = b""

    def feed(self, chunk: bytes) -> None:
        self.sha256.update(chunk)
        self.nbytes += len(chunk)
        self.lines += chunk.count(b"\n")
        if len(self.head) < KEEP_BYTES:
            self.head += chunk[: KEEP_BYTES - len(self.head)]
        if self.needle:
            joined = self._tail + chunk
            self.needle_count += joined.count(self.needle)
            self._tail = joined[-(len(self.needle) - 1):]

    def text(self) -> str:
        if self.nbytes > KEEP_BYTES:
            raise ValueError(f"stdout of {self.nbytes} bytes is too large to inspect")
        return self.head.decode()


def cf_q(partition: list[list[int]]) -> int:
    """The factor q by which the 1974 coefficient overshoots: 1 plus the sum
    of j * (number of parts with second coordinate j + 1)."""
    columns = Counter(j for _, j in partition)
    return 1 + sum((j - 1) * count for j, count in columns.items() if j >= 2)


def exact_problems(check: dict, returncode: int, out: StdoutProbe, counts: list[int]) -> list[str]:
    """Problems with the output of an exact command; `counts` is a(1..24)."""
    if returncode != 0:
        return [f"exit code {returncode}, expected 0"]
    problems = []
    if out.nbytes != check["bytes_seed_recorded"]:
        problems.append(f"{out.nbytes} bytes of stdout, seed-recorded {check['bytes_seed_recorded']}")
    if out.sha256.hexdigest() != check["sha256_seed_recorded"]:
        problems.append("stdout sha256 differs from the seed-recorded digest")
    if "term_count_is_a" in check:
        n = check["term_count_is_a"]
        found = re.search(rb'"term_count": (\d+)', out.head)
        if not found or int(found.group(1)) != counts[n - 1]:
            problems.append(f"term_count is not published a({n}) = {counts[n - 1]}")
    if "frac_count_is_a" in check:
        n = check["frac_count_is_a"]
        if out.needle_count != counts[n - 1]:
            problems.append(f"{out.needle_count} \\frac terms, published a({n}) = {counts[n - 1]}")
    if "line_count_is_a" in check:
        n = check["line_count_is_a"]
        if out.lines != counts[n - 1]:
            problems.append(f"{out.lines} lines, published a({n}) = {counts[n - 1]}")
    if "line_count" in check and out.lines != check["line_count"]:
        problems.append(f"{out.lines} lines, expected {check['line_count']}")
    if problems:
        return problems
    lines = out.text().splitlines() if out.nbytes <= KEEP_BYTES else []
    if "published_counts_through" in check:
        for n in range(1, check["published_counts_through"] + 1):
            if lines[n - 1] != f"{n} {counts[n - 1]}":
                problems.append(f"count line {n} reads {lines[n - 1]!r}, published a({n}) = {counts[n - 1]}")
    if "verify_equal_through" in check:
        top = check["verify_equal_through"]
        expected = [f"n={n} equal ({counts[n - 1]} terms)" for n in range(1, top + 1)]
        if lines != expected:
            problems.append("verify lines do not all read 'n=<n> equal (a(n) terms)'")
    if "verify_cf_json_through" in check:
        problems += _cf_json_problems(lines, check["verify_cf_json_through"])
    if "compare_cf_count_disagrees" in check:
        n = check["compare_cf_count_disagrees"]
        found = re.fullmatch(rf"n={n} cf_count=(\d+) a=(\d+) disagree", lines[0] if lines else "")
        if len(lines) != 1 or not found or found.group(1) == found.group(2):
            problems.append("compare-cf --count does not report a disagreement")
    return problems


def _cf_json_problems(lines: list[str], top: int) -> list[str]:
    """Each report must show only coefficient mismatches, each off by exactly
    the q factor of its partition, and read "equal" exactly when there are
    none: the 1974 coefficients fail as predicted."""
    if len(lines) != top:
        return [f"{len(lines)} reports, expected {top}"]
    problems = []
    for n, line in enumerate(lines, start=1):
        report = json.loads(line)
        mismatches = report["coefficient_mismatches"]
        ok = (
            report["n"] == n
            and not report["missing"]
            and not report["extra"]
            and report["status"] == ("mismatch" if mismatches else "equal")
            and all(
                cf_q(m["partition"]) > 1
                and Fraction(m["found"]) == Fraction(m["expected"]) * cf_q(m["partition"])
                for m in mismatches
            )
        )
        if not ok:
            problems.append(f"n={n}: the 1974 coefficients do not fail as predicted")
    return problems


def curve_function(expr: str):
    """F(x, y) in plain Python floats, from the same text the CLI parses."""
    code = compile(expr.replace("^", "**"), expr, "eval")
    return lambda x, y: eval(code, {"__builtins__": {}, **_MATH}, {"x": x, "y": y})


def vetted_root(expr: str, x: float, guess: float, min_abs_fy: float) -> float:
    """Solve F(x, y) = 0 from `guess` (Newton with a central-difference slope)
    and require |F_y| >= min_abs_fy at the root.  Raises ValueError otherwise."""
    f = curve_function(expr)
    y = guess
    for _ in range(100):
        fy = (f(x, y + 1e-6) - f(x, y - 1e-6)) / 2e-6
        step = f(x, y) / fy
        y -= step
        if abs(step) <= 1e-14 * max(1.0, abs(y)):
            break
    fy = (f(x, y + 1e-6) - f(x, y - 1e-6)) / 2e-6
    if abs(f(x, y)) > 1e-12 or abs(fy) < min_abs_fy:
        raise ValueError(
            f"{expr} at x={x} from guess {guess}: y={y}, F={f(x, y):.2e}, |F_y|={abs(fy):.3g} "
            f"(needs a converged root with |F_y| >= {min_abs_fy})"
        )
    return y


def _falling(a: Fraction, k: int) -> Fraction:
    value = Fraction(1)
    for i in range(k):
        value *= a - i
    return value


def reference_value(curve: dict, point: list[float]) -> float:
    """The expected d^n y/dx^n at the point, by the curve's reference kind."""
    kind, n, x = curve["reference"], curve["n"], point[0]
    if kind == "recorded":
        return point[2]
    if kind == "log":  # x = exp(y): y = log x
        return (-1) ** (n - 1) * math.factorial(n - 1) / x**n
    if kind == "circle":  # upper branch y = (1 - x)^(1/2) (1 + x)^(1/2), by Leibniz
        half = Fraction(1, 2)
        return sum(
            math.comb(n, k)
            * float((-1) ** k * _falling(half, k) * _falling(half, n - k))
            * (1 - x) ** (0.5 - k)
            * (1 + x) ** (0.5 - n + k)
            for k in range(n + 1)
        )
    raise ValueError(f"unknown reference kind {kind!r}")


def eval_problems(
    curve: dict, point: list[float], limits: dict, returncode: int, out: StdoutProbe
) -> list[str]:
    """Problems with an `eval` output, compared numerically, not bytewise."""
    if returncode != 0:
        return [f"exit code {returncode}, expected 0"]
    lines = out.text().splitlines()
    want_lines = 3 if curve.get("fd_check") else 1
    if len(lines) != want_lines:
        return [f"{len(lines)} stdout lines, expected {want_lines}"]
    value = float(lines[0])
    expected = reference_value(curve, point)
    tolerance = limits["recorded_rel_tol" if curve["reference"] == "recorded" else "analytic_rel_tol"]
    problems = []
    if not math.isclose(value, expected, rel_tol=tolerance):
        problems.append(f"value {value!r}, expected {expected!r} within relative {tolerance}")
    if curve.get("fd_check"):
        fd_label, fd_text = lines[1].split(" ")
        diff_label, diff_text = lines[2].split(" ")
        fd, diff = float(fd_text), float(diff_text)
        if fd_label != "fd" or diff_label != "diff":
            problems.append("fd-check lines are not 'fd <value>' and 'diff <value>'")
        if abs(fd - value) > limits["fd_abs_bound"]:
            problems.append(f"finite difference {fd!r} is more than {limits['fd_abs_bound']} from {value!r}")
        if not math.isclose(diff, abs(value - fd), rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"diff {diff!r} is not |value - fd|")
    return problems
