import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time

import pytest

import implicit_deriv
import implicit_deriv.cli as cli
import implicit_deriv.counting
import implicit_deriv.numeric
import implicit_deriv.oracle
import implicit_deriv.partitions
from implicit_deriv import (
    DerivativeFormula,
    FormulaTerm,
    Partition2D,
    build_formula,
    render,
)
from implicit_deriv.counting import MAX_COUNT_ORDER
from implicit_deriv.formula import TermCountMismatch
from implicit_deriv.expressions import MAX_NESTING
from implicit_deriv.numeric import MAX_EVAL_ORDER
from implicit_deriv.oracle import MAX_VERIFY_ORDER
from implicit_deriv.partitions import MAX_STREAM_ORDER, TermCheckError, formula_heads

from oracles import (
    circle_derivative,
    classical_partition_count,
    compare_cf_lines,
    label_render,
    partition_lines,
    walked_tail,
)


def plant_1974_values(monkeypatch, alter):
    """Make `formula.cf_original_groups` give each term the signed 1974
    value alter(partition, value, q) in place of its own."""
    real = implicit_deriv.formula.cf_original_groups

    def tampered(groups):
        for head, terms in real(groups):
            yield head, tuple(
                (tail, coefficient, alter(Partition2D(head + tail), original, q), q)
                for tail, coefficient, original, q in terms
            )

    monkeypatch.setattr(implicit_deriv.formula, "cf_original_groups", tampered)


INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="the interpreter's int-string limit is off"
)


# a(1..12), the published term counts of the corrected expansion.
PUBLISHED_A = (1, 3, 9, 24, 61, 145, 333, 732, 1565, 3247, 6583, 13047)

# sha256 of the stdout of these commands: the first three taken before the
# output was streamed, the last two before the renderers memoised their
# fragments.
RECORDED_DIGESTS = {
    ("partitions", "--n", "8"):
        "972fe2b4e80f9cfc1d1cb4f7c2bc1096413be2f227e41e1a8ba0628f58e57853",
    ("partitions", "--n", "8", "--format", "json"):
        "62690bb71f884d57fa2719bc338d400505a4e4924386b83290cf62966c5aabdc",
    ("compare-cf", "--n", "8"):
        "90e659904f89b2450f8d92dc1488304120fbf7501cd9e6852de623070b788f9a",
    ("expand", "--n", "12", "--format", "text"):
        "2be1ee53811ed7d24582527d0dec383961eabbdb77d7505923e9fa272afffc40",
    ("compare-cf", "--n", "11"):
        "ed2fdd59789cc6317de2a38f941110800c7f809349e32fb0ca8d8b597fb6fdab",
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """A fresh interpreter that imports this package, so an uncaught error
    shows as a traceback on stderr rather than failing inside the test
    harness."""
    src = os.path.dirname(os.path.dirname(implicit_deriv.__file__))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


def run_process(*argv):
    """The CLI in a fresh interpreter."""
    return run_python("-m", "implicit_deriv.cli", *argv)


class TestExpand:
    def test_text_order_two(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "2")
        assert code == 0
        assert out == "-Fxx/Fy + 2*Fx*Fxy/Fy^2 - Fx^2*Fyy/Fy^3\n"

    def test_latex_order_one(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "1", "--format", "latex")
        assert code == 0
        assert out == "-\\frac{F_{x}}{F_{y}}\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "implicit-deriv/1"
        assert payload["term_count"] == 9
        assert len(payload["terms"]) == 9
        for term in payload["terms"]:
            int(term["coefficient"])  # decimal strings
            assert isinstance(term["fy_exponent"], int)
            assert all(len(pair) == 2 for pair in term["partition"])

    def test_deterministic(self, capsys):
        first = run(capsys, "expand", "--n", "5", "--format", "json")
        second = run(capsys, "expand", "--n", "5", "--format", "json")
        assert first == second


class TestStreaming:
    """expand, partitions and compare-cf write each term as it is walked."""

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_expand_equals_the_held_rendering(self, capsys, n, fmt):
        code, out, err = run(capsys, "expand", "--n", str(n), "--format", fmt)
        assert code == 0
        assert err == ""
        assert out == render(build_formula(n), fmt) + "\n"

    @pytest.mark.parametrize("argv", sorted(RECORDED_DIGESTS))
    def test_output_has_the_recorded_digest(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == RECORDED_DIGESTS[argv]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_json_term_count_is_a(self, capsys, n):
        code, out, _ = run(capsys, "expand", "--n", str(n), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["term_count"] == len(payload["terms"]) == PUBLISHED_A[n - 1]

    @pytest.mark.parametrize("command", ["expand", "partitions"])
    @pytest.mark.parametrize("wrong", [8, 10])
    def test_wrong_header_count_exits_two(self, capsys, monkeypatch, command, wrong):
        # a(3) = 9: one term short of the header, and one over
        monkeypatch.setattr(implicit_deriv.counting, "term_count_gf", lambda n: wrong)
        code, out, err = run(capsys, command, "--n", "3", "--format", "json")
        assert code == 2
        assert "term count disagreement at n=3" in err
        assert f"wrote 9 terms under a header term_count of {wrong}" in err
        assert out.startswith(f'{{"schema": "implicit-deriv/1", "n": 3, "term_count": {wrong}, ')
        assert out.count('"coefficient"') == 9
        assert not out.rstrip("\n").endswith("]}")

    def test_header_count_is_not_read_by_text_formats(self, capsys, monkeypatch):
        # only the JSON header holds a(n); the other renderings never count
        def refuse(n):
            raise AssertionError("term count computed")

        monkeypatch.setattr(implicit_deriv.counting, "term_count_gf", refuse)
        formula = build_formula(5)
        for argv, expected in (
            (["expand", "--n", "5"], label_render(formula, "text") + "\n"),
            (["expand", "--n", "5", "--format", "latex"], label_render(formula, "latex") + "\n"),
            (["partitions", "--n", "5"], "".join(line + "\n" for line in partition_lines(5))),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert out == expected

    @pytest.mark.parametrize("command", ["expand", "partitions"])
    def test_json_above_the_count_cap_exits_one(self, capsys, monkeypatch, command):
        def refuse(*args):
            raise AssertionError("counted or walked above the cap")

        monkeypatch.setattr(implicit_deriv.counting, "term_count_gf", refuse)
        monkeypatch.setattr(implicit_deriv.partitions, "weighted_formula_heads", refuse)
        n = MAX_COUNT_ORDER + 1
        code, out, err = run(capsys, command, "--n", str(n), "--format", "json")
        assert (code, out) == (1, "")
        assert err == (
            f"--n {n} is above MAX_COUNT_ORDER = {MAX_COUNT_ORDER}, "
            f"the highest order {command} --format json accepts\n"
        )

    def test_huge_json_order_exits_one_at_once(self):
        started = time.perf_counter()
        done = run_process("expand", "--n", "1000000", "--format", "json")
        assert (done.returncode, done.stdout) == (1, "")
        assert "is above MAX_COUNT_ORDER" in done.stderr
        assert time.perf_counter() - started < 10

    @pytest.mark.parametrize("n", [MAX_STREAM_ORDER + 1, 10**20], ids=["cap-plus-one", "10-to-20"])
    @pytest.mark.parametrize(
        "argv",
        [["expand"], ["expand", "--format", "latex"], ["partitions"], ["compare-cf"]],
        ids=["expand-text", "expand-latex", "partitions-text", "compare-cf"],
    )
    def test_order_above_the_stream_cap_exits_one_before_any_walk(
        self, capsys, monkeypatch, argv, n
    ):
        # past sys.maxsize math.factorial raised OverflowError on the first
        # term; below it, orders near 10^9 ran for hours
        def refuse(*args):
            raise AssertionError("walked above the cap")

        monkeypatch.setattr(implicit_deriv.partitions, "weighted_formula_heads", refuse)
        code, out, err = run(capsys, *argv, "--n", str(n))
        assert (code, out) == (1, "")
        assert err == (
            f"--n {n} is above MAX_STREAM_ORDER = {MAX_STREAM_ORDER}, "
            f"the highest order {argv[0]} accepts\n"
        )

    def test_order_at_the_stream_cap_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(implicit_deriv.partitions, "MAX_STREAM_ORDER", 3)
        for command in ("expand", "partitions", "compare-cf"):
            assert run(capsys, command, "--n", "3")[0] == 0
            assert run(capsys, command, "--n", "4")[0] == 1

    def test_huge_streamed_order_exits_one_without_traceback(self):
        done = run_process("expand", "--n", str(10**20))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.count("\n") == 1
        assert "is above MAX_STREAM_ORDER" in done.stderr

    def test_each_write_stays_small_at_high_order(self, monkeypatch):
        # A text term of order 5000 is 5 kB or more: 1024 of them joined
        # made writes of several MB, and memory grew with the order
        with open(os.devnull, "w") as devnull:
            stdout = _LeavingReader(writes=4, fd=devnull.fileno())
            monkeypatch.setattr(sys, "stdout", stdout)
            code = cli.main(["expand", "--n", "5000"])
        assert code == cli.EXIT_CLOSED_PIPE
        assert len(stdout.sizes) == 4
        assert max(stdout.sizes) < 1 << 20

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
    )
    def test_expand_peak_memory_is_flat(self):
        # The whole formula and its rendering held at once peak near 118 MB
        # at n = 15 (a(15) = 91,159 terms); streamed, the process stays near
        # its import size.  VmHWM, not ru_maxrss: see
        # test_long_chain_peak_memory_is_bounded.
        script = (
            "import os, sys\n"
            "from implicit_deriv import cli\n"
            "real, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
            "code = cli.main(sys.argv[1:])\n"
            "sys.stdout.close()\n"
            "sys.stdout = real\n"
            "status = open('/proc/self/status').read()\n"
            "print(code, status.split('VmHWM:')[1].split()[0])\n"
        )
        done = run_python("-c", script, "expand", "--n", "15", "--format", "json")
        code, peak_kib = done.stdout.split()
        assert code == "0", done.stderr
        assert int(peak_kib) < 40 * 1024


class _LeavingReader:
    """A stdout whose reader leaves after `writes` writes: it records the
    length of each write, then raises BrokenPipeError."""

    def __init__(self, writes, fd):
        self.writes, self.fd = writes, fd
        self.sizes = []

    def write(self, text):
        if len(self.sizes) == self.writes:
            raise BrokenPipeError
        self.sizes.append(len(text))
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        # the descriptor the CLI points at devnull once the reader has left
        return self.fd


def _sign_flipped(tail, denominator, *shape):
    return tail, -denominator, *shape


def _inexact(tail, denominator, *shape):
    # every weight of order 9 is a product of primes up to 2 * 9 - 2
    return tail, 17 * denominator, *shape


def _planted_walk(n, fault):
    """The order-n head walk with one fault planted: a changed last tail of
    the last head, or one more head making a partition that is not a
    formula partition, weighted 1 with the sign its part count asks for.
    Returns the walk and the number of good terms before the fault."""
    walked = list(formula_heads(n))
    head, head_denominator, tails = walked[-1]
    if callable(fault):
        walked[-1] = head, head_denominator, (*tails[:-1], fault(*tails[-1]))
        return walked, sum(len(tails) for _, _, tails in walked) - 1
    head = tuple(part for part in fault if part[0] >= 1)
    tail = tuple(part for part in fault if part[0] == 0)
    denominator = math.factorial(n) * math.factorial(len(fault) - 1)
    good = sum(len(tails) for _, _, tails in walked)
    return walked + [(head, denominator, (walked_tail(tail, 1),))], good


class TestFailedTermCheck:
    """A term that fails its check ends a command with exit 2 and one line
    on stderr, after every good term made before it (in verify, after the
    lines of the orders before it); a(9) = 1565 terms cross the 1024-chunk
    write batch.  The fault is planted in the walk of order 9 only."""

    N = 9
    FAULTS = {
        "sign": (_sign_flipped, "coefficient sign must be (-1)^(part count)"),
        "non-integral": (_inexact, "non-integral partition weight for (1,0)^9+(0,2)^8"),
        "y-sum": ([(2, 1)], "(2,1) is not a formula partition"),
        "fy-part": ([(1, 0), (0, 1)], "(1,0)+(0,1) is not a formula partition"),
    }

    def plant(self, monkeypatch, walked):
        real = formula_heads
        monkeypatch.setattr(
            implicit_deriv.partitions, "formula_heads",
            lambda n: iter(walked) if n == self.N else real(n),
        )

    def assert_failed(self, code, err, message):
        assert code == 2
        assert err.startswith(f"term check failed at n={self.N}: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize(
        "argv",
        [["expand"], ["expand", "--format", "latex"], ["expand", "--format", "json"],
         ["partitions"], ["compare-cf"]],
        ids=["text", "latex", "json", "partitions", "compare-cf"],
    )
    def test_good_terms_then_exit_two(self, capsys, monkeypatch, argv, fault):
        n = self.N
        plant, message = self.FAULTS[fault]
        walked, good = _planted_walk(n, plant)
        if argv == ["partitions"]:
            expected = "".join(line + "\n" for line in partition_lines(n)[:good])
        elif argv == ["compare-cf"]:
            # the header comes first
            expected = "".join(line + "\n" for line in compare_cf_lines(n)[:good + 1])
        else:
            fmt = argv[-1] if len(argv) > 1 else "text"
            terms = build_formula(n).terms[:good]
            expected = label_render(DerivativeFormula(n=n, terms=terms), fmt)
            if fmt == "json":
                # the header holds a(n), and the closing never comes
                expected = expected.replace(
                    f'"term_count": {good}, ', f'"term_count": {PUBLISHED_A[n - 1]}, ', 1
                )[:-2]
        self.plant(monkeypatch, walked)
        code, out, err = run(capsys, *argv, "--n", str(n))
        self.assert_failed(code, err, message)
        assert out == expected

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize(
        "flags", [[], ["--json"], ["--cf-mode"]], ids=["plain", "json", "cf-mode"]
    )
    def test_verify_keeps_the_orders_before(self, capsys, monkeypatch, flags, fault):
        code, before, _ = run(capsys, "verify", "--max", str(self.N - 1), *flags)
        assert code == 0
        plant, message = self.FAULTS[fault]
        self.plant(monkeypatch, _planted_walk(self.N, plant)[0])
        code, out, err = run(capsys, "verify", "--max", str(self.N), *flags)
        self.assert_failed(code, err, message)
        assert out == before


class _RecordingStdout:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


class TestWriteBatches:
    """The streaming writer joins _WRITE_BUDGET // n terms into each write.
    A failure in the stream, mid-batch or right at a batch's end, still
    writes every term made before it, in the same writes, then one line on
    stderr."""

    N = 16

    @pytest.mark.parametrize(
        "error, message",
        [(TermCheckError, "term check failed"), (TermCountMismatch, "term count disagreement")],
        ids=["term-check", "count-mismatch"],
    )
    @pytest.mark.parametrize("shift", [-1, 0, 1], ids=["one-short", "exact", "one-over"])
    def test_terms_before_a_failure_are_written(self, capsys, monkeypatch, shift, error, message):
        per_write = cli._WRITE_BUDGET // self.N
        terms = [f"<{k}>" for k in range(per_write + shift)]

        def chunks():
            yield from terms
            raise error("planted")

        stdout = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli._write_terms(self.N, chunks())
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"{message} at n={self.N}: planted\n"
        # full batches, then what the failure left, "" when nothing
        full = len(terms) // per_write * per_write
        assert stdout.writes == [
            "".join(terms[start:start + per_write]) for start in range(0, full, per_write)
        ] + ["".join(terms[full:])]


def read_then_close(size, *argv):
    """Start the CLI in a fresh interpreter, read `size` bytes of its stdout,
    close the pipe and wait for the process.  Returns the bytes read, the
    seconds the read took, the exit status and stderr.  The process is
    killed if it still runs 60 s after the start or after the close."""
    src = os.path.dirname(os.path.dirname(implicit_deriv.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "implicit_deriv.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        started = time.perf_counter()
        head = proc.stdout.read(size)
        elapsed = time.perf_counter() - started
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stderr.close()
    return head, elapsed, code, err


class TestClosedPipe:
    """A reader that stops early (`expand --n 12 | head -c 100`) ends the
    command quietly, with the status of a writer a closed pipe ends."""

    @pytest.mark.parametrize(
        "argv",
        [["expand", "--n", "12"], ["partitions", "--n", "12", "--format", "json"],
         ["compare-cf", "--n", "12"]],
        ids=["expand", "partitions-json", "compare-cf"],
    )
    def test_ends_quietly(self, argv):
        head, _, code, err = read_then_close(100, *argv)
        assert len(head) == 100
        assert (code, err) == (cli.EXIT_CLOSED_PIPE, b"")

    def test_text_starts_before_any_count(self):
        # a(300) is never computed for text, so the first terms come at once
        head, elapsed, code, err = read_then_close(100_000, "expand", "--n", "300")
        assert len(head) == 100_000
        assert head.startswith(b"-F" + b"x" * 300 + b"/Fy + ")
        assert elapsed < 10
        assert (code, err) == (cli.EXIT_CLOSED_PIPE, b"")


class TestRendererOracle:
    """The renderers and the partition lines, byte for byte against a copy
    that formats every label afresh (tests/oracles.py)."""

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_expand(self, capsys, n, fmt):
        code, out, _ = run(capsys, "expand", "--n", str(n), "--format", fmt)
        assert code == 0
        assert out == label_render(build_formula(n), fmt) + "\n"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_partitions(self, capsys, n):
        code, out, _ = run(capsys, "partitions", "--n", str(n))
        assert code == 0
        assert out == "".join(line + "\n" for line in partition_lines(n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_compare_cf(self, capsys, n):
        code, out, _ = run(capsys, "compare-cf", "--n", str(n))
        assert code == 0
        assert out == "".join(line + "\n" for line in compare_cf_lines(n))


class TestPartitions:
    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "partitions", "--n", "2")
        assert code == 0
        assert out.splitlines() == [
            "(2,0)  size=1  weight=1  sign=-",
            "(1,1)+(1,0)  size=2  weight=2  sign=+",
            "(1,0)^2+(0,2)  size=3  weight=1  sign=-",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "partitions", "--n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["term_count"] == 24


class TestCount:
    def test_table_lines(self, capsys):
        code, out, _ = run(capsys, "count", "--max", "5")
        assert code == 0
        assert out.splitlines() == ["1 1", "2 3", "3 9", "4 24", "5 61"]

    def test_methods_agree(self, capsys):
        for method in ("gf", "enum", "both"):
            code, out, _ = run(capsys, "count", "--max", "6", "--method", method)
            assert code == 0
            assert out.splitlines()[-1] == "6 145"

    def test_disagreement_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            implicit_deriv.counting, "term_count_enum", lambda n: 0
        )
        code, out, err = run(capsys, "count", "--max", "3", "--method", "both")
        assert code == 2
        assert "disagreement" in err

    @pytest.mark.parametrize("method", ["enum", "both"])
    def test_wrong_head_exits_two_after_the_orders_before(self, capsys, monkeypatch, method):
        # the order-6 walk yields one head one (1, 0) short: its first
        # coordinates sum to 5
        real = formula_heads

        def walk(n):
            for head, denominator, tails in real(n):
                if n == 6 and head == ((2, 0), (1, 0), (1, 0), (1, 0), (1, 0)):
                    head = head[:-1]
                yield head, denominator, tails

        monkeypatch.setattr(implicit_deriv.partitions, "formula_heads", walk)
        code, out, err = run(capsys, "count", "--max", "8", "--method", method)
        assert code == 2
        assert out.splitlines() == ["1 1", "2 3", "3 9", "4 24", "5 61"]
        assert err == (
            "term check failed at n=6: head (2,0)+(1,0)^3 has first coordinates "
            "summing to 5, not 6\n"
        )

    def test_order_above_the_cap_exits_one_quickly(self):
        # the product grid of order 10^9 would ask for 10^18 list slots
        done = run_process("count", "--max", "1000000000")
        assert done.returncode == 1
        assert done.stdout == ""
        assert f"MAX_COUNT_ORDER = {MAX_COUNT_ORDER}" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--max", str(MAX_COUNT_ORDER + 1), "--method", "enum"],
            ["compare-cf", "--n", str(MAX_COUNT_ORDER + 1), "--count"],
        ],
        ids=["count-enum", "compare-cf-count"],
    )
    def test_cap_holds_before_any_count(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("counted above the cap")

        for name in ("series_table", "term_count_gf", "term_count_enum", "cf_term_count"):
            monkeypatch.setattr(implicit_deriv.counting, name, refuse)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"is above MAX_COUNT_ORDER = {MAX_COUNT_ORDER}" in err


class TestVerify:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "4")
        assert code == 0
        assert out.splitlines() == [
            "n=1 equal (1 terms)",
            "n=2 equal (3 terms)",
            "n=3 equal (9 terms)",
            "n=4 equal (24 terms)",
        ]

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "3", "--json")
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in reports] == [1, 2, 3]
        assert all(r["status"] == "equal" for r in reports)
        assert all(r["coefficient_mismatches"] == [] for r in reports)

    def test_cf_mode_succeeds_on_predicted_mismatches(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "3", "--cf-mode")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n=1 mismatch as predicted (0/1")
        assert lines[1].startswith("n=2 mismatch as predicted (1/3")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["verify", "--max", "6"],
                "70d277b95b86bc85b499b6d4d9497488fcefb358028bb6ec2096d966814fb772",
            ),
            (
                ["verify", "--max", "5", "--cf-mode", "--json"],
                "1244a76f843ee2c7e1d522cbc450d86a7255d2f258978c06aac16a67eb58706c",
            ),
        ],
        ids=["plain", "cf-json"],
    )
    def test_never_builds_the_formula(self, capsys, monkeypatch, argv, digest):
        # the digests are the output of the held-formula verify this replaced
        def refuse(n):
            raise AssertionError(f"build_formula({n}) called")

        # the package, cli and oracle look the name up on formula until it
        # is set on them, so they are patched before it and restored to the
        # real one
        for module in (implicit_deriv, cli, implicit_deriv.oracle, implicit_deriv.formula):
            monkeypatch.setattr(module, "build_formula", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
    )
    @pytest.mark.parametrize(
        "flags, last",
        [
            ([], "n=13 equal (25379 terms)"),
            (["--cf-mode"], "n=13 mismatch as predicted (25107/25379 terms off by their q factor)"),
            # the sha256 of the 13 report lines, 7,290,224 bytes
            (
                ["--cf-mode", "--json"],
                "00ae35c2a60b790aaf96fb4f17b9eb89f3a480c7bc8a09d37bfbc3f083fbe946",
            ),
        ],
        ids=["plain", "cf-mode", "cf-mode-json"],
    )
    def test_peak_memory_at_order_thirteen(self, flags, last):
        # VmHWM with monomials keyed by byte strings, and with the tuple
        # keys they replaced (x86-64, 2 vCPUs): 18.9 / 25.2 MiB on Python
        # 3.10, 22.5 / 29.0 on 3.11, 21.0 / 27.3 on 3.12, 20.9 / 27.1 on
        # 3.13.  Each version's bound sits about 3 MiB from both, so a
        # return to tuple keys fails.  --cf-mode holds what plain verify
        # holds (22.5 MiB on 3.11); a mismatch record per term, as it
        # built before it compared the two dicts alone, took it to 43.5.
        # --cf-mode --json writes each report line straight from the two
        # dicts: 36.1 MiB on 3.11, where a record per differing term
        # serialised by json.dumps took 68.1; its bound sits halfway.
        # VmHWM, not ru_maxrss: see test_long_chain_peak_memory_is_bounded.
        if "--json" in flags:
            bound_mib = 52
        else:
            bound_mib = {(3, 10): 22, (3, 11): 26}.get(sys.version_info[:2], 24)
        script = (
            "import sys\n"
            "from implicit_deriv import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(code, status.split('VmHWM:')[1].split()[0])\n"
        )
        done = run_python("-c", script, "verify", "--max", "13", *flags)
        *lines, status = done.stdout.splitlines()
        code, peak_kib = status.split()
        assert code == "0", done.stderr
        if "--json" in flags:
            written = "".join([line + "\n" for line in lines]).encode()
            assert hashlib.sha256(written).hexdigest() == last
        else:
            assert lines[-1] == last
        assert int(peak_kib) < bound_mib * 1024

    @pytest.mark.parametrize(
        "argv, plain",
        [
            (["verify", "--max", "6", "--cf-mode"], ["verify", "--max", "6"]),
            (["verify", "--max", "4", "--cf-mode", "--json"], ["verify", "--max", "4", "--json"]),
            (["compare-cf", "--n", "6"], ["partitions", "--n", "6"]),
        ],
        ids=["verify", "verify-json", "compare-cf"],
    )
    def test_1974_pass_finds_no_runs_factorials_or_notation(
        self, capsys, monkeypatch, argv, plain
    ):
        # a term's 1974 coefficient is q times its walked one: a command
        # with the 1974 pass finds runs and makes factorials exactly as
        # often as its counterpart without it, and makes no notation
        def refuse(p):
            raise AssertionError(f"cf_notation({p}) called")

        for module in (implicit_deriv.cli, implicit_deriv.formula):
            monkeypatch.setattr(module, "cf_notation", refuse)
        calls = []
        for module, name in [
            (implicit_deriv.partitions, "part_runs"),
            (implicit_deriv.partitions, "factorial"),
            (implicit_deriv.formula, "part_runs"),
        ]:
            def counted(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        counts = []
        for command in (argv, plain):
            calls.clear()
            code, _, _ = run(capsys, *command)
            assert code == 0
            counts.append(sorted(calls))
        assert counts[0] == counts[1]
        assert calls

    def test_cf_mode_counts_the_terms_off(self, capsys):
        # the 1974 formula is exact on one term per partition of each k < n,
        # so a(n) - (p(0) + ... + p(n - 1)) terms are off
        code, out, _ = run(capsys, "verify", "--max", "10", "--cf-mode")
        assert code == 0
        for n, line in enumerate(out.splitlines(), 1):
            a_n = PUBLISHED_A[n - 1]
            off = a_n - sum(classical_partition_count(k) for k in range(n))
            assert line == (
                f"n={n} mismatch as predicted ({off}/{a_n} terms off by their q factor)"
            )

    @pytest.mark.parametrize(
        "flags",
        [[], ["--cf-mode"], ["--json"], ["--cf-mode", "--json"]],
        ids=["plain", "cf-mode", "plain-json", "cf-mode-json"],
    )
    def test_steps_through_the_oracle_entry_points(self, capsys, monkeypatch, flags):
        # order 1 made once and each order above it one step from the one
        # below; no mode builds a report, a mismatch record or a partition:
        # --json writes each report line straight from the two dicts
        oracle = implicit_deriv.oracle
        calls = {"brute_force_expansion": [], "total_derivative": []}
        for name, seen in calls.items():
            def counted(*args, real=getattr(oracle, name), seen=seen):
                seen.append(args)
                return real(*args)

            monkeypatch.setattr(oracle, name, counted)

        def refuse(*args, **named):
            raise AssertionError(f"a record built from {args} {named}")

        for record in (oracle.ComparisonReport, oracle.CoefficientMismatch, Partition2D):
            monkeypatch.setattr(record, "__init__", refuse)
        monkeypatch.setattr(Partition2D, "_from_sorted", refuse)
        code, out, _ = run(capsys, "verify", "--max", "5", *flags)
        assert code == 0
        assert len(out.splitlines()) == 5
        assert calls["brute_force_expansion"] == [(1,)]
        assert len(calls["total_derivative"]) == 4

    def test_order_above_the_cap_exits_one_before_any_work(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify started on an order above the cap")

        for name in ("brute_force_expansion", "total_derivative"):
            monkeypatch.setattr(implicit_deriv.oracle, name, refuse)
        code, out, err = run(capsys, "verify", "--max", str(MAX_VERIFY_ORDER + 1))
        assert code == 1
        assert out == ""
        assert err == (
            f"--max {MAX_VERIFY_ORDER + 1} is above MAX_VERIFY_ORDER = {MAX_VERIFY_ORDER}, "
            "the highest order verify accepts\n"
        )

    def test_order_at_the_cap_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(implicit_deriv.oracle, "MAX_VERIFY_ORDER", 3)
        code, out, _ = run(capsys, "verify", "--max", "3")
        assert (code, out.splitlines()[-1]) == (0, "n=3 equal (9 terms)")
        code, out, _ = run(capsys, "verify", "--max", "4")
        assert (code, out) == (1, "")

    def test_huge_order_exits_one_at_once(self):
        started = time.perf_counter()
        done = run_process("verify", "--max", "1000000")
        assert time.perf_counter() - started < 10
        assert (done.returncode, done.stdout) == (1, "")
        assert "is above MAX_VERIFY_ORDER" in done.stderr

    def test_jobs_option_is_gone(self, capsys):
        code, _, err = run(capsys, "verify", "--max", "2", "--jobs", "2")
        assert code == 1
        assert "unrecognized arguments: --jobs 2" in err

    def test_mutated_coefficient_exits_two(self, capsys, monkeypatch):
        # the first order-3 term, five times its coefficient, planted in the
        # group stream verify reads
        real = implicit_deriv.partitions.weighted_formula_heads

        def tampered(n):
            for k, (head, tails) in enumerate(real(n)):
                if n == 3 and k == 0:
                    (tail, coefficient), *rest = tails
                    tails = ((tail, coefficient * 5), *rest)
                yield head, tails

        monkeypatch.setattr(implicit_deriv.partitions, "weighted_formula_heads", tampered)
        code, out, _ = run(capsys, "verify", "--max", "3")
        assert code == 2
        assert "n=3 MISMATCH" in out

    @pytest.mark.parametrize(
        "pick, alter",
        [
            (lambda p, q: q == 1 and p.size > 1, lambda original, q: original * 3),
            (lambda p, q: q > 1, lambda original, q: original // q * (q + 1)),
            (lambda p, q: q > 1, lambda original, q: original // q),
        ],
        ids=["q-is-one-times-three", "off-by-q-plus-one", "equal-to-corrected"],
    )
    def test_cf_mode_flags_an_unpredicted_mismatch(self, capsys, monkeypatch, pick, alter):
        # one order-4 term given a 1974 coefficient off by other than its
        # factor q, planted in the 1974 groups that verify reads: a
        # mismatch where none is predicted, one by the wrong factor, or
        # none where one is predicted (the 1974 value is q times the
        # corrected weight)
        altered = []

        def alter_one(p, original, q):
            if not altered and p.x_sum == 4 and pick(p, q):
                altered.append(p)
                return alter(original, q)
            return original

        plant_1974_values(monkeypatch, alter_one)
        code, out, _ = run(capsys, "verify", "--max", "4", "--cf-mode")
        assert len(altered) == 1
        assert code == 2
        lines = out.splitlines()
        assert lines[2].startswith("n=3 mismatch as predicted")
        assert lines[3] == "n=4 UNEXPECTED DISCREPANCY"


class TestOneTermStream:
    """Every command reads the weighted head x tail groups; none builds a
    held term."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--n", "5"],
            ["expand", "--n", "5", "--format", "json"],
            ["partitions", "--n", "5"],
            ["verify", "--max", "5"],
            ["verify", "--max", "5", "--cf-mode"],
            ["compare-cf", "--n", "5"],
        ],
        ids=["expand", "expand-json", "partitions", "verify", "verify-cf", "compare-cf"],
    )
    def test_no_command_builds_a_formula_term(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a FormulaTerm was built")

        monkeypatch.setattr(FormulaTerm, "__init__", refuse)
        monkeypatch.setattr(FormulaTerm, "_from_checked", classmethod(refuse))
        with pytest.raises(AssertionError, match="FormulaTerm"):
            build_formula(2)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("flags", [[], ["--cf-mode"]], ids=["plain", "cf-mode"])
    def test_verify_reads_the_groups_once_per_order(self, capsys, monkeypatch, flags):
        orders = []
        real = implicit_deriv.partitions.weighted_formula_heads

        def counted(n):
            orders.append(n)
            return real(n)

        for module in (
            implicit_deriv, implicit_deriv.partitions, implicit_deriv.formula,
            implicit_deriv.oracle,
        ):
            monkeypatch.setattr(module, "weighted_formula_heads", counted)
        code, _, _ = run(capsys, "verify", "--max", "5", *flags)
        assert code == 0
        assert orders == [1, 2, 3, 4, 5]


class TestCompareCf:
    def test_per_term_table(self, capsys):
        code, out, _ = run(capsys, "compare-cf", "--n", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "partition  corrected  cf_original  q"
        assert "(1,1)^3+(1,0)^2+(0,2)  +600  +1200  2" in lines

    def test_order_two_table(self, capsys):
        code, out, _ = run(capsys, "compare-cf", "--n", "2")
        assert code == 0
        assert out.splitlines()[1:] == [
            "(2,0)  -1  -1  1",
            "(1,1)+(1,0)  +2  +2  1",
            "(1,0)^2+(0,2)  -1  -2  2",
        ]

    def test_row_prints_the_1974_evaluator_value(self, capsys, monkeypatch):
        # each row's 1974 coefficient is what cf_original_groups gives,
        # not a value derived from the corrected one and q
        planted = Partition2D([(1, 1), (1, 1), (1, 0), (1, 0), (0, 2)])
        plant_1974_values(
            monkeypatch, lambda p, original, q: -777777 if p == planted else original
        )
        code, out, _ = run(capsys, "compare-cf", "--n", "4")
        assert code == 0
        expected = []
        for line in compare_cf_lines(4):
            label, corrected, original, q = line.split("  ")
            if label == str(planted):
                line = f"{label}  {corrected}  -777777  {q}"
            expected.append(line)
        assert sum(line.endswith("  -777777  2") for line in expected) == 1
        assert out.splitlines() == expected

    def test_count_mode(self, capsys):
        code, out, _ = run(capsys, "compare-cf", "--n", "2", "--count")
        assert code == 0
        assert out == "n=2 cf_count=2 a=3 disagree\n"


class TestEval:
    def test_circle_second_derivative(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "0", "--y", "1", "--n", "2"
        )
        assert code == 0
        assert out == "-1\n"

    def test_solve_y_then_evaluate(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--expr", "x-exp(y)", "--x", "1", "--solve-y", "0.5",
            "--n", "1",
        )
        assert code == 0
        assert out == "1\n"

    def test_fd_check_lines(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "0", "--y", "1",
            "--n", "2", "--fd-check",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "-1"
        assert lines[1].startswith("fd ")
        assert lines[2].startswith("diff ")
        assert abs(float(lines[1].split()[1]) + 1.0) < 1e-4

    def test_fd_check_lines_are_the_same_on_every_python(self, capsys):
        # math.fsum rounds the stencil sum once, so these bytes hold on
        # every Python version; the built-in sum() does not before 3.12
        code, out, _ = run(
            capsys, "eval", "--expr", "y^3+x*y-x^3-1", "--x", "0.5", "--solve-y", "1",
            "--n", "4", "--fd-check",
        )
        assert code == 0
        assert out.splitlines() == [
            "-8.009133427002093",
            "fd -8.00925992194834",
            "diff 0.00012649494624739077",
        ]

    def test_fd_check_evaluates_once(self, capsys, monkeypatch):
        # the stencil check reuses the printed value: one table, one sum,
        # whichever module's binding a call goes through
        calls = {"derivative_table": 0, "evaluate_formula": 0}
        for name in calls:
            original = getattr(implicit_deriv.numeric, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            # cli looks the name up on numeric until it is set on cli
            monkeypatch.setattr(cli, name, counted)
            monkeypatch.setattr(implicit_deriv.numeric, name, counted)
        code, out, _ = run(
            capsys, "eval", "--expr", "x-exp(y)", "--x", "2", "--solve-y", "1",
            "--n", "3", "--fd-check",
        )
        assert code == 0
        assert out.splitlines()[0] == "0.25"
        assert calls == {"derivative_table": 1, "evaluate_formula": 1}

    def test_fd_check_solves_where_f_x_is_undefined(self, capsys):
        # the stencil point x0 - h is 0, where sqrt(x) has no x-derivative;
        # the Newton solve needs only F and F_y there
        code, out, _ = run(
            capsys, "eval", "--expr", "y-sqrt(x)", "--x", "0.001",
            "--y", repr(math.sqrt(0.001)), "--n", "1", "--fd-check",
        )
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0]) == pytest.approx(0.5 / math.sqrt(0.001), rel=1e-12)
        assert lines[1].startswith("fd ")

    def test_singular_point_exits_three(self, capsys):
        code, _, err = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "1", "--y", "0", "--n", "2"
        )
        assert code == 3
        assert "vertical tangent" in err

    def test_no_real_root_exits_three(self, capsys):
        code, _, err = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "2", "--solve-y", "1",
            "--n", "1",
        )
        assert code == 3
        assert "numeric error" in err

    def test_far_root_with_a_small_residual_exits_three(self, capsys):
        # Newton on y^4 - x from 1 reaches |F| = 1e-14 at y = 3.2e-4, where
        # F_y = 1.3e-10, far from the root 1e-75; the step there, y/4, is
        # not small, so it goes on until F_y underflows
        code, out, err = run(
            capsys, "eval", "--expr", "y*y*y*y-x", "--x", "1e-300", "--solve-y", "1",
            "--n", "2",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("numeric error: ") and err.count("\n") == 1

    def test_bad_expression_exits_one(self, capsys):
        code, _, err = run(
            capsys, "eval", "--expr", "x-*y", "--x", "1", "--y", "0", "--n", "1"
        )
        assert code == 1
        assert "offset 2" in err

    def test_deep_nesting_exits_one_without_traceback(self):
        expr = "(" * 3000 + "x" + ")" * 3000
        done = run_process("eval", "--expr", expr, "--x", "1", "--y", "0", "--n", "1")
        assert done.returncode == 1
        assert "cannot parse --expr" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "expr",
        [
            "y-1e9999999*x",
            "y-1e99999999999*x",
            pytest.param("y-" + "7" * (INT_DIGIT_LIMIT + 1) + "*x", marks=needs_digit_limit),
            pytest.param("y-x^" + "7" * (INT_DIGIT_LIMIT + 1), marks=needs_digit_limit),
        ],
        ids=["exponent-7-digits", "exponent-11-digits", "long-literal", "long-power"],
    )
    def test_oversized_literals_exit_one_quickly(self, expr):
        done = run_process("eval", "--expr", expr, "--x", "1", "--y", "0", "--n", "1")
        assert done.returncode == 1
        assert "cannot parse --expr" in done.stderr
        assert "Traceback" not in done.stderr

    def test_huge_power_exits_one_quickly(self):
        # a 301-digit exponent: the series power would take about 2000
        # series products, each O(n^4), and run for hours at n = 100
        started = time.perf_counter()
        done = run_process(
            "eval", "--expr", "y-x^1" + "0" * 300, "--x", "1", "--y", "1", "--n", "100"
        )
        assert time.perf_counter() - started < 2
        assert done.returncode == 1
        assert done.stderr == "cannot parse --expr: exponent beyond 4300 (at offset 4)\n"

    def test_long_flat_chain_evaluates(self):
        # a 3000-term left-associative chain is a 3000-deep tree
        expr = "+".join(["x"] * 2999) + "-y"
        for y_source in (["--y", "2999"], ["--solve-y", "1"]):
            done = run_process("eval", "--expr", expr, "--x", "1", *y_source, "--n", "2")
            assert done.returncode == 0, done.stderr
            assert "Traceback" not in done.stderr
            assert done.stdout == "0\n"

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
    )
    def test_long_chain_peak_memory_is_bounded(self):
        # a series held for every node of this 2999-term chain peaks near
        # 190 MB at n = 30; only the live results take about 20 MB.  The
        # child reads its own high-water mark, VmHWM: ru_maxrss would carry
        # over the peak of the test process, which Linux merges in at exec.
        script = (
            "import sys\n"
            "from implicit_deriv import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(code, status.split('VmHWM:')[1].split()[0])\n"
        )
        expr = "+".join(["x*y"] * 2998) + "-y"
        done = run_python(
            "-c", script, "eval", "--expr", expr, "--x", "0.5", "--solve-y", "0", "--n", "30"
        )
        value, status = done.stdout.splitlines()
        code, peak_kib = status.split()
        assert code == "0", done.stderr
        assert value == "0"
        assert int(peak_kib) < 48 * 1024

    def test_calls_nested_to_the_limit_evaluate_quickly(self):
        # MAX_NESTING - 1 nested calls around x: the innermost x is the
        # deepest factor the parser admits
        depth = MAX_NESTING - 1
        expr = "sin(" * depth + "x" + ")" * depth + "+y"
        done = run_process("eval", "--expr", expr, "--x", "0.5", "--solve-y", "0", "--n", "8")
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        float(done.stdout)

    @pytest.mark.parametrize(
        "expr, x, n",
        [("log(x)+y", "-1", "2"), ("sqrt(x)+y", "0", "2"), ("1/(x-1)+y", "1", "2"),
         ("(x-1)^-1+y", "1", "2"), ("exp(1000*x)+y", "1", "2"),
         ("y-sqrt(x^2)", "0", "1"), ("y-sqrt(x^4)", "0", "2")],
    )
    def test_domain_errors_exit_three(self, capsys, expr, x, n):
        code, out, err = run(capsys, "eval", "--expr", expr, "--x", x, "--y", "0", "--n", n)
        assert code == 3
        assert out == ""
        assert "numeric error" in err

    def test_order_above_the_cap_exits_one_quickly(self):
        done = run_process(
            "eval", "--expr", "x-exp(y)", "--x", "1", "--y", "0", "--n", "1000000000"
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert f"MAX_EVAL_ORDER = {MAX_EVAL_ORDER}" in done.stderr
        assert "Traceback" not in done.stderr

    def test_log_curve_at_order_30(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--expr", "x-exp(y)", "--x", "2", "--solve-y", "0.7",
            "--n", "30",
        )
        assert code == 0
        expected = (-1) ** 29 * math.factorial(29) / 2.0**30
        assert float(out) == pytest.approx(expected, rel=1e-9)

    def test_circle_at_order_24(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "0.6", "--solve-y", "0.8",
            "--n", "24",
        )
        assert code == 0
        assert float(out) == pytest.approx(circle_derivative(24, 0.6), rel=1e-9)

    def test_never_builds_the_formula(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"build_formula({n}) called")

        # the package, cli and numeric look the name up on formula until it
        # is set on them, so they are patched first and restored to the real
        # one
        for module in (implicit_deriv, cli, implicit_deriv.numeric, implicit_deriv.formula):
            monkeypatch.setattr(module, "build_formula", refuse)
        code, out, err = run(
            capsys, "eval", "--expr", "x-exp(y)", "--x", "2", "--solve-y", "1",
            "--n", "12", "--fd-check",
        )
        assert code == 0, err
        assert float(out.splitlines()[0]) == pytest.approx(-39916800 / 2**12, rel=1e-9)

    def test_cancellation_warns_on_stderr(self):
        # y = x on this curve, so the value is 0; the float sum is noise
        done = run_process(
            "eval", "--expr", "y^3+y-x^3-x", "--x", "0.5", "--y", "0.5", "--n", "12"
        )
        assert done.returncode == 0
        float(done.stdout)
        assert done.stdout.count("\n") == 1
        # one plain line: no "UserWarning", source path or source line
        [line] = done.stderr.splitlines()
        assert line.startswith("warning: d^12y/dx^12 = ")
        assert "cancelling terms" in line
        assert "UserWarning" not in line and ".py" not in line

    def test_off_curve_warning_is_one_plain_line(self, capsys):
        code, out, err = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "0.5", "--y", "0.5", "--n", "3"
        )
        assert (code, out) == (0, "-24\n")
        assert err == "warning: |F(x0, y0)| = 5.000e-01: point is not on the curve\n"

    def test_well_conditioned_value_has_quiet_stderr(self):
        done = run_process(
            "eval", "--expr", "x^2+y^2-1", "--x", "0.6", "--solve-y", "0.8", "--n", "12"
        )
        assert done.returncode == 0
        assert done.stderr == ""

    @pytest.mark.parametrize(
        "option, point",
        [("--x", ["--x", "nan", "--y", "1"]), ("--y", ["--x", "0", "--y", "inf"]),
         ("--solve-y", ["--x", "0", "--solve-y=-inf"]), ("--x", ["--x", "1e999", "--y", "1"]),
         ("--x", ["--x", "abc", "--y", "1"])],
    )
    def test_non_finite_point_exits_one_naming_the_option(self, capsys, option, point):
        code, out, err = run(capsys, "eval", "--expr", "x^2+y^2-1", *point, "--n", "2")
        assert code == 1
        assert out == ""
        assert f"argument {option}: must be a finite number" in err

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "1e400"])
    def test_literal_too_large_for_a_float_exits_three(self, capsys, literal):
        # an int literal overflows as a Fraction's float() does
        code, out, err = run(
            capsys, "eval", "--expr", f"y-{literal}*x", "--x", "0.5", "--y", "1", "--n", "2"
        )
        assert (code, out) == (3, "")
        assert err == "numeric error: integer division result too large for a float\n"

    def test_non_finite_result_exits_three(self, capsys):
        # F_60,0 = -10^360 overflows to inf in the derivative table, and the
        # extraction turns it into nan
        code, out, err = run(
            capsys, "eval", "--expr", "y-exp(1000000*x)", "--x", "0", "--y", "1", "--n", "60"
        )
        assert code == 3
        assert out == ""
        assert "numeric error: d^60y/dx^60 is not finite" in err

    def test_non_finite_fd_estimate_exits_three(self, capsys):
        # the value, 0, is finite, but the stencil weight -2 times the
        # sample y = 1e308 overflows, so the estimate reads -inf
        code, out, err = run(
            capsys, "eval", "--expr", "y-x", "--x", "1e308", "--y", "1e308", "--n", "2",
            "--fd-check",
        )
        assert (code, out) == (3, "")
        assert err == "numeric error: finite-difference estimate is not finite (-inf)\n"

    @pytest.mark.parametrize("text", ["-1e-3", "-2.5E+0", "-.5e1", "-0.75"])
    def test_negative_number_in_its_own_argument(self, capsys, text):
        # "--x -1e-3" reads like "--x=-1e-3", not as an unknown option -1e-3
        for point in (["--x", text, "--y", text], ["--x", text, "--solve-y", text],
                      [f"--x={text}", f"--y={text}"]):
            code, out, err = run(capsys, "eval", "--expr", "y-x", *point, "--n", "1")
            assert (code, out, err) == (0, "1\n", "")

    def test_negative_non_finite_point_exits_one(self, capsys):
        code, out, err = run(
            capsys, "eval", "--expr", "x^2+y^2-1", "--x", "-1e999", "--y", "1", "--n", "2"
        )
        assert code == 1
        assert out == ""
        assert "argument --x: must be a finite number, not '-1e999'" in err

    def test_negative_order_still_exits_one(self, capsys):
        code, out, err = run(
            capsys, "eval", "--expr", "y-x", "--x", "0", "--y", "0", "--n", "-1"
        )
        assert code == 1
        assert out == ""
        assert "argument --n: must be a positive integer" in err

    @pytest.mark.parametrize("value, text", [(math.inf, "inf"), (math.nan, "nan"), (-0.0, "0")])
    def test_format_number_is_total(self, value, text):
        assert cli._format_number(value) == text

    def test_requires_exactly_one_y_source(self, capsys):
        code, _, _ = run(capsys, "eval", "--expr", "x-exp(y)", "--x", "1", "--n", "1")
        assert code == 1
        code, _, _ = run(
            capsys, "eval", "--expr", "x-exp(y)", "--x", "1", "--y", "0",
            "--solve-y", "0", "--n", "1",
        )
        assert code == 1


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "expand")[0] == 1

    def test_rejects_zero_order(self, capsys):
        assert run(capsys, "expand", "--n", "0")[0] == 1

    @pytest.mark.parametrize("text", ["1.5", "abc", "0", "-2"])
    def test_bad_order_names_the_option_and_the_value(self, capsys, text):
        # the message names no private function, as `invalid _positive_int
        # value` did for a value int() refuses
        code, out, err = run(capsys, "expand", f"--n={text}")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            f"implicit-deriv expand: error: argument --n: must be a positive integer, not {text!r}"
        )

    def test_unknown_format(self, capsys):
        assert run(capsys, "expand", "--n", "1", "--format", "html")[0] == 1


class TestColdStart:
    # Modules that cost milliseconds to import and that no command needs
    # at start-up; no command loads json at all: verify --json writes its
    # report lines itself, and argparse (with gettext) loads only for help
    # and usage errors.
    DEFERRED = ["argparse", "dataclasses", "gettext", "inspect", "json", "typing"]

    def test_the_cli_imports_none_of_the_deferred_modules(self):
        # -S: no site module, which on some hosts loads typing by itself
        done = run_python("-S", "-c", (
            "import sys; before = set(sys.modules); import implicit_deriv.cli; "
            f"print(sorted(set({self.DEFERRED!r}) & (set(sys.modules) - before)))"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_verify_json_needs_no_json(self):
        # verify --json writes each report line itself; -S as above
        done = run_python("-S", "-c", (
            "import io, sys\n"
            "import implicit_deriv.cli as cli\n"
            "real, sys.stdout = sys.stdout, io.StringIO()\n"
            "code = cli.main(sys.argv[1:])\n"
            "lines = sys.stdout.getvalue().splitlines()\n"
            "sys.stdout = real\n"
            "print(code, len(lines), 'json' in sys.modules)\n"
        ), "verify", "--max", "3", "--cf-mode", "--json")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0 3 False\n"

    def test_verify_json_bytes_are_unchanged(self):
        done = run_process("verify", "--max", "3", "--json")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "".join(
            f'{{"n": {n}, "status": "equal", "missing": [], "extra": [], '
            f'"coefficient_mismatches": []}}\n'
            for n in (1, 2, 3)
        )


class TestCommandImports:
    """Each command loads only the package modules it runs: the package and
    cli load none at start-up, and each handler imports its own."""

    # Loaded by no count command: the symbolic and numeric layers, the
    # brute force, the formula, and the standard library's exact decimals
    # and fractions.
    NOT_COUNTING = [
        "decimal", "fractions", "implicit_deriv.expressions", "implicit_deriv.formula",
        "implicit_deriv.numeric", "implicit_deriv.oracle",
    ]
    # Loaded by eval: none of the partition walk, the formula, the brute
    # force, the term counts or the symbolic partials, and for integer
    # literals without --fd-check, not the standard library's exact
    # fractions and the decimals they import.
    NOT_EVALUATING = [
        "decimal", "fractions", "implicit_deriv._symbolic", "implicit_deriv.counting",
        "implicit_deriv.formula", "implicit_deriv.oracle", "implicit_deriv.partitions",
    ]
    EVAL_PACKAGE_MODULES = [
        "implicit_deriv._record", "implicit_deriv.cli", "implicit_deriv.expressions",
        "implicit_deriv.numeric",
    ]

    @staticmethod
    def loaded_by(*argv):
        """The status of `cli.main(argv)` in a fresh interpreter, and the
        modules it has loaded by then."""
        script = (
            "import io, json, sys\n"
            "import implicit_deriv.cli as cli\n"
            "real, sys.stdout = sys.stdout, io.StringIO()\n"
            "code = cli.main(sys.argv[1:])\n"
            "sys.stdout = real\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        done = run_python("-c", script, *argv)
        assert done.returncode == 0, done.stderr
        code, modules = json.loads(done.stdout)
        return code, set(modules)

    @staticmethod
    def package_modules(modules):
        return sorted(name for name in modules if name.startswith("implicit_deriv."))

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["count", "--max", "5"], ["counting"]),
            (["compare-cf", "--n", "8", "--count"], ["counting"]),
            (["count", "--max", "5", "--method", "both"], ["counting", "partitions"]),
        ],
        ids=["count", "compare-cf-count", "count-both"],
    )
    def test_counts_load_the_walk_and_the_product_alone(self, argv, loaded):
        # the product alone for the generating function; the walk too
        # only for the enumeration count
        code, modules = self.loaded_by(*argv)
        assert code == 0
        assert sorted(modules & set(self.NOT_COUNTING)) == []
        assert self.package_modules(modules) == sorted(
            ["implicit_deriv.cli"] + [f"implicit_deriv.{name}" for name in loaded]
        )

    def test_eval_loads_the_expressions_and_numeric_alone(self):
        code, modules = self.loaded_by(
            "eval", "--expr", "x^2+y^2-1", "--x", "0.6", "--solve-y", "0.8", "--n", "3",
        )
        assert code == 0
        assert sorted(modules & set(self.NOT_EVALUATING)) == []
        assert self.package_modules(modules) == self.EVAL_PACKAGE_MODULES

    @pytest.mark.parametrize(
        "expr", ["x^2+y^2-1.0", "x^2+y^2-1e0"], ids=["decimal-literal", "exponent-literal"],
    )
    def test_eval_loads_fractions_for_a_decimal_literal(self, expr):
        code, modules = self.loaded_by(
            "eval", "--expr", expr, "--x", "0.6", "--solve-y", "0.8", "--n", "3",
        )
        assert code == 0
        assert "fractions" in modules
        assert modules & set(self.NOT_EVALUATING) <= {"decimal", "fractions"}
        assert self.package_modules(modules) == self.EVAL_PACKAGE_MODULES

    def test_eval_fd_check_loads_no_fractions(self):
        # the stencil's half-integer weights are kept as integers over 2
        code, modules = self.loaded_by(
            "eval", "--expr", "x^2+y^2-1", "--x", "0.6", "--solve-y", "0.8", "--n", "3",
            "--fd-check",
        )
        assert code == 0
        assert sorted(modules & set(self.NOT_EVALUATING)) == []
        assert self.package_modules(modules) == self.EVAL_PACKAGE_MODULES

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["expand", "--n", "4"], ["formula", "partitions"]),
            (["expand", "--n", "4", "--format", "json"], ["counting", "formula", "partitions"]),
            (["partitions", "--n", "4"], ["formula", "partitions"]),
            (["compare-cf", "--n", "4"], ["formula", "partitions"]),
            (["verify", "--max", "3", "--cf-mode"], ["formula", "oracle", "partitions"]),
            (["verify", "--max", "3"], ["oracle", "partitions"]),
        ],
        ids=["expand", "expand-json", "partitions", "compare-cf", "verify", "verify-plain"],
    )
    def test_the_streaming_commands_load_no_numeric_layer(self, argv, loaded):
        code, modules = self.loaded_by(*argv)
        assert code == 0
        assert self.package_modules(modules) == sorted(
            ["implicit_deriv._record", "implicit_deriv.cli"]
            + [f"implicit_deriv.{name}" for name in loaded]
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--n", "4", "--format=json"],
            ["partitions", "--n", "4"],
            ["count", "--max", "5", "--method", "both"],
            ["verify", "--max", "3", "--cf-mode", "--json"],
            ["compare-cf", "--n=8", "--count"],
            ["eval", "--expr", "x-exp(y)", "--x", "1.5", "--solve-y", "0.4", "--n", "7",
             "--fd-check"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_valid_command_loads_no_argparse(self, argv):
        # the command table reads the line: argparse is built only for
        # help and usage errors
        code, modules = self.loaded_by(*argv)
        assert code == 0
        assert sorted(modules & {"argparse", "gettext"}) == []

    def test_a_usage_error_loads_argparse(self):
        code, modules = self.loaded_by("expand", "--n", "0")
        assert code == 1
        assert "argparse" in modules

    def test_the_package_alone_loads_no_module(self):
        done = run_python("-c", (
            "import sys, implicit_deriv; "
            "print(sorted(name for name in sys.modules if name.startswith('implicit_deriv.')))"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from implicit_deriv import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == implicit_deriv.__all__
        assert len(namespace) == 35
        for name, value in namespace.items():
            assert value is getattr(sys.modules[value.__module__], name)

    def test_modules_and_names_resolve_on_first_use(self):
        listed = dir(implicit_deriv)
        for name in ("cli", "counting", "expressions", "formula", "numeric", "oracle",
                     "partitions", *implicit_deriv.__all__):
            assert name in listed
            assert getattr(implicit_deriv, name) is not None
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            implicit_deriv.missing
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            cli.missing


class TestPinnedNames:
    """The names a module binds for bench/trace_child.py without calling
    them, or calls only through the module, and the symbolic partials that
    `expressions` and `numeric` no longer define, are looked up on the
    module defining each, and only when read."""

    FORWARDED = {
        "cli": (
            "build_formula", "cf_notation", "cf_original_coefficient", "render",
            "parse_expression", "derivative_table", "evaluate_formula",
            "finite_difference_check", "implicit_solve",
        ),
        "counting": ("formula_partitions",),
        "oracle": ("build_formula", "cf_original_coefficient"),
        "numeric": ("build_formula", "evaluate", "mixed_partial"),
        "expressions": ("ONE", "ZERO", "differentiate", "evaluate", "mixed_partial"),
    }
    PINNED = [(module, name) for module, names in FORWARDED.items() for name in names]
    # A public name that each module neither defines nor forwards.
    UNLISTED = {
        "cli": "formula_partitions", "counting": "render", "oracle": "render",
        "numeric": "parse_expression", "expressions": "derivative_table",
    }

    @staticmethod
    def defining_module(name):
        return getattr(implicit_deriv, implicit_deriv._MODULE_OF[name])

    @pytest.mark.parametrize("module_name, name", PINNED)
    def test_a_pinned_name_is_the_defining_modules_object(self, module_name, name):
        module = getattr(implicit_deriv, module_name)
        defined = getattr(self.defining_module(name), name)
        assert module.__getattr__(name) is defined
        assert getattr(module, name) is defined

    @pytest.mark.parametrize("module_name, name", PINNED)
    def test_the_defining_module_loads_when_the_name_is_read(self, module_name, name):
        script = (
            "import importlib, sys\n"
            "import implicit_deriv\n"
            "module = importlib.import_module(sys.argv[1])\n"
            "defining = f'implicit_deriv.{implicit_deriv._MODULE_OF[sys.argv[2]]}'\n"
            "loaded = defining in sys.modules\n"
            "value = getattr(module, sys.argv[2])\n"
            "print(loaded, value is getattr(sys.modules[defining], sys.argv[2]))\n"
        )
        done = run_python("-c", script, f"implicit_deriv.{module_name}", name)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False True\n"

    @pytest.mark.parametrize("module_name", FORWARDED)
    def test_an_unlisted_name_raises_naming_the_module(self, module_name):
        module = getattr(implicit_deriv, module_name)
        for name in ("missing", self.UNLISTED[module_name]):
            message = f"^module 'implicit_deriv.{module_name}' has no attribute '{name}'$"
            with pytest.raises(AttributeError, match=message):
                getattr(module, name)

    def test_traced_eval_calls_through_cli(self):
        # Only cli binds these two names for the tracer, so a handler that
        # stopped calling them through its module would trace no call.  The
        # record of this one command, about 1.5 kB, fits a pipe's buffer.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(implicit_deriv.__file__))
        argv = [
            "eval", "--expr", "x^3+y^3-3*x*y", "--x", "1.2", "--solve-y", "0.6", "--n", "3",
            "--fd-check",
        ]
        read, write = os.pipe()
        with os.fdopen(read) as source:
            try:
                done = subprocess.run(
                    [sys.executable, os.path.join(root, "bench", "trace_child.py"), str(write),
                     *argv],
                    pass_fds=(write,), capture_output=True, text=True, timeout=60,
                    env={**os.environ, "PYTHONPATH": src},
                )
            finally:
                os.close(write)
            assert done.returncode == 0, done.stderr
            stats = json.load(source)["stats"]
        calls = {
            key: stats[key]["calls"] if key in stats else 0
            for key in ("expressions.parse_expression", "numeric.finite_difference_check")
        }
        assert min(calls.values()) >= 1, calls
