#!/usr/bin/env python3
"""Benchmark of the implicit-deriv command-line program.

Run from the root of a checkout:

    python3 bench/run.py --workload expand-hi --seed 1 --seconds 25 --trace 0

Every invocation of the workload is a fresh `python -m implicit_deriv.cli`
process importing from the checkout's src/, started only after the previous
one has exited (closed loop, one client).  Time and peak RSS come from
os.wait4 on that child; its stdout is streamed into a digest and checked
(see checks.py).  Passes over the workload, each in an order shuffled by the
seed, repeat until --seconds would be exceeded.

The host's speed drifts by tens of percent over seconds to minutes, so a
fixed piece of work (reference_work) is timed in this process, on the CPU
the children run on, between every two children; each child's time is
scaled by the reference times taken right before and right after it.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json.  --trace 1
reports its per-layer metrics instead: one more pass runs every invocation
untraced and then in a fresh interpreter under trace_child.py, which times
the calls between the package's modules.  Spans go to .bench_out/ in the
checkout.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 when every output was correct, 1 when
one was not (the result line is still printed), 2 when the run could not be
set up (no result line).  Workloads, checks and eval points are in
design.json next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from checks import StdoutProbe, eval_problems, exact_problems, vetted_root

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
STDERR_KEEP = 1 << 16


def reference_work() -> None:
    """A fixed piece of interpreter work of the kinds the CLI does (small-int
    and Fraction arithmetic, dicts keyed by tuples, string formatting), 10 to
    18 ms on the reference machine.  Its time, taken next to every child,
    measures how fast the host runs Python at that moment."""
    table: dict[tuple, int] = {}
    total = Fraction(0)
    for i in range(1, 8000):
        key = (i % 37, i % 11, i % 5)
        table[key] = table.get(key, 0) + i * i
        if i % 4 == 0:
            total += Fraction(i % 7 + 1, i % 13 + 1)
    "".join(f"{k[0]}_{k[1]}^{k[2]}={v} " for k, v in sorted(table.items()))


class SetupError(Exception):
    """The run cannot start: nothing is measured and no result is printed."""


@dataclass
class Invocation:
    args: list[str]
    needle: bytes | None
    check: Callable[[int, StdoutProbe], list[str]]  # (exit code, stdout) -> problems


@dataclass
class Outcome:
    invocation: Invocation
    wall_s: float
    speed: int  # index of the calibration block taken right before this run
    rss_mb: float
    stdout_bytes: int
    trace: dict | None = None


class Child(NamedTuple):
    returncode: int
    started: float  # time.perf_counter() at spawn
    wall_s: float
    rss_mb: float  # ru_maxrss of this child alone, from os.wait4
    out: StdoutProbe
    err: bytes  # the first STDERR_KEEP bytes
    trace: bytes
    timed_out: bool


def run_child(argv: list[str], env: dict, needle: bytes | None, timeout: float, cpu: int,
              trace_pipe=None) -> Child:
    """Run one child on CPU `cpu` to completion, reading stdout, stderr and
    the optional trace pipe (read end, write end) as they arrive on any CPU.
    A child still running after `timeout` seconds is killed."""
    probe, err, trace = StdoutProbe(needle), bytearray(), bytearray()
    pass_fds = (trace_pipe[1],) if trace_pipe else ()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # inherited by the child
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=pass_fds,
        )
    finally:
        os.sched_setaffinity(0, allowed)
    sinks = {
        proc.stdout.fileno(): probe.feed,
        proc.stderr.fileno(): lambda chunk: err.extend(chunk[: STDERR_KEEP - len(err)]),
    }
    if trace_pipe:
        os.close(trace_pipe[1])
        sinks[trace_pipe[0]] = trace.extend
    timed_out = False
    try:
        with selectors.DefaultSelector() as selector:
            for fd in sinks:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                left = None if timed_out else max(start + timeout - time.perf_counter(), 0.0)
                ready = selector.select(left)
                if not ready and not timed_out:
                    proc.kill()
                    timed_out = True
                for key, _ in ready:
                    chunk = os.read(key.fd, 1 << 20)
                    if chunk:
                        sinks[key.fd](chunk)
                    else:
                        selector.unregister(key.fd)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if trace_pipe:
        os.close(trace_pipe[0])
    return Child(proc.returncode, start, wall, usage.ru_maxrss / 1024, probe, bytes(err), bytes(trace), timed_out)


class Runner:
    def __init__(self, design: dict, workload: str, seed: int):
        self.design = design
        self.rng = random.Random(seed)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.timeout = design["child_timeout_s"]
        self.cpu = max(os.sched_getaffinity(0))
        self.blocks: list[list[float]] = []  # reference_work times, one list per calibrate()
        self.calibrated = time.perf_counter()
        self.invocations = self._invocations(workload)
        self.attempted = 0
        self.failed = 0

    def _invocations(self, workload: str) -> list[Invocation]:
        counts = self.design["published_counts"]["values"]
        limits = self.design["eval_curves"]
        result = []
        for entry in self.design["workloads"][workload]["invocations"]:
            if "argv" in entry:
                check = entry["check"]
                result.append(Invocation(
                    entry["argv"],
                    b"\\frac" if "frac_count_is_a" in check else None,
                    lambda rc, out, check=check: exact_problems(check, rc, out, counts),
                ))
                continue
            curve = limits["curves"][entry["curve"]]
            for x, guess, *_ in curve["points"]:
                try:
                    y = vetted_root(curve["expr"], x, guess, limits["min_abs_fy"])
                except (ValueError, ArithmeticError) as exc:
                    raise SetupError(f"eval point refused: {exc}") from None
                if curve["reference"] == "circle" and abs(y - (1 - x * x) ** 0.5) > 1e-12:
                    raise SetupError(f"circle point x={x} guess={guess} leaves the upper branch")
            point = self.rng.choice(curve["points"])
            x, guess = point[0], point[1]
            args = ["eval", "--expr", curve["expr"], "--x", repr(x), "--solve-y", repr(guess),
                    "--n", str(curve["n"])]
            if curve.get("fd_check"):
                args.append("--fd-check")
            result.append(Invocation(
                args, None,
                lambda rc, out, curve=curve, point=point: eval_problems(curve, point, limits, rc, out),
            ))
        return result

    def calibrate(self) -> int:
        """Time reference_work on the CPU the children run on, once per
        `interval_s` since the last block (at least once), so the samples
        spread over a run as evenly as the children allow.  Returns the
        index of the new block."""
        interval = self.design["calibration"]["interval_s"]
        block: list[float] = []
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            for _ in range(max(1, round((time.perf_counter() - self.calibrated) / interval))):
                start = time.perf_counter()
                reference_work()
                block.append(time.perf_counter() - start)
        finally:
            os.sched_setaffinity(0, allowed)
            self.calibrated = time.perf_counter()
        self.blocks.append(block)
        return len(self.blocks) - 1

    def at_reference_speed(self, seconds: float, speed: int) -> float:
        """`seconds` measured between calibration blocks `speed` and
        `speed + 1`, scaled to the host speed at which reference_work takes
        reference_s.  The host switches between a fast and a slow state, and
        a child's time adds up over the states it ran in, so the scale is the
        mean reference_work time of the two blocks, not their median."""
        samples = self.blocks[speed] + self.blocks[speed + 1]
        return seconds * self.design["calibration"]["reference_s"] / statistics.fmean(samples)

    def python(self, code: str) -> tuple[int, float, str]:
        """Calibration block, spawn time and stdout of a fresh interpreter
        running `code`; SetupError on failure."""
        speed = self.calibrate()
        child = run_child([sys.executable, "-c", code], self.env, None, self.timeout, self.cpu)
        if child.returncode != 0:
            detail = child.err.decode(errors="replace")
            raise SetupError(f"python -c {code!r} failed with {child.returncode}: {detail}")
        return speed, child.started, child.out.text()

    def setup_seconds(self) -> list[tuple[float, int]]:
        """Import location check, one warm-up import (it also writes the
        bytecode cache, which users do not pay on every call), then timed
        spawns of an interpreter until implicit_deriv.cli is imported, as
        (seconds, calibration block) pairs.  time.perf_counter is
        CLOCK_MONOTONIC, so the child's reading compares with the parent's."""
        _, _, location = self.python("import implicit_deriv.cli as c; print(c.__file__)")
        if Path(location.strip()).resolve().parent != SRC / "implicit_deriv":
            raise SetupError(f"implicit_deriv.cli imports from {location.strip()}, not from {SRC}")
        samples = []
        for _ in range(self.design["setup_samples"]):
            speed, started, ready = self.python("import time, implicit_deriv.cli; print(time.perf_counter())")
            samples.append((float(ready) - started, speed))
        return samples

    def run(self, invocation: Invocation, traced: bool) -> Outcome:
        if traced:
            pipe = os.pipe()
            argv = [sys.executable, str(HERE / "trace_child.py"), str(pipe[1]), *invocation.args]
        else:
            pipe = None
            argv = [sys.executable, "-m", "implicit_deriv.cli", *invocation.args]
        speed = self.calibrate()
        child = run_child(argv, self.env, invocation.needle, self.timeout, self.cpu, pipe)
        if child.timed_out:
            problems = [f"killed after {self.timeout} s"]
        else:
            try:
                problems = invocation.check(child.returncode, child.out)
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        trace = None
        if traced:
            try:
                trace = json.loads(child.trace)
            except ValueError:
                problems = problems or ["traced child wrote no trace"]
        self.attempted += 1
        if problems:
            self.failed += 1
            command = " ".join(invocation.args)
            print(f"FAILED implicit-deriv {command}: {'; '.join(problems)}", file=sys.stderr)
            if child.err:
                print(child.err.decode(errors="replace"), file=sys.stderr)
        return Outcome(invocation, child.wall_s, speed, child.rss_mb, child.out.nbytes, trace)

    def shuffled(self) -> list[Invocation]:
        order = list(self.invocations)
        self.rng.shuffle(order)
        return order

    def passes(self, seconds: float) -> list[list[Outcome]]:
        """Untraced passes, each over every invocation in an order shuffled by
        the seed, until one more would likely end past `seconds`."""
        started = time.perf_counter()
        done = [[self.run(invocation, False) for invocation in self.shuffled()]]
        while (time.perf_counter() - started) * (len(done) + 1) / len(done) <= seconds:
            done.append([self.run(invocation, False) for invocation in self.shuffled()])
        return done

    def traced_pass(self) -> tuple[list[Outcome], float]:
        """Every invocation once traced, each right after an untraced run of
        it, so the two see the same host.  Returns the traced outcomes and
        the summed traced wall time over the summed untraced wall time."""
        pairs = [(self.run(invocation, False), self.run(invocation, True)) for invocation in self.shuffled()]
        plain = sum(untraced.wall_s for untraced, _ in pairs)
        return [traced for _, traced in pairs], sum(traced.wall_s for _, traced in pairs) / plain


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(runner: Runner, setup: list[tuple[float, int]], passes: list[list[Outcome]]) -> dict[str, float]:
    """Every time is taken at the reference host speed (Runner.at_reference_speed).
    setup_s is the median import time.  Each invocation's time is the median
    of its runs over the passes; wall_s is one pass at those times and
    max_cmd_s the slowest of them."""
    runs: dict[int, list[float]] = {}
    for outcomes in passes:
        for outcome in outcomes:
            seconds = runner.at_reference_speed(outcome.wall_s, outcome.speed)
            runs.setdefault(id(outcome.invocation), []).append(seconds)
    typical = [statistics.median(times) for times in runs.values()]
    return {
        "setup_s": statistics.median(runner.at_reference_speed(*sample) for sample in setup),
        "wall_s": sum(typical),
        "max_cmd_s": max(typical),
        "peak_rss_mb": statistics.median([max(o.rss_mb for o in outcomes) for outcomes in passes]),
    }


def samples_note(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"median {statistics.median(values):.6g}, q1 {q1:.6g}, q3 {q3:.6g} over {len(values)}"


def per_layer(outcomes: list[Outcome], overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    values: dict[str, float] = {}
    for outcome in outcomes:
        trace = outcome.trace or {}
        for key, stat in trace.get("stats", {}).items():
            for name in ("calls", "self_s"):
                values[f"{key}.{name}"] = values.get(f"{key}.{name}", 0) + stat[name]
        for name, count in trace.get("counts", {}).items():
            values[name] = values.get(name, 0) + count
    builds = values.get("formula.build_formula.calls", 0)
    orders = values.pop("formula.build_formula.distinct_orders", 0)
    values["formula.build_formula.reuse_ratio"] = orders / builds if builds else 0.0
    imports = [o.trace["import_s"] for o in outcomes if o.trace]
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    values["cli.stdout_bytes"] = sum(o.stdout_bytes for o in outcomes)
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "implicit_deriv" / "cli.py").is_file():
            raise SetupError(f"no src/implicit_deriv/cli.py under {ROOT}")
        design = json.loads((HERE / "design.json").read_text())
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in design["workloads"]:
            raise SetupError(f"unknown workload {args.workload!r}; one of {sorted(design['workloads'])}")
        runner = Runner(design, args.workload, args.seed)
        setup = runner.setup_seconds()
        passes = runner.passes(args.seconds)
        runner.calibrate()  # the block after the last child
        e2e = end_to_end(runner, setup, passes)
        wanted = contract["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            # A function the workload never reaches reports 0 (see design.json).
            traced, overhead_ratio = runner.traced_pass()
            layer = per_layer(traced, overhead_ratio)
            values = {m["name"]: layer.get(m["name"], 0) for m in wanted}
        else:
            values = {m["name"]: e2e[m["name"]] for m in wanted}
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "passes": len(passes),
        "reference_blocks": runner.blocks,
        "setup": setup,
        "invocations": [
            {"pass": k, "args": " ".join(o.invocation.args), "wall_s": o.wall_s, "speed": o.speed,
             "rss_mb": o.rss_mb}
            for k, outcomes in enumerate(passes) for o in outcomes
        ],
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    print(f"run: workload {args.workload}, seed {args.seed}, python {record['python']}, "
          f"nproc {record['nproc']}, git {record['git_sha'] or 'n/a'}, "
          f"src sha256 {record['src_sha256'][:16]}")
    e2e_units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    notes = {
        "setup_s": f"unscaled import times: {samples_note([d for d, _ in setup])}",
        "wall_s": f"invocations at their median; unscaled pass times: {samples_note([sum(o.wall_s for o in p) for p in passes])}",
        "max_cmd_s": f"slowest invocation at its median; unscaled, per pass: {samples_note([max(o.wall_s for o in p) for p in passes])}",
        "peak_rss_mb": f"per pass: {samples_note([max(o.rss_mb for o in p) for p in passes])}",
    }
    for name, value in e2e.items():
        print(f"{args.workload} {name} {value:.6g} {e2e_units[name]} ({notes[name]})")
    print(f"{args.workload} fail_ratio {runner.failed / runner.attempted:.6g} 1 "
          f"({runner.failed} of {runner.attempted} invocations)")
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        for name, value in values.items():
            print(f"{args.workload} {name} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as log:
        log.write(json.dumps(record) + "\n")
    if args.trace:
        spans = [{"args": o.invocation.args, "wall_s": o.wall_s, **(o.trace or {})} for o in traced]
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    correct = runner.failed == 0
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
