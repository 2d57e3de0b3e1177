"""Run one implicit-deriv CLI invocation in-process, timing the calls between
the package's modules from outside the program.

    python bench/trace_child.py <fd> <cli arguments...>

The CLI writes its stdout as usual, so the caller checks it exactly as it
checks an untraced run.  The timings are kept in memory and written as one
JSON object to the inherited file descriptor <fd> when the CLI returns.

A span's self time is its duration minus the durations of the traced calls
it made.  Work done by the tracer itself to count sizes is taken out of the
enclosing span's self time.
"""

import os
import sys
import time

clock = time.perf_counter

# Where each function is wrapped: under the name the calling module bound.
# A module's own global is wrapped only when callers reach the function
# through it (cli calls `counting.x` and `oracle.x`; siblings call each other)
# and the function does not recurse through it.  expressions.evaluate,
# differentiate and mixed_partial recurse through their globals, so they are
# wrapped only where numeric imported them; wrapping the globals would trace
# every recursive step.
BINDINGS = {
    "cli": (
        "build_formula", "cf_notation", "cf_original_coefficient", "render",
        "parse_expression", "derivative_table", "evaluate_formula",
        "finite_difference_check", "implicit_solve",
    ),
    "counting": (
        "formula_partitions", "series_table", "term_count_gf", "term_count_enum",
        "cf_term_count",
    ),
    "oracle": (
        "build_formula", "cf_original_coefficient", "compare_with_formula",
        "brute_force_expansion", "total_derivative", "formula_to_expr",
    ),
    "formula": ("formula_partitions", "partition_coefficient", "cf_notation"),
    "numeric": (
        "build_formula", "required_derivatives", "evaluate", "mixed_partial",
        "derivative_table", "evaluate_formula", "implicit_solve",
    ),
}

# Called once or twice per formula term (91k calls at n = 15): counted and
# timed in aggregate, without a span of their own.
HOT = {"partitions.partition_coefficient", "formula.cf_notation", "formula.cf_original_coefficient"}

_CHILDREN = ("left", "right", "base", "operand", "argument")


def tree_nodes(root, sizes: dict[int, tuple]) -> int:
    """Nodes of the expression tree that `evaluate` walks, shared subtrees
    counted once per use.  `sizes` memoizes by id across calls (partials of
    one expression share most of their nodes) and holds each node, so an id
    is never reused while it is a key.  Iterative: partials are deep."""
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in sizes:
            stack.pop()
            continue
        kids = [getattr(node, name) for name in _CHILDREN if hasattr(node, name)]
        pending = [kid for kid in kids if id(kid) not in sizes]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        sizes[id(node)] = (node, 1 + sum(sizes[id(kid)][1] for kid in kids))
    return sizes[id(root)][1]


# Sizes counted after a call returns: key -> stat (see Tracer._size).
COUNTERS = {
    "partitions.formula_partitions": "partitions",
    "formula.build_formula": "terms",
    "formula.render": "bytes",
    "oracle.total_derivative": "monomials_out",
    "expressions.mixed_partial": "nodes",
}
EVALUATIONS = "numeric.implicit_solve.evaluations"  # evaluate calls made by implicit_solve


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [key, covered seconds, span id]
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds]
        self.spans: list[list] = []  # [name, parent span id, start, end]
        self.counts: dict[str, int] = {}
        self.orders: set[int] = set()
        self.node_sizes: dict[int, tuple] = {}

    def _size(self, key: str, result) -> int:
        if key == "formula.build_formula":
            return len(result.terms)
        if key == "formula.render":
            return len(result.encode())
        if key == "expressions.mixed_partial":
            return tree_nodes(result, self.node_sizes)
        return len(result)

    def _count(self, key: str, args: tuple, result) -> None:
        if key in COUNTERS:
            name, value = f"{key}.{COUNTERS[key]}", self._size(key, result)
        elif key == "expressions.evaluate" and self.stack and self.stack[-1][0] == "numeric.implicit_solve":
            name, value = EVALUATIONS, 1
        else:
            return
        if key == "formula.build_formula":
            self.orders.add(args[0])
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, key: str, fn, args: tuple, kwargs: dict):
        stack = self.stack
        parent_span = stack[-1][2] if stack else None
        span = parent_span
        if key not in HOT:
            span = len(self.spans)
            self.spans.append([key, parent_span, 0.0, 0.0])
        frame = [key, 0.0, span]
        stack.append(frame)
        start = clock()
        try:
            return_value = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            stat = self.stats.setdefault(key, [0, 0.0])
            stat[0] += 1
            stat[1] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if key not in HOT:
                self.spans[span][2:] = [start, end]
        counted = clock()
        self._count(key, args, return_value)
        if stack:
            stack[-1][1] += clock() - counted
        return return_value

    def wrap(self, fn):
        key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            return self.call(key, fn, args, kwargs)

        return traced

    def install(self, package) -> None:
        for module_name, names in BINDINGS.items():
            module = getattr(package, module_name)
            for name in names:
                setattr(module, name, self.wrap(getattr(module, name)))


def main() -> int:
    fd = int(sys.argv[1])
    started = clock()
    import implicit_deriv
    import implicit_deriv.cli

    import_s = clock() - started
    import json

    tracer = Tracer()
    tracer.install(implicit_deriv)
    try:
        status = tracer.call("cli.main", implicit_deriv.cli.main, (sys.argv[2:],), {})
    finally:
        sys.stdout.flush()
    counts = dict(tracer.counts)
    counts["formula.build_formula.distinct_orders"] = len(tracer.orders)
    record = {
        "import_s": import_s,
        "stats": {key: {"calls": c, "self_s": s} for key, (c, s) in tracer.stats.items()},
        "counts": counts,
        "spans": tracer.spans,
    }
    with os.fdopen(fd, "w") as sink:
        json.dump(record, sink)
    return status


if __name__ == "__main__":
    sys.exit(main())
