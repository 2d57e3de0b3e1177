"""The benchmark's tracer wraps package functions by name on each module
(`BINDINGS` in bench/trace_child.py); a name that leaves its module makes
`bench/run.py --trace 1` fail, so every listed name must stay bound."""

import importlib.util
from pathlib import Path

import implicit_deriv
import implicit_deriv.cli  # noqa: F401  (the package does not import it)

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


def test_every_traced_name_is_bound():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    missing = [
        f"{module_name}.{name}"
        for module_name, names in trace_child.BINDINGS.items()
        for name in names
        if not callable(getattr(getattr(implicit_deriv, module_name), name, None))
    ]
    assert missing == []
