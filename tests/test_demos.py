"""Every demo script runs to completion, and each one that prints exact
values prints the same bytes (pinned by their sha256)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import implicit_deriv

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# evaluate_numerically.py prints floats, so only its run is checked.
STDOUT_SHA256 = {
    "comtet_fiolet_comparison.py":
        "70d971a801f73f202010db7a1bdfc87402ecb07d79e928aa6150a8ab1b8ef08f",
    "count_terms.py": "c9cc5b1d05edb972998e36f99e00ffa701a582bc29e29ebf62dc947eb09afeb3",
    "expand_formulas.py": "2835d262023b4c25b6dce4f676c4398721a34135d0ab98e7851859d05fc8c01a",
    "verify_brute_force.py": "0e8b0086e25e75589e9bb6d7a992f8393ebd81191891f30f13cd5b98f6924f6a",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(implicit_deriv.__file__))
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    stderr = done.stderr.decode(errors="replace")
    assert done.returncode == 0, stderr
    assert "Traceback" not in stderr
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.name]
