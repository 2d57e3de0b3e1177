"""The README's examples run as written: the Library block as a doctest,
and each `$ implicit-deriv ...` command line against the output shown under
it, where a line `...` stands for any run of lines."""

import doctest
import os
import re
import shlex
import subprocess
import sys

import pytest

import implicit_deriv

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
PROMPT = "$ implicit-deriv "


def test_library_example():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def command_examples() -> list[tuple[str, list[str]]]:
    """Each README command line with the lines shown under it, up to a
    blank line, the next command or the end of the code block."""
    examples = []
    with open(README) as f:
        lines = f.read().splitlines()
    for k, line in enumerate(lines):
        if line.startswith(PROMPT):
            shown = []
            for following in lines[k + 1:]:
                if not following or following.startswith(("$ ", "```")):
                    break
                shown.append(following)
            examples.append((line[len(PROMPT):], shown))
    return examples


def matches(shown: list[str], actual: str) -> bool:
    """Whether `actual` is the `shown` lines with each `...` line replaced
    by some run of whole lines (possibly none)."""
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown)
    return re.fullmatch(pattern, actual) is not None


def test_elision_stands_for_whole_lines_only():
    assert matches(["a", "...", "c"], "a\nb\nb\nc\n")
    assert matches(["a", "...", "c"], "a\nc\n")
    assert not matches(["a", "...", "c"], "a\nb\n")
    assert not matches(["a", "c"], "a\nb\nc\n")
    assert not matches(["a"], "a\nb\n")


def test_readme_has_command_examples():
    assert len(command_examples()) >= 5


@pytest.mark.parametrize(
    "command, shown", command_examples(), ids=[command for command, _ in command_examples()]
)
def test_command_example(command, shown):
    src = os.path.dirname(os.path.dirname(implicit_deriv.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "implicit_deriv.cli", *shlex.split(command)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert matches(shown, done.stdout), done.stdout
