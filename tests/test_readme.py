"""The README's Library example runs as written."""

import doctest
import os

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_library_example():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
