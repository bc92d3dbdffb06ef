"""README's library quick start still runs and still says what it computes."""

import ast
import re
from pathlib import Path

import pytest

import regretalloc

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    """The ```python blocks of README, in order."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_first_block_gives_the_values_its_comments_state():
    namespace = {}
    exec(python_blocks()[0], namespace)
    assert namespace["relaxed"] == pytest.approx((6100.0, 3220.0), abs=0.5)
    assert sum(namespace["relaxed"]) == pytest.approx(9320)
    assert namespace["allocation"].counts == (6100, 3218)
    assert namespace["bound"].value == pytest.approx(4.60e-4, abs=0.005e-4)


@pytest.mark.parametrize("index", [0, 1], ids=["first", "second"])
def test_every_name_a_block_imports_exists(index):
    # The second block draws 100,000 trial-level replications, too slow to
    # run here; its imports are what drift when a public name is deleted.
    tree = ast.parse(python_blocks()[index])
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "regretalloc"
        for alias in node.names
    ]
    assert names
    assert [name for name in names if not hasattr(regretalloc, name)] == []
