"""Closed-form imports and commands leave numpy unloaded; only Monte Carlo
loads it, through the package's lazily resolved simulate names."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regretalloc
from regretalloc import simulate

SRC = Path(regretalloc.__file__).resolve().parents[1]
LAZY_NAMES = [
    "MonteCarloEstimate",
    "SimConfig",
    "decide",
    "monte_carlo_regret",
    "realized_regret",
]

# Each step runs in one fresh interpreter, in order; after each, the probe
# records the exit code and whether numpy has been imported.
PROBE = """
import io, json, sys, tempfile
steps = []
def record(name, code=0):
    steps.append([name, code, "numpy" in sys.modules])
import regretalloc
record("import regretalloc")
import regretalloc.cli as cli
record("import regretalloc.cli")
with tempfile.TemporaryDirectory() as out:
    for name, argv in (
        ("reproduce", ["reproduce", "--out", out]),
        ("allocate", ["allocate", "--scheme", "minimax"]),
        ("evaluate", ["evaluate", "--scheme", "minimax"]),
        ("evaluate --reps 0", ["evaluate", "--allocation", "6100,3218", "--reps", "0"]),
        ("power", ["power"]),
        ("reproduce --reps", ["reproduce", "--out", out, "--reps", "2000"]),
    ):
        record(name, cli.main(argv, out=io.StringIO()))
print(json.dumps(steps))
"""
FROM_IMPORT_PROBE = """
import json, sys
import regretalloc
before = "numpy" in sys.modules
from regretalloc import monte_carlo_regret
from regretalloc.simulate import monte_carlo_regret as original
print(json.dumps([before, "numpy" in sys.modules, monte_carlo_regret is original]))
"""


def run_probe(source: str):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def steps():
    return run_probe(PROBE)


def test_closed_form_imports_and_commands_leave_numpy_unloaded(steps):
    closed_form = steps[:-1]
    assert [name for name, _, _ in closed_form] == [
        "import regretalloc",
        "import regretalloc.cli",
        "reproduce",
        "allocate",
        "evaluate",
        "evaluate --reps 0",
        "power",
    ]
    assert all(code == 0 for _, code, _ in closed_form), closed_form
    assert [name for name, _, loaded in closed_form if loaded] == []


def test_reps_loads_numpy(steps):
    assert steps[-1] == ["reproduce --reps", 0, True]


def test_first_from_import_loads_simulate():
    before, after, same = run_probe(FROM_IMPORT_PROBE)
    assert (before, after, same) == (False, True, True)


@pytest.mark.parametrize("name", LAZY_NAMES)
def test_lazy_names_are_the_simulate_objects(name):
    namespace = {}
    exec(f"from regretalloc import {name}", namespace)
    assert getattr(regretalloc, name) is getattr(simulate, name)
    assert namespace[name] is getattr(simulate, name)
    assert name in dir(regretalloc)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute 'CHUNK_SIZE'"):
        regretalloc.CHUNK_SIZE  # a simulate name that is not exported
    assert not hasattr(regretalloc, "monte_carlo")
    with pytest.raises(ImportError):
        exec("from regretalloc import not_a_name", {})


def test_every_public_simulate_function_and_class_is_exported():
    # The reverse of the fuzz test's check that every export is a public
    # callable: nothing public lingers in simulate unexported.
    defined = {
        name
        for name, value in vars(simulate).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == simulate.__name__
    }
    assert defined == regretalloc._SIMULATE_EXPORTS
