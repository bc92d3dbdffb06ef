"""Closed-form imports and commands leave numpy unloaded; only Monte Carlo
loads it, through the package's lazily resolved simulate names."""

import ast
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
    assert defined == {n for n, m in regretalloc._LAZY_EXPORTS.items() if m == "simulate"}


CASESTUDY_NAMES = [
    "CaseStudyCase",
    "ConfigError",
    "IncidenceSpec",
    "PowerSpec",
    "ScenarioConfig",
    "build_case_study",
    "composite_moments",
    "default_config",
    "load_config",
    "parse_config",
    "required_sample_size",
]
CLOSED_FORM_MODULES = {
    "regretalloc",
    "regretalloc.allocate",
    "regretalloc.model",
    "regretalloc.regret",
    "regretalloc.stats",
}
# The standard-library modules that the closed-form modules import are
# loaded first, so that what they load themselves (``dataclasses`` loads
# ``typing`` on some 3.13 releases) is not counted against the package.
# The probe prints with ``print`` alone: ``json`` is one of the modules
# that it checks for.
BOUNDARY_PROBE = """
import sys
import __future__, collections.abc, dataclasses, enum, importlib, math, numbers, warnings
before = set(sys.modules)
import regretalloc
print(" ".join(sorted(set(sys.modules) - before)))
"""
CASESTUDY_ATTRIBUTE_PROBE = """
import sys
import regretalloc
listed = "casestudy" in dir(regretalloc)
loaded = "regretalloc.casestudy" in sys.modules
module = regretalloc.casestudy
print(listed, loaded, module is sys.modules["regretalloc.casestudy"])
"""
# What ``statistics`` brings in besides itself.  ``random`` also comes with
# ``tempfile`` (and, outside ``-S``, may come with ``site``), so these probes
# run bare and take their output directory as an argument.
STATISTICS_MODULES = ("statistics", "fractions", "decimal", "random")
QUANTILE_PROBE = f"""
import importlib.util, sys
import regretalloc
before = [m for m in {STATISTICS_MODULES} if m in sys.modules]
regretalloc.normal_quantile(0.975)
after = [m for m in {STATISTICS_MODULES} if m in sys.modules]
print((importlib.util.find_spec("_statistics") is not None, before, after))
"""
REPRODUCE_STATISTICS_PROBE = f"""
import io, sys
import regretalloc.cli as cli
code = cli.main(["reproduce", "--out", sys.argv[1]], out=io.StringIO())
print((code, [m for m in {STATISTICS_MODULES} if m in sys.modules]))
"""


def run_bare(source: str, *args: str) -> str:
    """Last stdout line of ``source``, given ``args``, in a fresh
    ``python -S``, which does not run ``site`` (here ``site`` itself imports
    ``typing``)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", source, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_import_loads_only_the_closed_forms():
    added = set(run_bare(BOUNDARY_PROBE).split())
    assert added == CLOSED_FORM_MODULES
    assert not added & {"json", "statistics", "fractions", "decimal", "typing", "numpy"}


def test_casestudy_resolves_as_an_attribute_on_first_use():
    assert run_bare(CASESTUDY_ATTRIBUTE_PROBE) == "True False True"


def test_first_normal_quantile_call_loads_no_statistics():
    # The C kernel ships with CPython; only without it does the first call
    # fall back to ``statistics.NormalDist``.
    kernel, before, after = ast.literal_eval(run_bare(QUANTILE_PROBE))
    assert before == []
    assert after == ([] if kernel else list(STATISTICS_MODULES))


def test_plain_reproduce_loads_no_statistics(tmp_path):
    assert ast.literal_eval(run_bare(REPRODUCE_STATISTICS_PROBE, str(tmp_path))) == (0, [])


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_casestudy_names_are_the_casestudy_objects(name):
    from regretalloc import casestudy

    namespace = {}
    exec(f"from regretalloc import {name}", namespace)
    assert getattr(regretalloc, name) is getattr(casestudy, name)
    assert namespace[name] is getattr(casestudy, name)
    assert name in dir(regretalloc)


def test_every_public_casestudy_function_and_class_is_exported():
    from regretalloc import casestudy

    defined = {
        name
        for name, value in vars(casestudy).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == casestudy.__name__
    }
    assert defined == set(CASESTUDY_NAMES)
    assert "casestudy" in dir(regretalloc) and regretalloc.casestudy is casestudy
