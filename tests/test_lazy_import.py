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


def run_probe(source: str, *args: str):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", source, *args], capture_output=True, text=True, env=env, timeout=120
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


# ``dataclasses`` imports ``inspect`` (with ``dis``, ``ast``, ``tokenize``
# and ``linecache``).  The value types load neither until their first
# dataclass use or frozen-field error; the last step is such an error.
INTROSPECTION_MODULES = ("dataclasses", "inspect")
STARTUP_PROBE = f"""
import io, sys
steps = []
def record(name, code=0):
    steps.append((name, code, [m for m in {INTROSPECTION_MODULES} if m in sys.modules]))
import regretalloc
record("import regretalloc")
import regretalloc.cli as cli
record("import regretalloc.cli")
for argv in (["reproduce", "--out", sys.argv[1]], ["allocate", "--scheme", "minimax"], ["power"]):
    record(argv[0], cli.main(argv, out=io.StringIO()))
try:
    regretalloc.GroupSpec("a", 1.0, 1.0, 1.0).weight = 0.5
except Exception as exc:
    record(f"{{type(exc).__module__}}.{{type(exc).__name__}}: {{exc}}")
print(steps)
"""
# One instance of each value type, built without any dataclass use.  In a
# fresh interpreter, ``use`` then makes one kind of first use of all of
# them; it gives the value types processed before and after, and the repr
# of the results.
COLD_PROBE = """
import json, sys
from dataclasses import MISSING, astuple, fields, is_dataclass, replace
from regretalloc import Allocation, Paradigm, RegretSummary, threshold_constants
from regretalloc.casestudy import IncidenceSpec, build_case_study, default_config
from regretalloc.simulate import MonteCarloEstimate, SimConfig

def samples():
    config = default_config()
    case = build_case_study(config)[0]
    return [
        case.problem.groups[0], case.problem, Allocation((2, 4)), case.truth,
        RegretSummary(Paradigm.SEPARATE_EGALITARIAN, 0.25, (0.1, 0.25)), threshold_constants(),
        IncidenceSpec((0.01,), (0.02,), (0.03,), (0.04,), 0.5), case.power, config, case,
        SimConfig(100, 7), MonteCarloEstimate(0.1, 0.01, 100),
    ]

def frozen(value):
    errors = []
    for name in (value.__match_args__[0], "other"):
        for change in (lambda: setattr(value, name, 0), lambda: delattr(value, name)):
            try:
                change()
            except Exception as exc:
                errors.append(f"{type(exc).__module__}.{type(exc).__name__}: {exc}")
    return errors

USES = {
    "replace": lambda values: [
        replace(default_config(), budget=400), *[replace(v) for v in values]
    ],
    "fields": lambda values: [
        [(f.name, f.type, f.init, None if f.default is MISSING else f.default) for f in fields(v)]
        for v in values
    ],
    "astuple": lambda values: [astuple(v) for v in values],
    "__replace__": lambda values: [v.__replace__() for v in values],
    "is_dataclass": lambda values: [(is_dataclass(type(v)), is_dataclass(v)) for v in values],
    "frozen": lambda values: [frozen(v) for v in values],
    "match_args": lambda values: [type(v).__match_args__ for v in values],
}

def processed(values):
    return [type(v).__name__ for v in values if "__dataclass_fields__" in vars(type(v))]

def use(kind):
    values = samples()
    before = processed(values)
    result = repr(USES[kind](values))
    return [before, processed(values), result]

if __name__ == "__main__":
    print(json.dumps(use(sys.argv[1])))
"""
COLD_USES = ["replace", "fields", "astuple", "__replace__", "is_dataclass", "frozen", "match_args"]


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


def test_plain_commands_load_no_dataclasses_or_inspect(tmp_path):
    steps = ast.literal_eval(run_bare(STARTUP_PROBE, str(tmp_path)))
    commands = ["import regretalloc", "import regretalloc.cli", "reproduce", "allocate", "power"]
    assert steps[:-1] == [(name, 0, []) for name in commands]
    # The frozen-field error imports ``dataclasses`` for its exception type.
    error = "dataclasses.FrozenInstanceError: cannot assign to field 'weight'"
    assert steps[-1] == (error, 0, list(INTROSPECTION_MODULES))


@pytest.mark.parametrize("kind", COLD_USES)
def test_first_dataclass_use_gives_the_warm_result(kind):
    # The warm result comes from this process, once every value type has
    # been processed; its parity with ``@dataclass`` is checked in
    # test_validation_once.TestValueSemanticsMatchGeneratedOnes.
    probe = {"__name__": "cold_probe"}
    exec(COLD_PROBE, probe)
    names = [type(value).__name__ for value in probe["samples"]()]
    assert probe["use"]("is_dataclass")[1] == names and len(set(names)) == 12
    before, after, cold = run_probe(COLD_PROBE, kind)
    # Each dataclass use processes every class; the other two process none.
    assert (before, after) == ([], [] if kind in ("frozen", "match_args") else names)
    assert cold == probe["use"](kind)[2]


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
