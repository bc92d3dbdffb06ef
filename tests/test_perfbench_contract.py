"""The package names the benchmark calls, checked in the test suite.

A benchmark child exits 1 when a name its set-up calls is gone, or when a
call fails its own output check, and its output is not kept.  These tests
run the same set-up and checks from ``perfbench/workloads.py`` in process,
so such a break fails here first.  They load no numpy (``simulate`` is read,
not imported) and write nothing under ``perfbench/.work``.
"""

import ast
import importlib
import importlib.util
import random
import sys
import warnings
from pathlib import Path

import pytest

import regretalloc
from regretalloc.allocate import DegenerateAllocationWarning
from regretalloc.model import Allocation, DesignProblem, GroupSpec, Paradigm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Names that only the benchmark calls: each stays in its module, unexported,
# until the benchmark moves to ``allocate(problem, "minimax")`` and
# ``worst_case(problem, allocation, paradigm)``.
SHIMS = {
    "worst_case_separate": Paradigm.SEPARATE_UTILITARIAN,
    "worst_case_joint": Paradigm.JOINT_UTILITARIAN,
    "worst_case_egalitarian": Paradigm.SEPARATE_EGALITARIAN,
}
PERFBENCH_ONLY = {"allocate": {"minimax_allocation"}, "regret": set(SHIMS)}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_mc_trial_setup_allocates_the_bundled_case(workloads):
    _, allocation, expected = workloads.mc_setup()
    assert allocation.counts == (6100, 3218)
    assert len(expected) == 3


def test_design_sweep_block_passes_every_cell_check(workloads):
    # One problem at each G from 2 to 12, all four schemes with and without
    # redistribution: the cells a design-sweep run checks.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAllocationWarning)
        for problem, truth in workloads.problem_block(random.Random(1)):
            cells = workloads.sweep_problem(problem, truth)
            assert len(cells) == workloads.CELLS_PER_PROBLEM
            assert all(workloads.check_cell(problem, cell) for cell in cells), cells


def called_names(modules):
    """{module: names} for every ``module.name`` in layers.py and workloads.py,
    which bind each package module to a local of the same name."""
    calls = {}
    for script in ("layers.py", "workloads.py"):
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                calls.setdefault(node.value.id, set()).add(node.attr)
    return calls


def top_level_names(path):
    names = set()
    for node in ast.parse(Path(path).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_name_the_benchmark_calls_exists(workloads):
    calls = called_names(workloads.MODULES)
    assert "minimax_allocation" in calls["allocate"]
    assert set(calls) == set(workloads.MODULES)
    for module, names in calls.items():
        if module == "simulate":
            defined = top_level_names(importlib.util.find_spec("regretalloc.simulate").origin)
            missing = names - defined
        else:
            namespace = importlib.import_module(f"regretalloc.{module}")
            missing = {name for name in names if not hasattr(namespace, name)}
        assert not missing, f"regretalloc.{module} lacks {sorted(missing)}"


def test_perfbench_only_names_are_called_defined_and_unexported(workloads):
    calls = called_names(workloads.MODULES)
    for module, names in PERFBENCH_ONLY.items():
        assert names <= calls[module]
        namespace = importlib.import_module(f"regretalloc.{module}")
        assert all(callable(getattr(namespace, name, None)) for name in names)
        assert not names & set(dir(regretalloc))


def test_perfbench_only_names_forward_to_the_public_calls():
    problem = DesignProblem(200, (GroupSpec("a", 0.7, 1.0, 2.0), GroupSpec("b", 0.3, 0.5, 0.5)))
    allocate = importlib.import_module("regretalloc.allocate")
    regret = importlib.import_module("regretalloc.regret")
    minimax = allocate.minimax_allocation(problem)
    assert minimax == regretalloc.allocate(problem, "minimax")
    for allocation in (minimax, Allocation((140, 60))):  # the second is weight-matched
        for name, paradigm in SHIMS.items():
            expected = regretalloc.worst_case(problem, allocation, paradigm)
            assert getattr(regret, name)(problem, allocation) == expected
