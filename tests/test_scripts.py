"""Smoke tests: the research scripts run end to end on the bundled scenario."""

import os
import re
import subprocess
import sys
from pathlib import Path

import regretalloc
from regretalloc.cli import _case_allocations
from regretalloc.regret import PARADIGMS

SRC = Path(regretalloc.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"


def run_script(name: str, *args: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_mc_crosscheck_covers_every_cell(covid_cases):
    lines = run_script("mc_crosscheck.py", "--seed", "0")
    cells = [line for line in lines if line.startswith("beta=")]
    expected = [
        (case.beta, name, rule.flag)
        for case in covid_cases
        for name, _ in _case_allocations(case, redistribute=False)
        for rule in PARADIGMS.values()
    ]
    assert len(cells) == len(expected) == 36
    for line, (beta, name, flag) in zip(cells, expected):
        assert line.startswith(f"beta={beta:<6} {name:<18} {flag:<12} closed=")
        assert re.search(r"z= *\d+\.\d\d$", line)
    assert re.fullmatch(r"worst \|z\| = \d+\.\d\d over all cells \(OK\)", lines[-1])


def test_pooled_mismatch_demo_prints_every_scheme():
    lines = run_script("pooled_mismatch_demo.py")
    assert lines[0].startswith("t_star = 0.7518")
    schemes = ("proportional", "minimax", "egalitarian", "neyman")
    assert [line.split()[0] for line in lines if line.startswith(schemes)] == list(schemes)
