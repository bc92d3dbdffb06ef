"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench/test_perfbench.py``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from common import BENCH, CLI_LAUNCHER, ROOT, child_env, fresh_dir, run_child, use_src

use_src()

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    check_cell,
    check_reproduce_mc,
    check_reproduce_plain,
    design_sweep,
    design_sweep_traced,
    mc_trial,
    random_problem,
    traced_modules_missing,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=child_env(),
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_and_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(trace, key):
    proc = bench("--workload", "design-sweep", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0


def test_design_sweep_smoke():
    res = design_sweep(seed=5, seconds=0.2)
    assert res["attempted"] >= 88 and res["failed"] == 0
    assert 0.0 <= res["zero_group_cell_share"] < 1.0


def test_design_sweep_checks_reject_bad_cells():
    import random

    problem, _ = random_problem(random.Random(1), 3)
    good = (True, (2, 2, problem.budget - 4 - problem.budget % 2), [0.1, 0.2, 0.3], [0.1, 0.0, 0.2], None)
    assert check_cell(problem, good)
    assert not check_cell(problem, None)
    assert not check_cell(problem, (False, (3, 2, 2), *good[2:]))
    assert not check_cell(problem, (True, (2, 2, 2), *good[2:]))
    assert not check_cell(problem, (*good[:2], [float("nan"), 0.2, 0.3], *good[3:]))
    assert not check_cell(problem, (*good[:4], 0.1 * (1 + 1e-6)))


def test_traced_pass_covers_every_module():
    tracer = Tracer()
    res = design_sweep_traced(seed=5, blocks=1, tracer=tracer, workdir=fresh_dir("test-coverage"))
    assert res["failed"] == 0 and res["traced_s"] > 0.0
    assert traced_modules_missing(tracer.spans) == []
    ids = {s[0] for s in tracer.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in tracer.spans)


def test_mc_trial_smoke_is_bit_identical_across_workers():
    runs = {w: mc_trial(seed=9, workers=w, seconds=0.0, reps=16384, budget=400) for w in (1, 2)}
    for w, res in runs.items():
        assert len(res["calls"]) == 3
        assert all(c["ok"] for c in res["calls"]), res
    strip = [{k: c[k] for k in ("index", "mean", "std_error")} for c in runs[1]["calls"]]
    assert strip == [{k: c[k] for k in ("index", "mean", "std_error")} for c in runs[2]["calls"]]


def test_reproduce_cli_smoke_and_checks():
    plain, mc = fresh_dir("test-plain"), fresh_dir("test-mc")
    assert run_child([sys.executable, "-c", CLI_LAUNCHER, "reproduce", "--out", str(plain)]).returncode == 0
    argv = ["reproduce", "--out", str(mc), "--reps", "20000", "--seed", "4"]
    assert run_child([sys.executable, "-c", CLI_LAUNCHER, *argv]).returncode == 0
    assert check_reproduce_plain(plain)
    assert check_reproduce_mc(mc)
    assert not check_reproduce_plain(mc)  # table5 gained Monte Carlo columns
    table2 = plain / "table2.csv"
    table2.write_text(table2.read_text().replace("6100", "6102"))
    assert not check_reproduce_plain(plain)
    table5 = mc / "table5.csv"
    header, *rows = table5.read_text().splitlines()
    cells = rows[0].split(",")
    cells[header.split(",").index("mc_separate")] = "1"
    table5.write_text("\n".join([header, ",".join(cells), *rows[1:]]) + "\n")
    assert not check_reproduce_mc(mc)


def test_fails_without_package_source():
    bare = fresh_dir("test-bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "design-sweep", "--seed", "1", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
