"""Smoke tests: the research scripts run end to end on the bundled scenario;
the benchmark record is assembled from fake runs, without the benchmark."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import regretalloc
from regretalloc.cli import _case_allocations
from regretalloc.model import Paradigm

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
        (case.beta, name, paradigm.flag)
        for case in covid_cases
        for name, _ in _case_allocations(case, redistribute=False)
        for paradigm in Paradigm
    ]
    assert len(cells) == len(expected) == 36
    for line, (beta, name, flag) in zip(cells, expected):
        assert line.startswith(f"beta={beta:<6} {name:<18} {flag:<12} closed=")
        assert re.search(r"z= *\d+\.\d\d$", line)
    assert re.fullmatch(r"worst \|z\| = \d+\.\d\d over all cells \(OK\)", lines[-1])


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(workload, correct=True, metrics=None, seconds=20):
    result = {
        "correct": correct, "attempted": 10, "failed": 0 if correct else 3,
        "metrics": metrics or {"work_per_s": {"value": 1.0, "unit": "1/s"}},
    }
    report = {
        "workload": workload, "seconds": seconds,
        "environment": {
            "nproc": 2, "cpu_model": "cpu", "loadavg": [0.1, 0.2, 0.3], "python": "3.11.7",
            "numpy": "2.4.6", "git_commit": "abc", "src_sha256": "f00", "seed": 1,
        },
    }
    return result, report


class TestBenchRecord:
    def test_record_is_assembled_from_the_runs(self):
        bench_record = load_bench_record()
        runs = {
            "design-sweep": fake_run(
                "design-sweep", metrics={"work_per_s": {"value": 2.0, "unit": "1/s"}}
            ),
            "mc-trial": fake_run("mc-trial", seconds=8),
        }
        layers = {"allocate.minimax_us": {"value": 3.0, "unit": "us"}}
        record = bench_record.assemble(
            [runs] * 3, fake_run("design-sweep", metrics=layers), {"PYTHONDONTWRITEBYTECODE": "1"},
            2369,
        )
        assert record == {
            "seed": 1,
            "run_seconds": {"design-sweep": 20, "mc-trial": 8},
            "end_to_end": {
                "design-sweep": {"work_per_s": {"value": 2.0, "unit": "1/s", "runs": [2.0] * 3}},
                "mc-trial": {"work_per_s": {"value": 1.0, "unit": "1/s", "runs": [1.0] * 3}},
            },
            "per_layer": layers,
            "src_lines": 2369,
            "environment": {
                "nproc": 2, "cpu_model": "cpu", "python": "3.11.7", "numpy": "2.4.6",
                "src_sha256": "f00", "PYTHONDONTWRITEBYTECODE": True,
            },
        }
        json.dumps(record)  # what the script writes

    def test_each_value_is_the_median_of_the_rounds(self):
        bench_record = load_bench_record()
        rounds = [
            {"mc-trial": fake_run("mc-trial", metrics={"setup_s": {"value": v, "unit": "s"}})}
            for v in (0.3, 0.1, 0.2)
        ]
        record = bench_record.assemble(rounds, fake_run("design-sweep"), {}, 1)
        assert record["end_to_end"] == {
            "mc-trial": {"setup_s": {"value": 0.2, "unit": "s", "runs": [0.3, 0.1, 0.2]}}
        }

    def test_a_run_that_fails_in_round_2_stops_the_record(self, tmp_path, monkeypatch, capsys):
        bench_record = load_bench_record()
        calls = []

        def run(workload, seconds, trace):
            calls.append((workload, trace))
            return fake_run(workload, correct=len(calls) != 5)

        monkeypatch.setattr(bench_record, "run_perfbench", run)
        out = tmp_path / "out.json"
        assert bench_record.main([str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: mc-trial (round 2): 3 of 10 checked ops failed\n"
        )
        rounds = [(w, 0) for w in ("design-sweep", "mc-trial", "reproduce-cli")] * 3
        assert calls == rounds + [("design-sweep", 1)]

    @pytest.mark.parametrize("environ", [{}, {"PYTHONDONTWRITEBYTECODE": ""}], ids=["unset", "empty"])
    def test_an_empty_bytecode_flag_is_unset(self, environ):
        bench_record = load_bench_record()
        runs = {"mc-trial": fake_run("mc-trial")}
        record = bench_record.assemble([runs], fake_run("design-sweep"), environ, 1)
        assert record["environment"]["PYTHONDONTWRITEBYTECODE"] is False

    @pytest.mark.parametrize("failing", ["mc-trial", "trace"])
    def test_a_run_that_is_not_correct_stops_the_record(self, failing):
        bench_record = load_bench_record()
        runs = {"mc-trial": fake_run("mc-trial", correct=failing != "mc-trial")}
        with pytest.raises(bench_record.RecordError, match="3 of 10 checked ops failed"):
            bench_record.assemble(
                [runs], fake_run("design-sweep", correct=failing != "trace"), {}, 1
            )

    def test_src_lines_count_as_wc_does(self, tmp_path):
        bench_record = load_bench_record()
        (tmp_path / "a.py").write_text("one\ntwo\nthree\n")
        (tmp_path / "b.py").write_text("four\nfive")  # no final newline: wc -l counts 1
        (tmp_path / "data.json").write_text("{}\n{}\n")
        assert bench_record.count_src_lines(tmp_path) == 4
        package = bench_record.count_src_lines()
        assert package == sum(
            len(path.read_bytes().splitlines()) for path in (SRC / "regretalloc").glob("*.py")
        )

    def test_compare_flags_only_a_change_worse_than_its_bound(self):
        bench_record = load_bench_record()
        specs = [
            {"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "work_per_s", "better": "higher", "bound": 0.25},
        ]

        def record(src_lines, **workloads):
            return {
                "end_to_end": {
                    workload: {"setup_s": {"value": setup}, "work_per_s": {"value": work}}
                    for workload, (setup, work) in workloads.items()
                },
                "src_lines": src_lines,
            }

        base = record(2000, a=(0.1, 100.0), b=(0.1, 100.0))
        new = record(1990, a=(0.13, 80.0), b=(0.05, 70.0), c=(0.2, 5.0))
        header, *rows = bench_record.compare(base, new, specs)
        assert header.split() == ["workload", "metric", "base", "new", "change", "better", "bound"]
        assert [row.split() for row in rows] == [
            ["a", "setup_s", "0.1", "0.13", "+30.0%", "lower", "0.25", "WORSE"],
            ["a", "work_per_s", "100", "80", "-20.0%", "higher", "0.25"],
            ["b", "setup_s", "0.1", "0.05", "-50.0%", "lower", "0.25"],
            ["b", "work_per_s", "100", "70", "-30.0%", "higher", "0.25", "WORSE"],
            ["c", "setup_s", "-", "0.2", "-", "lower", "0.25"],
            ["c", "work_per_s", "-", "5", "-", "higher", "0.25"],
            ["src_lines", "2000", "1990", "-0.5%"],
        ]
        del base["src_lines"]  # as in BENCH_15, made before records counted lines
        assert bench_record.compare(base, new, specs)[-1].split() == ["src_lines", "-", "1990", "-"]

    def test_compare_prints_after_the_record_is_written(self, tmp_path, monkeypatch, capsys):
        bench_record = load_bench_record()
        metrics = {
            name: {"value": 2.0, "unit": "x"}
            for name in ("setup_s", "work_per_s", "latency_p50_ms", "peak_rss_mb")
        }
        monkeypatch.setattr(
            bench_record, "run_perfbench",
            lambda workload, seconds, trace: fake_run(workload, metrics=metrics),
        )
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"end_to_end": {"mc-trial": {"setup_s": {"value": 1.0}}}}))
        out = tmp_path / "out.json"
        assert bench_record.main([str(out), "--compare", str(base)]) == 0
        record = json.loads(out.read_text())
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1 + 4 * len(record["end_to_end"]) + 1 == 14
        assert "mc-trial       setup_s" in rows[5] and "+100.0%" in rows[5] and "WORSE" in rows[5]
        assert rows[-1].split() == ["src_lines", "-", str(record["src_lines"]), "-"]
