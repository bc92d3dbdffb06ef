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
            [runs] * 3, [fake_run("design-sweep", metrics=layers)] * 3,
            {"PYTHONDONTWRITEBYTECODE": "1"}, 2369,
        )
        assert record == {
            "seed": 1,
            "run_seconds": {"design-sweep": 20, "mc-trial": 8},
            "end_to_end": {
                "design-sweep": {"work_per_s": {"value": 2.0, "unit": "1/s", "runs": [2.0] * 3}},
                "mc-trial": {"work_per_s": {"value": 1.0, "unit": "1/s", "runs": [1.0] * 3}},
            },
            "per_layer": {"allocate.minimax_us": {"value": 3.0, "unit": "us", "runs": [3.0] * 3}},
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
        traced = [
            fake_run("design-sweep", metrics={"regret.self_s": {"value": v, "unit": "s"}})
            for v in (0.5, 0.7, 0.6)
        ]
        record = bench_record.assemble(rounds, traced, {}, 1)
        assert record["end_to_end"] == {
            "mc-trial": {"setup_s": {"value": 0.2, "unit": "s", "runs": [0.3, 0.1, 0.2]}}
        }
        assert record["per_layer"] == {
            "regret.self_s": {"value": 0.6, "unit": "s", "runs": [0.5, 0.7, 0.6]}
        }

    def test_a_run_that_fails_in_round_2_stops_the_record(self, tmp_path, monkeypatch, capsys):
        bench_record = load_bench_record()
        calls = []

        def run(workload, seconds, trace):
            calls.append((workload, trace))
            return fake_run(workload, correct=len(calls) != 6)

        monkeypatch.setattr(bench_record, "run_perfbench", run)
        out = tmp_path / "out.json"
        assert bench_record.main([str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: mc-trial (round 2): 3 of 10 checked ops failed\n"
        )
        one_round = [(w, 0) for w in ("design-sweep", "mc-trial", "reproduce-cli")]
        assert calls == (one_round + [("design-sweep", 1)]) * 3

    def test_a_traced_run_that_fails_names_its_round(self):
        bench_record = load_bench_record()
        runs = {"mc-trial": fake_run("mc-trial")}
        traced = [fake_run("design-sweep", correct=r != 2) for r in (1, 2, 3)]
        with pytest.raises(
            bench_record.RecordError,
            match=r"^design-sweep \(trace 1, round 2\): 3 of 10 checked ops failed$",
        ):
            bench_record.assemble([runs] * 3, traced, {}, 1)

    @pytest.mark.parametrize("environ", [{}, {"PYTHONDONTWRITEBYTECODE": ""}], ids=["unset", "empty"])
    def test_an_empty_bytecode_flag_is_unset(self, environ):
        bench_record = load_bench_record()
        runs = {"mc-trial": fake_run("mc-trial")}
        record = bench_record.assemble([runs], [fake_run("design-sweep")], environ, 1)
        assert record["environment"]["PYTHONDONTWRITEBYTECODE"] is False

    @pytest.mark.parametrize("failing", ["mc-trial", "trace"])
    def test_a_run_that_is_not_correct_stops_the_record(self, failing):
        bench_record = load_bench_record()
        runs = {"mc-trial": fake_run("mc-trial", correct=failing != "mc-trial")}
        with pytest.raises(bench_record.RecordError, match="3 of 10 checked ops failed"):
            bench_record.assemble(
                [runs], [fake_run("design-sweep", correct=failing != "trace")], {}, 1
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

    def test_compare_prints_a_row_per_layer_in_both_records(self):
        bench_record = load_bench_record()
        specs = [{"name": "work_per_s", "better": "higher", "bound": 0.25}]
        layers = [
            {"name": "regret.adversarial_tau_separate_us", "better": "lower"},
            {"name": "simulate.trial_reps_per_s.separate", "better": "higher"},
        ]

        def record(**values):
            return {
                "end_to_end": {"a": {"work_per_s": {"value": 100.0}}},
                "per_layer": {name: {"value": v, "unit": "x"} for name, v in values.items()},
                "src_lines": 2000,
            }

        base = record(**{
            "regret.adversarial_tau_separate_us": 4.0, "simulate.trial_reps_per_s.separate": 0.0,
            "gone_us": 1.0,
        })
        new = record(**{
            "simulate.trial_reps_per_s.separate": 5.0, "regret.adversarial_tau_separate_us": 2.0,
            "added_us": 1.0,
        })
        header, *rows = bench_record.compare(base, new, specs, layers)
        assert [row.split() for row in rows] == [
            ["a", "work_per_s", "100", "100", "+0.0%", "higher", "0.25"],
            ["simulate.trial_reps_per_s.separate", "0", "5", "-", "higher"],
            ["regret.adversarial_tau_separate_us", "4", "2", "-50.0%", "lower"],
            ["src_lines", "2000", "2000", "+0.0%"],
        ]
        # Each layer row's columns line up with the next, past the longest name.
        assert len({len(row.rsplit("  ", 1)[0]) for row in rows[1:3]}) == 1
        # A layer that BENCHMARK.json does not declare has no direction.
        assert bench_record.compare(base, new, specs)[2].split()[-1] == "-"
        del base["per_layer"]
        assert bench_record.compare(base, new, specs, layers)[1:] == [rows[0], rows[-1]]

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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairs:
    PARENT = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0]

    def test_nine_of_ten_pairs_and_a_gap_past_the_parent_iqr_claim(self):
        bench_pairs = load_bench_pairs()
        change = [p - 1.0 for p in self.PARENT]
        change[3] = self.PARENT[3]  # a tie counts for neither side
        v = bench_pairs.verdict("lower", self.PARENT, change)
        assert (v["led"], v["pairs"], v["claimable"]) == (9, 10, True)
        assert v["parent"] == pytest.approx((9.8250, 10.0, 10.1750))
        assert v["change"][1] == pytest.approx(9.0)

    def test_eight_of_ten_pairs_do_not_claim(self):
        bench_pairs = load_bench_pairs()
        change = [p - 1.0 for p in self.PARENT]
        change[0] = change[1] = 11.0
        v = bench_pairs.verdict("lower", self.PARENT, change)
        assert (v["led"], v["claimable"]) == (8, False)

    def test_a_lead_in_every_pair_inside_the_parent_iqr_does_not_claim(self):
        bench_pairs = load_bench_pairs()
        change = [p - 0.3 for p in self.PARENT]  # parent IQR is 0.35
        v = bench_pairs.verdict("lower", self.PARENT, change)
        assert (v["led"], v["claimable"]) == (10, False)
        change = [p - 0.4 for p in self.PARENT]
        assert bench_pairs.verdict("lower", self.PARENT, change)["claimable"] is True

    def test_higher_is_better_reverses_the_direction(self):
        bench_pairs = load_bench_pairs()
        lower = [p - 1.0 for p in self.PARENT]
        assert bench_pairs.verdict("higher", self.PARENT, lower)["led"] == 0
        higher = [p + 1.0 for p in self.PARENT]
        v = bench_pairs.verdict("higher", self.PARENT, higher)
        assert (v["led"], v["claimable"]) == (10, True)

    def test_pairs_alternate_which_side_runs_first(self, capsys):
        bench_pairs = load_bench_pairs()
        calls = []

        def run(checkout, workload, seed, seconds):
            calls.append((checkout, seed))
            return {"latency_p50_ms": float(len(calls))}

        parent, change = bench_pairs.collect("p", "c", "reproduce-cli", 3, 8.0, 41, run=run)
        assert calls == [("p", 41), ("c", 41), ("c", 42), ("p", 42), ("p", 43), ("c", 43)]
        assert parent == [{"latency_p50_ms": v} for v in (1.0, 4.0, 5.0)]
        assert change == [{"latency_p50_ms": v} for v in (2.0, 3.0, 6.0)]
        assert "pair 2/3, seed 42: c first" in capsys.readouterr().err

    def test_rows_print_each_metric_with_its_verdict(self):
        bench_pairs = load_bench_pairs()
        specs = [
            {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
            {"name": "work_per_s", "better": "higher", "bound": 0.25},
        ]
        parent = [{"latency_p50_ms": p, "work_per_s": 1.0} for p in self.PARENT]
        change = [{"latency_p50_ms": p - 1.0, "work_per_s": 1.0} for p in self.PARENT]
        header, latency, work = bench_pairs.rows(specs, parent, change)
        assert header.split()[0] == "metric" and header.split()[-2:] == ["led", "claim"]
        assert latency.split() == [
            "latency_p50_ms", "10", "[9.825,", "10.175]", "9", "[8.825,", "9.175]",
            "-10.0%", "10/10", "yes",
        ]
        assert work.split()[-3:] == ["+0.0%", "0/10", "no"]

    def test_one_checkout_against_itself_prints_every_run(self, tmp_path, capsys):
        # A stand-in for perfbench/run.py whose latency is its seed.
        bench_pairs = load_bench_pairs()
        specs = [{"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": specs}))
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(
            "import json, sys\n"
            "seed = float(sys.argv[sys.argv.index('--seed') + 1])\n"
            "metrics = {'latency_p50_ms': {'value': seed, 'unit': 'ms'}}\n"
            "result = {'correct': True, 'attempted': 1, 'failed': 0, 'metrics': metrics}\n"
            "print(json.dumps(result))\n"
        )
        argv = [str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2", "--seconds", "1",
                "--first-seed", "5"]
        assert bench_pairs.main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "w: 2 pairs of 1 s runs, seeds 5-6"
        assert out[2].split()[-3:] == ["+0.0%", "0/2", "no"]
        assert out[3:] == ["latency_p50_ms parent: 5 6", "latency_p50_ms change: 5 6"]

    def test_a_run_that_is_not_correct_stops_the_comparison(self, tmp_path, capsys):
        # A stand-in for perfbench/run.py: its last line reports 3 failed ops.
        bench_pairs = load_bench_pairs()
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
        (tmp_path / "perfbench").mkdir()
        result = {"correct": False, "attempted": 10, "failed": 3, "metrics": {}}
        (tmp_path / "perfbench" / "run.py").write_text(
            f"print('setup')\nprint({json.dumps(result)!r})\n"
        )
        argv = [str(tmp_path), str(tmp_path), "--workload", "w", "--seconds", "1",
                "--first-seed", "5"]
        assert bench_pairs.main(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"error: {tmp_path} seed 5: 3 of 10 checked ops failed\n")
