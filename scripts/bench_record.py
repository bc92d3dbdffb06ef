#!/usr/bin/env python3
"""Write one benchmark record: each workload's end-to-end metrics, every
per-layer metric, and the setting they were measured in.

    python3 scripts/bench_record.py OUT.json [--compare BASE.json]

Runs ``perfbench/run.py --seed 1 --trace 0`` for each workload that
BENCHMARK.json declares, at its ``run_seconds``, in ``RUNS`` rounds that each
run every workload once and then one ``--trace 1`` design-sweep, whose
layer suite gives every per-layer metric.  Each end-to-end metric's
``value`` is the median of its ``RUNS`` untraced runs, and each per-layer
metric's the median of its ``RUNS`` traced runs; the record lists the runs
under ``runs`` in round order, so that their spread can be read beside the
value.  Each run's metrics come from its last stdout line, the environment
from the first traced run's report under ``perfbench/.work/``.  The record
also holds ``src_lines``, the line count of ``src/regretalloc/*.py``, so
that the size of the package is read from the same file as its speed.
Exits non-zero, and writes nothing, when a run fails or any of its checks
is not ``correct``.

With ``--compare BASE.json``, an earlier record, it then prints one row
per workload and end-to-end metric: the BASE value, the new value, the
relative change, and the metric's ``better`` direction and ``bound`` from
BENCHMARK.json; a change worse than its bound is flagged ``WORSE``.  Then
one row per per-layer metric in both records, with its ``better``
direction from BENCHMARK.json (layers have no bound).  A last row gives
``src_lines`` the same way, without a direction or bound, and ``-`` where
BASE has none.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regretalloc"
SEED = 1
# Untraced runs of each workload: one run on a loaded machine would set the record.
RUNS = 3
TRACE_WORKLOAD = "design-sweep"
# What of a run's environment the record keeps; load and commit vary per run.
ENVIRONMENT_KEYS = ("nproc", "cpu_model", "python", "numpy", "src_sha256")


class RecordError(Exception):
    """A benchmark run failed, or did not pass its own checks."""


def run_perfbench(workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """(last stdout line, written report) of one ``perfbench/run.py`` run."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    print("running:", " ".join(argv[1:]), file=sys.stderr, flush=True)
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RecordError(
            f"{workload} (trace {trace}) exited {done.returncode} without a result: "
            f"{done.stderr.strip()}"
        ) from None
    report_path = ROOT / "perfbench" / ".work" / f"result-{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(report_path.read_text())


def count_src_lines(package: Path = PACKAGE) -> int:
    """Lines of the package's modules, as ``cat src/regretalloc/*.py | wc -l``
    counts them."""
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


def medians(results: list[dict]) -> dict:
    """Each metric of the first result, its value the median of that
    metric's values over ``results``, which it keeps under ``runs``."""
    merged = {}
    for name, metric in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        merged[name] = {**metric, "value": statistics.median(values), "runs": values}
    return merged


def assemble(
    rounds: list[dict[str, tuple[dict, dict]]], trace_runs: list[tuple[dict, dict]], environ,
    src_lines: int,
) -> dict:
    """The record of the ``rounds`` of untraced runs (each workload ->
    (result, report)), the traced design-sweep ``trace_runs`` (one a round)
    and the package's ``src_lines``; RecordError if any run is not correct."""
    labelled = [
        (f"{workload} (round {r})", run)
        for r, runs in enumerate(rounds, 1) for workload, run in runs.items()
    ] + [(f"{TRACE_WORKLOAD} (trace 1, round {r})", run) for r, run in enumerate(trace_runs, 1)]
    for label, (result, _) in labelled:
        if result.get("correct") is not True:
            raise RecordError(
                f"{label}: {result.get('failed')} of {result.get('attempted')} checked ops failed"
            )
    end_to_end = {
        workload: medians([runs[workload][0] for runs in rounds]) for workload in rounds[0]
    }
    trace_report = trace_runs[0][1]
    environment = {key: trace_report["environment"][key] for key in ENVIRONMENT_KEYS}
    # Without bytecode every subprocess compiles src/ again (~20 ms a start).
    environment["PYTHONDONTWRITEBYTECODE"] = bool(environ.get("PYTHONDONTWRITEBYTECODE"))
    return {
        "seed": SEED,
        "run_seconds": {workload: run[1]["seconds"] for workload, run in rounds[0].items()},
        "end_to_end": end_to_end,
        "per_layer": medians([result for result, _ in trace_runs]),
        "src_lines": src_lines,
        "environment": environment,
    }


def compare(
    base: dict, record: dict, end_to_end: list[dict], per_layer: list[dict] = ()
) -> list[str]:
    """The rows that ``--compare`` prints for ``record`` against ``base``;
    ``end_to_end`` and ``per_layer`` are BENCHMARK.json's lists of metric
    specs."""
    rows = [
        f"{'workload':<14} {'metric':<15} {'base':>12} {'new':>12} {'change':>8}  better  bound"
    ]
    for workload, metrics in record["end_to_end"].items():
        for spec in end_to_end:
            name, bound = spec["name"], spec["bound"]
            old = base["end_to_end"].get(workload, {}).get(name, {}).get("value")
            new = metrics[name]["value"]
            if old:
                change = (new - old) / old
                worse = change > bound if spec["better"] == "lower" else -change > bound
                cells = f"{old:>12.6g} {new:>12.6g} {change:>+8.1%}"
            else:  # not in BASE, or zero
                worse, cells = False, f"{'-':>12} {new:>12.6g} {'-':>8}"
            flag = "  WORSE" if worse else ""
            rows.append(f"{workload:<14} {name:<15} {cells}  {spec['better']:<6}  {bound}{flag}")
    better = {spec["name"]: spec["better"] for spec in per_layer}
    old_layers = base.get("per_layer", {})
    layers = [name for name in record.get("per_layer", {}) if name in old_layers]
    width = max([30, *map(len, layers)])
    for name in layers:
        old, new = old_layers[name]["value"], record["per_layer"][name]["value"]
        change = f"{(new - old) / old:>+8.1%}" if old else f"{'-':>8}"
        rows.append(f"{name:<{width}} {old:>12.6g} {new:>12.6g} {change}  {better.get(name, '-')}")
    old, new = base.get("src_lines"), record["src_lines"]
    if old:
        rows.append(f"{'src_lines':<30} {old:>12} {new:>12} {(new - old) / old:>+8.1%}")
    else:  # records before BENCH_22 have no count
        rows.append(f"{'src_lines':<30} {'-':>12} {new:>12} {'-':>8}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--compare", type=Path, metavar="BASE.json", help="an earlier record")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(args.compare.read_text()) if args.compare else None
    seconds = bench["run_seconds"]
    workloads = [spec["name"] for spec in bench["workloads"]]
    rounds, trace_runs = [], []
    try:
        for _ in range(RUNS):
            rounds.append({workload: run_perfbench(workload, seconds, 0) for workload in workloads})
            trace_runs.append(run_perfbench(TRACE_WORKLOAD, seconds, trace=1))
        record = assemble(rounds, trace_runs, os.environ, count_src_lines())
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    if base is not None:
        print("\n".join(compare(base, record, bench["end_to_end"], bench["per_layer"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
