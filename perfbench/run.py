"""One-command benchmark for regretalloc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md beside this file):

* ``design-sweep``  closed-form allocators and regrets on seeded random problems;
* ``mc-trial``      trial-level Monte Carlo on the bundled case at 1 and 2 workers;
* ``reproduce-cli`` the ``regretalloc reproduce`` command, with and without ``--reps``.

Every workload is a closed loop with one client process.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the per-layer suite and a
traced pass of the workload and prints the per-layer metrics.  Every op's
output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
non-zero when any check failed.  A fuller report, with the environment and
computed counts, goes to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from common import (
    CHILD,
    CLI_REPS,
    CLI_LAUNCHER,
    ROOT,
    SRC,
    WORK,
    BenchError,
    environment,
    fresh_dir,
    median,
    run_bench_child,
    run_child,
    time_to_ready,
)
from speed import Paced, spawn_and_py_slowdown, spawn_slowdown

WORKLOADS = ("design-sweep", "mc-trial", "reproduce-cli")
SETUP_PROBES = 7
IMPORT_PROBES = 3
# Monte Carlo chunk rows in regretalloc.simulate; two chunks keep both
# workers of ``workers=2`` busy.
CHUNK_ROWS = 8192
MC_REPS = 2 * CHUNK_ROWS
TRACE_BLOCKS = 22
TRACE_MC_CALLS = {1: 1, 2: 3}
TRACE_CLI_PAIRS = 3


class Outcome:
    """Metrics, op counts and report details of one run."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.details: dict = {}

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def setup_seconds(workload: str, seed: int, out: Outcome) -> None:
    """Median set-up time of fresh probes, each scaled by the slowdown
    measured on either side of it."""
    argv = [sys.executable, str(CHILD), "setup", json.dumps({"workload": workload, "seed": seed})]
    paced = Paced(spawn_slowdown)
    probes = [paced.run(lambda: time_to_ready(argv)) for _ in range(SETUP_PROBES)]
    out.metrics["setup_s"] = median(t / f for t, f in probes)
    out.details["setup_raw_s"] = [t for t, _ in probes]
    out.details["setup_slowdown"] = [f for _, f in probes]


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def measure_design_sweep(seed: int, seconds: float, out: Outcome) -> None:
    res, run = run_bench_child("design-sweep", {"seed": seed, "seconds": seconds})
    out.attempted += res["attempted"]
    out.failed += res["failed"]
    out.metrics.update(
        work_per_s=res["cells_per_s"],
        latency_p50_ms=res["problem_p50_ms"],
        peak_rss_mb=run.peak_rss_mb,
    )
    out.details.update(
        {
            k: res[k]
            for k in (
                "problems", "blocks", "problem_p99_ms", "raw_cells_per_s",
                "raw_problem_p50_ms", "slowdown_p50", "zero_group_cell_share",
            )
        },
        work_unit="cell (problem x scheme x redistribute flag, with all its regret calls)",
        latency_op="problem (8 cells)",
    )


def computed_trial_counts(counts: list[int], reps: int, workers: int) -> dict:
    """Counts derived from the inputs, not measured."""
    return {
        "normals_per_call": reps * sum(counts),
        "chunks_per_call": math.ceil(reps / CHUNK_ROWS),
        "outcome_bytes_per_chunk_per_worker": 2 * 8 * CHUNK_ROWS * max(counts) // 2,
        "workers": workers,
    }


def measure_mc_trial(seed: int, seconds: float, out: Outcome) -> None:
    """One round at workers=1, the reference for the determinism check, then
    ``seconds`` of rounds at workers=2, which give the end-to-end figures."""
    spec = {"seed": seed, "workers": 1, "seconds": 0.0, "reps": MC_REPS}
    phases = {1: run_bench_child("mc-trial", spec)}
    phases[2] = run_bench_child("mc-trial", {**spec, "workers": 2, "seconds": seconds})
    (w1, run1), (w2, run2) = phases[1], phases[2]
    for call in w1["calls"]:
        out.count(call["ok"])
    by_index = {c["index"]: c for c in w1["calls"]}
    identical = 0
    for call in w2["calls"]:
        twin = by_index.get(call["index"])
        same = twin is None or (twin.get("mean"), twin.get("std_error")) == (
            call.get("mean"), call.get("std_error")
        )
        identical += twin is not None and same
        out.count(call["ok"] and same)

    def timed(res):
        return [c for c in res["calls"] if "wall_s" in c]

    def rates(res):
        return [MC_REPS / c["wall_s"] * c["slowdown"] for c in timed(res)]

    out.metrics.update(
        work_per_s=median(rates(w2)),
        latency_p50_ms=median(c["wall_s"] / c["slowdown"] for c in timed(w2)) * 1e3,
        peak_rss_mb=max(run1.peak_rss_mb, run2.peak_rss_mb),
    )
    out.details.update(
        {
            "trial_reps_per_s.w1": median(rates(w1)),
            "trial_reps_per_s.w2": median(rates(w2)),
            "raw_trial_reps_per_s.w1": median(MC_REPS / c["wall_s"] for c in timed(w1)),
            "raw_trial_reps_per_s.w2": median(MC_REPS / c["wall_s"] for c in timed(w2)),
            "slowdown.w1": [c["slowdown"] for c in w1["calls"]],
            "slowdown.w2": [c["slowdown"] for c in w2["calls"]],
            "peak_rss_mb.w1": run1.peak_rss_mb,
            "peak_rss_mb.w2": run2.peak_rss_mb,
            "calls.w1": len(w1["calls"]),
            "calls.w2": len(w2["calls"]),
            "bit_identical_pairs": identical,
            "max_abs_z": max(abs(c.get("z", math.inf)) for c in w1["calls"] + w2["calls"]),
            "computed.w1": computed_trial_counts(w1["counts"], MC_REPS, 1),
            "computed.w2": computed_trial_counts(w2["counts"], MC_REPS, 2),
        },
        work_unit="trial-level replication at workers=2",
        latency_op=f"one monte_carlo_regret(level='trial') call of {MC_REPS} reps at workers=2",
    )


def cli_argv(out_dir, reps: int = 0, seed: int = 0) -> list[str]:
    argv = ["reproduce", "--out", str(out_dir)]
    if reps:
        argv += ["--reps", str(reps), "--seed", str(seed)]
    return argv


def measure_reproduce_cli(seed: int, seconds: float, out: Outcome) -> None:
    """Pairs of ``reproduce`` and ``reproduce --reps``, all checked.  The
    end-to-end figures come from the plain runs, which are interpreter start
    and imports, scaled by the interpreter-start slowdown.  The time
    ``--reps`` adds drifts with the shared cores by 20-30% over tens of
    minutes whatever reference scales it, so it goes to the report (raw, and
    scaled by the interpreted-Python slowdown) and not into a bounded metric."""
    from workloads import TABLE5_Z_LIMIT, check_reproduce_plain, table5_mc_z

    plain, extra, rss, scores = [], [], [], []
    mc_calls = 0
    paced = Paced(spawn_and_py_slowdown)
    elapsed = 0.0
    while not plain or elapsed < seconds:
        plain_dir = fresh_dir("cli-plain")
        argv = [sys.executable, "-c", CLI_LAUNCHER, *cli_argv(plain_dir)]
        run, (spawn_f, _) = paced.run(lambda: run_child(argv))
        out.count(run.returncode == 0 and check_reproduce_plain(plain_dir))
        plain.append((run.wall_s, spawn_f))
        rss.append(run.peak_rss_mb)

        mc_dir = fresh_dir("cli-mc")
        argv = [sys.executable, "-c", CLI_LAUNCHER,
                *cli_argv(mc_dir, CLI_REPS, seed * 1000 + len(extra))]
        run_mc, (_, py_f) = paced.run(lambda: run_child(argv))
        z = table5_mc_z(mc_dir) if run_mc.returncode == 0 else None
        ok = z is not None and all(abs(v) < TABLE5_Z_LIMIT for v in z)
        out.count(ok)
        if z is not None:
            scores += z
            # One estimator call per table5 row and paradigm.
            mc_calls = len(z)
        extra.append((run_mc.wall_s - run.wall_s, py_f))
        rss.append(run_mc.peak_rss_mb)
        elapsed += run.wall_s + run_mc.wall_s
    out.metrics.update(
        work_per_s=len(plain) / sum(t / f for t, f in plain),
        latency_p50_ms=median(t / f for t, f in plain) * 1e3,
        peak_rss_mb=max(rss),
    )
    out.details.update(
        {
            "invocations": 2 * len(plain),
            "reproduce_s": median(t / f for t, f in plain),
            "reproduce_mc_extra_s": median(t / f for t, f in extra),
            "raw_reproduce_s": median(t for t, _ in plain),
            "raw_reproduce_mc_extra_s": median(t for t, _ in extra),
            "spawn_slowdown_p50": median(f for _, f in plain),
            "py_slowdown_p50": median(f for _, f in extra),
            "mc_reps_per_s_of_extra_time": median(mc_calls * CLI_REPS / t * f for t, f in extra),
            "table5_max_abs_z": max(map(abs, scores), default=math.nan),
            "table5_cells_abs_z_ge_4": sum(abs(v) >= 4.0 for v in scores),
            "table5_cells": len(scores),
            "computed": {
                "mc_calls_per_invocation": mc_calls,
                "reps_per_call": CLI_REPS,
                "chunks_per_call": math.ceil(CLI_REPS / CHUNK_ROWS),
            },
        },
        work_unit="`regretalloc reproduce` invocation without --reps (mean rate)",
        latency_op="one `regretalloc reproduce` invocation without --reps",
    )


MEASURE = {
    "design-sweep": measure_design_sweep,
    "mc-trial": measure_mc_trial,
    "reproduce-cli": measure_reproduce_cli,
}


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def layer_suite(out: Outcome) -> None:
    res, _ = run_bench_child("layers", {"workdir": str(fresh_dir("layers"))})
    out.metrics.update(res)
    t1, run1 = run_bench_child("trial-layer", {"workers": 1, "reps": CHUNK_ROWS})
    t2, run2 = run_bench_child("trial-layer", {"workers": 2, "reps": MC_REPS})
    w1_rate, w2_rate = median(t1["rates"].values()), median(t2["rates"].values())
    for p, name in enumerate(("separate", "joint", "egalitarian")):
        out.metrics[f"simulate.trial_reps_per_s.{name}"] = t1["rates"][str(p)]
    out.metrics.update(
        {
            "simulate.trial_normals_per_s": t1["normals_per_s"],
            "simulate.trial_chunk_bytes": float(
                computed_trial_counts(t1["counts"], CHUNK_ROWS, 1)["outcome_bytes_per_chunk_per_worker"]
            ),
            "simulate.trial_peak_rss_mb.w1": run1.peak_rss_mb,
            "simulate.trial_peak_rss_mb.w2": run2.peak_rss_mb,
            "simulate.worker_speedup": w2_rate / w1_rate,
        }
    )
    imports = [run_bench_child("import", {})[0]["import_s"] for _ in range(IMPORT_PROBES)]
    out.metrics["cli.import_s"] = median(imports)
    out.details["worker_speedup_base"] = {
        "w1_median_reps_per_s": w1_rate,
        "w1_reps_per_call": CHUNK_ROWS,
        "w2_median_reps_per_s": w2_rate,
        "w2_reps_per_call": MC_REPS,
    }


class TracedPass:
    """Sums the traced children's module self times and pass wall times."""

    def __init__(self, workload: str, seed: int, out: Outcome) -> None:
        self.out = out
        self.parts: list = []
        self.self_s = {}
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.missing: set[str] | None = None
        self.target = WORK / f"spans-{workload}-seed{seed}.json"

    def spans_path(self) -> str:
        path = WORK / f"spans-part{len(self.parts)}.json"
        self.parts.append(path)
        return str(path)

    def add(self, res: dict, untraced_s: float, traced_s: float) -> None:
        self.untraced_s += untraced_s
        self.traced_s += traced_s
        for module, value in res["self_s"].items():
            self.self_s[module] = self.self_s.get(module, 0.0) + value
        missing = set(res["missing_modules"])
        self.missing = missing if self.missing is None else self.missing & missing

    def finish(self) -> None:
        self.out.count(not self.missing)
        for module, value in self.self_s.items():
            self.out.metrics[f"{module}.self_s"] = value
        self.out.metrics["trace.overhead_ratio"] = self.traced_s / self.untraced_s
        procs = [json.loads(p.read_text()) for p in self.parts]
        self.target.write_text(json.dumps(procs))
        for p in self.parts:
            p.unlink()
        self.out.details.update(
            spans_file=str(self.target.relative_to(ROOT)),
            n_spans=sum(len(p["spans"]) for p in procs),
            modules_without_spans=sorted(self.missing or ()),
        )


def trace_design_sweep(seed: int, out: Outcome) -> None:
    traced = TracedPass("design-sweep", seed, out)
    spec = {"seed": seed, "blocks": TRACE_BLOCKS, "workdir": str(fresh_dir("coverage")),
            "spans": traced.spans_path()}
    res, _ = run_bench_child("design-sweep-traced", spec)
    out.attempted += res["attempted"]
    out.failed += res["failed"]
    traced.add(res, res["untraced_s"], res["traced_s"])
    traced.finish()


def trace_mc_trial(seed: int, out: Outcome) -> None:
    traced = TracedPass("mc-trial", seed, out)
    for workers, calls in TRACE_MC_CALLS.items():
        spec = {"seed": seed, "workers": workers, "calls": calls, "reps": MC_REPS,
                "workdir": str(fresh_dir("coverage")), "spans": traced.spans_path()}
        res, _ = run_bench_child("mc-trial-traced", spec)
        for call in res["calls"]:
            out.count(call["ok"])
        traced.add(res, res["untraced_s"], res["traced_s"])
    traced.finish()


def trace_reproduce_cli(seed: int, out: Outcome) -> None:
    from workloads import check_reproduce_mc, check_reproduce_plain

    traced = TracedPass("reproduce-cli", seed, out)
    for pair in range(TRACE_CLI_PAIRS):
        for reps, check in ((0, check_reproduce_plain), (CLI_REPS, check_reproduce_mc)):
            argv = cli_argv(fresh_dir("cli-untraced"), reps, seed * 1000 + pair)
            run = run_child([sys.executable, "-c", CLI_LAUNCHER, *argv])
            out.count(run.returncode == 0)
            out_dir = fresh_dir("cli-traced")
            argv = cli_argv(out_dir, reps, seed * 1000 + pair)
            spec = {"argv": argv, "spans": traced.spans_path()}
            res, run_traced = run_bench_child("cli-traced", spec)
            out.count(res["code"] == 0 and check(out_dir))
            traced.add(res, run.wall_s, run_traced.wall_s)
    traced.finish()


TRACE = {
    "design-sweep": trace_design_sweep,
    "mc-trial": trace_mc_trial,
    "reproduce-cli": trace_reproduce_cli,
}


# ---------------------------------------------------------------------------


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[Outcome, dict]:
    env = environment(seed)
    out = Outcome()
    if trace:
        layer_suite(out)
        TRACE[workload](seed, out)
    else:
        setup_seconds(workload, seed, out)
        MEASURE[workload](seed, seconds, out)
    return out, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regretalloc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'regretalloc'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        out, env = run(args.workload, args.seed, args.seconds, args.trace)
        units = declared_metrics(args.trace)
        if set(out.metrics) != set(units):
            raise BenchError(
                "emitted metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(units) - set(out.metrics))}, "
                f"extra {sorted(set(out.metrics) - set(units))}"
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": out.metrics[name], "unit": unit} for name, unit in units.items()}
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
        "details": out.details,
    }
    report_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"environment: {json.dumps(env)}")
    print(f"report: {report_path.relative_to(ROOT)}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
