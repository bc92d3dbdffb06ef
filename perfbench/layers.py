"""Per-layer micro-measurements: each times calls into one module's public
functions from outside, on the bundled two-group case (``.g2``) or on one
fixed 12-group problem (``.g12``).  Both inputs are fixed, not drawn from
the workload seed, so layer numbers compare across runs and workloads."""

from __future__ import annotations

import io
import math
import random
import time
from pathlib import Path

from common import CLI_REPS, median
from workloads import lib, mc_setup, paradigms, random_problem

BATCH_S = 0.002
METRIC_S = 0.12
MIN_BATCHES = 7
G12_SEED = 12
G12_BUDGET = 100_000
ESTIMATOR_REPS = 2_000_000


def per_call_s(fn, budget_s: float = METRIC_S) -> float:
    """Median per-call time over batches of about BATCH_S each."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= BATCH_S:
            break
        n *= 2
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < MIN_BATCHES or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return median(samples)


def g12_problem():
    problem, _ = random_problem(random.Random(G12_SEED), 12)
    model = lib("model")
    return model.DesignProblem(budget=G12_BUDGET, groups=problem.groups)


def closed_form_layers() -> dict[str, float]:
    """model, stats, allocate, regret and casestudy, in microseconds."""
    model, stats, allocate, regret, casestudy = (
        lib(m) for m in ("model", "stats", "allocate", "regret", "casestudy")
    )
    case, alloc, _ = mc_setup()
    problem, truth = case.problem, case.truth
    big = g12_problem()
    big_alloc = allocate.minimax_allocation(big)
    separate, joint, egalitarian = paradigms()
    us = {}

    def put(name, fn):
        us[name] = per_call_s(fn) * 1e6

    put("model.validate_problem_us.g2", lambda: model.validate_problem(problem))
    put("model.validate_problem_us.g12", lambda: model.validate_problem(big))
    put("model.check_allocation_us.g2", lambda: model.check_allocation(problem, alloc))
    for scheme in ("minimax", "proportional", "egalitarian", "neyman"):
        put(f"allocate.{scheme}_us", lambda s=scheme: allocate.allocate(problem, s))
        put(
            f"allocate.{scheme}_redistribute_us",
            lambda s=scheme: allocate.allocate(problem, s, redistribute=True),
        )
    put(
        "allocate.minimax_redistribute_us.g12",
        lambda: allocate.allocate(big, "minimax", redistribute=True),
    )
    put("regret.worst_case_separate_us", lambda: regret.worst_case_separate(problem, alloc))
    put("regret.worst_case_joint_us", lambda: regret.worst_case_joint(problem, alloc))
    put("regret.worst_case_egalitarian_us", lambda: regret.worst_case_egalitarian(problem, alloc))
    for name, p in (("separate", separate), ("joint", joint), ("egalitarian", egalitarian)):
        put(
            f"regret.expected_regret_us.{name}",
            lambda p=p: regret.expected_regret(problem, alloc, truth, p),
        )
    put("regret.adversarial_tau_separate_us", lambda: regret.adversarial_tau_separate(problem, alloc))
    put("regret.joint_mismatch_us", lambda: regret.joint_mismatch(problem, alloc))
    put("regret.worst_case_separate_us.g12", lambda: regret.worst_case_separate(big, big_alloc))
    put("stats.solve_threshold_constants_us", stats.solve_threshold_constants)
    put("stats.normal_quantile_us", lambda: stats.normal_quantile(0.9))
    config = casestudy.default_config()
    put("casestudy.default_config_us", casestudy.default_config)
    put("casestudy.build_case_study_us", lambda: casestudy.build_case_study(config))
    put(
        "casestudy.required_sample_size_us",
        lambda: casestudy.required_sample_size(case.power, config.weights),
    )
    return us


def estimator_layers() -> dict[str, float]:
    """Estimator-level Monte Carlo throughput at 1 and 2 worker threads."""
    simulate = lib("simulate")
    case, alloc, _ = mc_setup()
    separate = paradigms()[0]
    rates = {}
    for workers in (1, 2):
        samples = []
        for i in range(3):
            start = time.perf_counter()
            simulate.monte_carlo_regret(
                case.problem, alloc, case.truth, separate,
                simulate.SimConfig(replications=ESTIMATOR_REPS, master_seed=i),
                level="estimator", workers=workers,
            )
            samples.append(ESTIMATOR_REPS / (time.perf_counter() - start))
        rates[f"simulate.estimator_reps_per_s.w{workers}"] = median(samples)
    rates["simulate.chunks"] = float(math.ceil(CLI_REPS / simulate.CHUNK_SIZE))
    return rates


def cli_layers(workdir: Path) -> dict[str, float]:
    """``cli.main`` in process: plain reproduce time, bytes written, and the
    share of ``reproduce --reps`` spent in ``monte_carlo_regret``, timed at
    the name through which the CLI calls it."""
    cli = lib("cli")
    plain = ["reproduce", "--out", str(workdir)]
    cli.main(plain, out=io.StringIO())
    walls = []
    for _ in range(MIN_BATCHES):
        start = time.perf_counter()
        code = cli.main(plain, out=io.StringIO())
        walls.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"reproduce exited with {code}")
    csv_bytes = sum(p.stat().st_size for p in workdir.glob("*.csv"))

    original = cli.monte_carlo_regret
    inside = [0.0]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            inside[0] += time.perf_counter() - start

    shares = []
    cli.monte_carlo_regret = timed
    try:
        for seed in range(3):
            inside[0] = 0.0
            start = time.perf_counter()
            cli.main(plain + ["--reps", str(CLI_REPS), "--seed", str(seed)], out=io.StringIO())
            shares.append(inside[0] / (time.perf_counter() - start))
    finally:
        cli.monte_carlo_regret = original
    return {
        "cli.reproduce_in_process_ms": median(walls) * 1e3,
        "cli.csv_bytes": float(csv_bytes),
        "cli.mc_share": median(shares),
    }


def trial_layer(workers: int, reps: int) -> dict:
    """Trial-level throughput at a fixed worker count, one call per paradigm."""
    simulate = lib("simulate")
    case, alloc, _ = mc_setup()
    rates, normals, seconds = {}, 0, 0.0
    for p, paradigm in enumerate(paradigms()):
        start = time.perf_counter()
        simulate.monte_carlo_regret(
            case.problem, alloc, case.truth, paradigm,
            simulate.SimConfig(replications=reps, master_seed=p),
            level="trial", workers=workers,
        )
        elapsed = time.perf_counter() - start
        rates[p] = reps / elapsed
        normals += reps * sum(alloc.counts)
        seconds += elapsed
    return {
        "rates": rates,
        "normals_per_s": normals / seconds,
        "counts": list(alloc.counts),
    }
