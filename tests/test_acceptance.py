"""Acceptance suite: every release criterion with its pinned tolerance.

Each test prints one ``[acceptance] <criterion>: PASS/FAIL`` line (visible
with ``pytest -s`` or ``-rA``) and asserts the criterion at the tolerance
stated in the repository docs.  Target runtime for the whole module is well
under two minutes.
"""

import math
import warnings

import numpy as np
import pytest

from regretalloc.allocate import DegenerateAllocationWarning, allocate, shares
from regretalloc.casestudy import required_sample_size
from regretalloc.cli import main as cli_main
from regretalloc.model import Allocation, Paradigm
from regretalloc.regret import (
    adversarial_tau_separate,
    expected_regret,
    sampling_fractions,
    worst_case,
)
from regretalloc.simulate import SimConfig, monte_carlo_regret
from regretalloc.stats import normal_sf, solve_threshold_constants, threshold_constants
from builders import design_truth, make_problem
from reference_values import (
    REF_ALLOCATIONS,
    REF_BUDGET,
    REF_EXPECTED,
    REF_EXPECTED_ALLOCATIONS,
    REF_TRUTH_NOISE_PCT,
    REF_TRUTH_TAU_PCT,
    REF_WORST_CASE,
    agrees_with_printed,
)

BETAS = (0.005, 0.025)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_threshold_constants():
    constants = solve_threshold_constants()
    ok = (
        abs(constants.t_star - 0.7517) <= 1e-3
        and abs(constants.c0 - 0.1700) <= 5e-4
        and round(constants.c0, 2) == 0.17
    )
    report(
        "criterion 1: threshold constants",
        ok,
        f"t_star={constants.t_star:.6f}, c0={constants.c0:.6f}",
    )


def test_criterion_2_case_study_allocations(covid_cases):
    failures = []
    for case, beta in zip(covid_cases, BETAS):
        computed = {
            "minimax": allocate(case.problem, "minimax").counts,
            "proportional": allocate(case.problem, "proportional").counts,
            "egalitarian": allocate(case.problem, "egalitarian").counts,
        }
        for scheme, expected in REF_ALLOCATIONS[beta].items():
            got = computed[scheme]
            if any(abs(g - e) > 4 for g, e in zip(got, expected)):
                failures.append(f"beta={beta} {scheme}: {got} vs {expected}")
    report("criterion 2: case-study allocations within +/-4", not failures, "; ".join(failures))


def test_criterion_3_worst_case_table(covid_cases):
    failures = []
    for case, beta in zip(covid_cases, BETAS):
        full = 2 * (case.problem.budget // 2)
        rows = dict(REF_ALLOCATIONS[beta])
        rows["only_1"] = (full, 0)
        rows["only_2"] = (0, full)
        for scheme, refs in REF_WORST_CASE[beta].items():
            allocation = Allocation(rows[scheme])
            for paradigm, ref in zip(Paradigm, refs):
                value = worst_case(case.problem, allocation, paradigm).value
                if ref is None:
                    if value != math.inf:
                        failures.append(f"beta={beta} {scheme} {paradigm.value}: expected inf")
                elif not agrees_with_printed(value * 1e4, ref, rel=0.01):
                    failures.append(
                        f"beta={beta} {scheme} {paradigm.value}: {value * 1e4:.4f} vs {ref}"
                    )
    report(
        "criterion 3: worst-case regret table within 1% (inf cells infinite)",
        not failures,
        "; ".join(failures),
    )


def test_criterion_4_ground_truth_moments(covid_cases):
    failures = []
    noise_tol = {0.005: 0.01e-2, 0.025: 0.02e-2}
    for case, beta in zip(covid_cases, BETAS):
        for g in range(2):
            tau_ref = float(REF_TRUTH_TAU_PCT[beta][g]) / 100.0
            noise_ref = float(REF_TRUTH_NOISE_PCT[beta][g]) / 100.0
            if abs(case.truth.tau[g] - tau_ref) > 0.01e-2:
                failures.append(f"beta={beta} tau[{g}]")
            if abs(math.sqrt(case.truth.var_sums[g]) - noise_ref) > noise_tol[beta]:
                failures.append(f"beta={beta} noise[{g}]")
    report(
        "criterion 4: evaluation-scenario moments within 0.01/0.02 pp",
        not failures,
        "; ".join(failures),
    )


def test_criterion_5_expected_regret_table(covid_cases):
    failures = []
    for case, beta in zip(covid_cases, BETAS):
        for scheme, counts in REF_EXPECTED_ALLOCATIONS[beta].items():
            allocation = Allocation(counts)
            refs = REF_EXPECTED[beta][scheme]
            separate = expected_regret(
                case.problem, allocation, case.truth, Paradigm.SEPARATE_UTILITARIAN
            ).value
            egalitarian = expected_regret(
                case.problem, allocation, case.truth, Paradigm.SEPARATE_EGALITARIAN
            ).value
            # Separate-decision columns: 2% relative or 0.02e-4 absolute.
            if not agrees_with_printed(separate * 1e4, refs[0], rel=0.02, abs_floor=0.02):
                failures.append(f"beta={beta} {scheme} separate: {separate * 1e4:.4f} vs {refs[0]}")
            if not agrees_with_printed(egalitarian * 1e4, refs[2], rel=0.02, abs_floor=0.02):
                failures.append(
                    f"beta={beta} {scheme} egalitarian: {egalitarian * 1e4:.4f} vs {refs[2]}"
                )
            # Joint column: only single-group rows have reproducible benchmarks
            # (2% relative; benchmarks carry their own print quantum).
            if scheme in ("only_1", "only_2"):
                joint = expected_regret(
                    case.problem, allocation, case.truth, Paradigm.JOINT_UTILITARIAN
                ).value
                if not agrees_with_printed(joint * 1e4, refs[1], rel=0.02):
                    failures.append(f"beta={beta} {scheme} joint: {joint * 1e4:.4f} vs {refs[1]}")
    report(
        "criterion 5a: expected-regret table (separate columns, single-group joint)",
        not failures,
        "; ".join(failures),
    )


def test_criterion_5_joint_closed_form_vs_monte_carlo(covid_cases):
    # Mixed-allocation joint benchmarks are not reproducible (method unstated);
    # substituted property: the closed form agrees with this package's own
    # Monte Carlo at 1e6 replications for every allocation row.
    failures = []
    config = SimConfig(replications=1_000_000, master_seed=20240229)
    for case, beta in zip(covid_cases, BETAS):
        for scheme, counts in REF_EXPECTED_ALLOCATIONS[beta].items():
            allocation = Allocation(counts)
            closed = expected_regret(
                case.problem, allocation, case.truth, Paradigm.JOINT_UTILITARIAN
            ).value
            estimate = monte_carlo_regret(
                case.problem, allocation, case.truth, Paradigm.JOINT_UTILITARIAN,
                config, level="estimator",
            )
            spread = max(3.0 * estimate.std_error, 1e-15)
            if abs(estimate.mean - closed) > spread:
                failures.append(
                    f"beta={beta} {scheme}: |{estimate.mean:.3e} - {closed:.3e}| > {spread:.1e}"
                )
    report(
        "criterion 5b: joint closed form within 3 SE of 1e6-rep Monte Carlo",
        not failures,
        "; ".join(failures),
    )


def test_criterion_6_power_based_budget(covid_cases, tmp_path):
    # The beta=0.025 design variances back the quoted ~9467 convention.
    spec = covid_cases[1].power
    n_90 = required_sample_size(spec, (0.83, 0.17))
    import dataclasses

    n_80 = required_sample_size(dataclasses.replace(spec, power_quantile=0.80), (0.83, 0.17))
    gap = abs(n_90 - REF_BUDGET) / REF_BUDGET
    ok = (
        6800 <= n_80 <= 9500
        and 6800 <= n_90 <= 9500
        and abs(n_90 - 9467) <= 20
        and gap < 0.02
    )
    # The discrepancy must be reported, not hidden: the reproduce output
    # documents the budget-vs-power-calculation gap.
    out_dir = tmp_path / "tables"
    assert cli_main(["reproduce", "--out", str(out_dir)]) == 0
    text = (out_dir / "discrepancies.txt").read_text()
    ok = ok and "9320" in text and (out_dir / "power_conventions.csv").exists()
    report(
        "criterion 6: power-based budget conventions",
        ok,
        f"n(90/5)={n_90}, n(80/5)={n_80}, gap to {REF_BUDGET} = {gap:.2%}",
    )


# --- criterion 7: brute-force optimality oracle ----------------------------


def grid_minimum_separate(problem):
    """Exhaustive even-allocation search of the separate worst case (G=2)."""
    c0 = threshold_constants().c0
    w, s, N = problem.weights, problem.var_sums, problem.budget
    n1, n2 = np.meshgrid(
        np.arange(2.0, N, 2.0), np.arange(2.0, N, 2.0), indexing="ij"
    )
    feasible = n1 + n2 <= N
    values = c0 * (w[0] * np.sqrt(2 * s[0] / n1) + w[1] * np.sqrt(2 * s[1] / n2))
    return float(values[feasible].min())


def grid_minimum_egalitarian(problem):
    c0 = threshold_constants().c0
    s, N = problem.var_sums, problem.budget
    n1, n2 = np.meshgrid(
        np.arange(2.0, N, 2.0), np.arange(2.0, N, 2.0), indexing="ij"
    )
    feasible = n1 + n2 <= N
    values = c0 * np.maximum(np.sqrt(2 * s[0] / n1), np.sqrt(2 * s[1] / n2))
    return float(values[feasible].min())


def grid_minimum_joint(problem, kappa_tol=1e-4):
    """Exhaustive even-allocation search of the pooled worst case (G=2).

    Vectorized restatement of the same closed form: infinite unless the
    mismatch statistic K is negligible, else F*c0*sqrt(2*pooled_var/total).
    Returns (minimum, argmin counts).
    """
    c0 = threshold_constants().c0
    a = problem.weights[0]
    s, N = problem.var_sums, problem.budget
    n1, n2 = np.meshgrid(
        np.arange(2.0, N, 2.0), np.arange(2.0, N, 2.0), indexing="ij"
    )
    feasible = n1 + n2 <= N
    total = n1 + n2
    h = n1 / total
    kappa = (h - a) * (1 - 2 * a) / (h * (1 - h))
    scale = a / h + (1 - a) / (1 - h)
    factor = a * (1 - a) * (1.0 / h + 1.0 / (1 - h))
    values = factor * c0 * np.sqrt(2 * (h * s[0] + (1 - h) * s[1]) / total)
    values = np.where(np.abs(kappa) <= kappa_tol * scale, values, np.inf)
    values = np.where(feasible, values, np.inf)
    argmin = np.unravel_index(np.argmin(values), values.shape)
    counts = (int(n1[argmin]), int(n2[argmin]))
    return float(values[argmin]), counts


def random_instances(count, rng):
    out = []
    for _ in range(count):
        a = float(rng.uniform(0.2, 0.8))
        out.append(((a, 1.0 - a), tuple(rng.uniform(0.5, 4.0, 2))))
    return out


def test_criterion_7_brute_force_optimality():
    rng = np.random.default_rng(20240611)
    instances = random_instances(20, rng)
    failures = []

    def flooring_slack(problem, allocation, relaxed_counts):
        achieved = worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN).value
        c0 = threshold_constants().c0
        relaxed = c0 * sum(
            g.weight * math.sqrt(2.0 * g.var_sum / x)
            for g, x in zip(problem.groups, relaxed_counts)
        )
        return achieved / relaxed - 1.0

    mean_gaps = {"minimax": {}, "egalitarian": {}}
    for N in (40, 80, 160, 200):
        gaps_mm, gaps_eg = [], []
        for weights, var_sums in instances:
            problem = make_problem(weights, var_sums, N)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateAllocationWarning)
                mm = allocate(problem, "minimax")
                eg = allocate(problem, "egalitarian")
            # Separate-decision objective.
            achieved = worst_case(problem, mm, Paradigm.SEPARATE_UTILITARIAN).value
            best = grid_minimum_separate(problem)
            gap = achieved / best - 1.0
            slack = flooring_slack(problem, mm, shares(problem, "minimax"))
            if not (-1e-12 <= gap <= slack + 1e-12):
                failures.append(f"minimax N={N}: gap {gap:.2e} slack {slack:.2e}")
            gaps_mm.append(gap)
            # Worst-off-group objective.
            achieved_eg = worst_case(problem, eg, Paradigm.SEPARATE_EGALITARIAN).value
            best_eg = grid_minimum_egalitarian(problem)
            gap_eg = achieved_eg / best_eg - 1.0
            c0 = threshold_constants().c0
            relaxed_value = c0 * max(
                math.sqrt(2.0 * s / x)
                for s, x in zip(problem.var_sums, shares(problem, "egalitarian"))
            )
            slack_eg = achieved_eg / relaxed_value - 1.0
            if not (-1e-12 <= gap_eg <= slack_eg + 1e-12):
                failures.append(f"egalitarian N={N}: gap {gap_eg:.2e} slack {slack_eg:.2e}")
            gaps_eg.append(gap_eg)
        mean_gaps["minimax"][N] = float(np.mean(gaps_mm))
        mean_gaps["egalitarian"][N] = float(np.mean(gaps_eg))

    # Pooled-decision objective at N=200, on weight-compatible instances.
    for k in (20, 27, 34, 41, 48, 55, 62, 69, 76, 80):
        a = k / 100.0
        problem = make_problem((a, 1.0 - a), (1.3, 2.9), 200)
        proportional = allocate(problem, "proportional")
        achieved = worst_case(problem, proportional, Paradigm.JOINT_UTILITARIAN).value
        best, argmin = grid_minimum_joint(problem)
        if not math.isfinite(achieved):
            failures.append(f"joint k={k}: proportional reported infinite")
        elif achieved > best * (1 + 1e-12):
            failures.append(f"joint k={k}: {achieved:.4e} > grid min {best:.4e} at {argmin}")
        if proportional.counts != argmin:
            failures.append(f"joint k={k}: grid argmin {argmin} != proportional {proportional.counts}")
        # Spot-check the vectorized oracle against the package on random cells.
        cell_rng = np.random.default_rng(1000 + k)
        for _ in range(25):
            c1 = 2 * int(cell_rng.integers(1, 99))
            c2 = 2 * int(cell_rng.integers(1, (200 - c1) // 2 + 1))
            value = worst_case(problem, Allocation((c1, c2)), Paradigm.JOINT_UTILITARIAN).value
            h = c1 / (c1 + c2)
            kappa = (h - a) * (1 - 2 * a) / (h * (1 - h))
            scale = a / h + (1 - a) / (1 - h)
            if abs(kappa) > 1e-4 * scale:
                oracle = math.inf
            else:
                factor = a * (1 - a) * (1 / h + 1 / (1 - h))
                oracle = factor * threshold_constants().c0 * math.sqrt(
                    2 * (h * 1.3 + (1 - h) * 2.9) / (c1 + c2)
                )
            same = (value == oracle) if math.isinf(oracle) else abs(value - oracle) <= 1e-12
            if not same:
                failures.append(f"joint oracle mismatch at ({c1},{c2})")

    # Measured relative gap shrinks as the budget doubles (O(1/N) behavior).
    for scheme, gaps in mean_gaps.items():
        if not (gaps[160] <= gaps[80] <= gaps[40]):
            failures.append(f"{scheme} gaps not decreasing: {gaps}")
        if gaps[160] > 0.55 * gaps[80] or gaps[80] > 0.55 * gaps[40]:
            failures.append(f"{scheme} gaps shrink slower than ~1/N: {gaps}")

    detail = ", ".join(
        f"{scheme} mean gap 40/80/160 = "
        f"{gaps[40]:.1e}/{gaps[80]:.1e}/{gaps[160]:.1e}"
        for scheme, gaps in mean_gaps.items()
    )
    report("criterion 7: brute-force optimality + gap decay", not failures, detail if not failures else "; ".join(failures))


def test_criterion_8_adversarial_consistency():
    rng = np.random.default_rng(424242)
    failures = []
    for i in range(50):
        G = int(rng.integers(1, 4))
        raw = rng.uniform(0.1, 1.0, size=G)
        weights = tuple(raw / raw.sum())
        var_sums = tuple(rng.uniform(0.2, 5.0, G))
        budget = int(2 * rng.integers(3 * G, 60))
        problem = make_problem(weights, var_sums, budget)
        pairs = np.full(G, budget // (2 * G))
        allocation = Allocation(tuple(int(2 * p) for p in pairs))
        truth = adversarial_tau_separate(problem, allocation)
        achieved = expected_regret(
            problem, allocation, truth, Paradigm.SEPARATE_UTILITARIAN
        ).value
        bound = worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN).value
        if abs(achieved - bound) > 1e-10 * bound:
            failures.append(f"instance {i}: relative error {abs(achieved - bound) / bound:.2e}")
        # Per-group grid search: no effect profile does better, and the
        # maximizer sits within one grid step of the analytic one.
        for g in range(G):
            se = math.sqrt(2.0 * var_sums[g] / allocation.counts[g])
            step = 5.0 * se / 400.0
            grid = np.arange(0.0, 5.0 * se + step / 2, step)
            contributions = [abs(t) * normal_sf(abs(t) / se) for t in grid]
            best = int(np.argmax(contributions))
            per_group_bound = threshold_constants().c0 * se
            if contributions[best] > per_group_bound * (1 + 1e-12):
                failures.append(f"instance {i} group {g}: grid beats bound")
            if abs(grid[best] - truth.tau[g]) > step:
                failures.append(f"instance {i} group {g}: maximizer off-grid")
    report("criterion 8: adversarial effects attain the worst case", not failures, "; ".join(failures))


def test_criterion_9_simulator_invariants():
    rng = np.random.default_rng(987654321)
    failures = []

    # (a) determinism under parallel execution.
    problem = make_problem((0.4, 0.6), (1.5, 0.8), 60)
    allocation = Allocation((24, 36))
    truth = design_truth(problem, (0.35, -0.2))
    config = SimConfig(replications=30_000, master_seed=11)
    serial = monte_carlo_regret(
        problem, allocation, truth, Paradigm.SEPARATE_UTILITARIAN, config
    )
    threaded = monte_carlo_regret(
        problem, allocation, truth, Paradigm.SEPARATE_UTILITARIAN, config, workers=4
    )
    if serial != threaded:
        failures.append("parallel execution changed the estimate")

    # (b) realized regret nonnegative across replications (asserted inside the
    # engine for every chunk; exercise the one-off API as well, on per-group
    # estimates drawn from their sampling distribution N(tau_g, 2 S_g / n_g)).
    from regretalloc.simulate import decide, realized_regret

    se = np.sqrt(2.0 * np.array(truth.var_sums) / np.array(allocation.counts))
    fractions = np.array(sampling_fractions(allocation))
    for seed in range(200):
        estimates = np.random.default_rng(seed).normal(truth.tau, se)
        separate = decide(Paradigm.SEPARATE_UTILITARIAN, group_estimates=estimates)
        joint = decide(Paradigm.JOINT_UTILITARIAN, pooled_estimate=float(fractions @ estimates))
        for paradigm, decisions in (
            (Paradigm.SEPARATE_UTILITARIAN, separate),
            (Paradigm.SEPARATE_EGALITARIAN, separate),
            (Paradigm.JOINT_UTILITARIAN, joint),
        ):
            if realized_regret(truth, problem, decisions, paradigm) < 0:
                failures.append(f"negative realized regret at seed {seed}")

    # (c) closed-form agreement: 5 random scenarios per paradigm, 1e5 reps.
    config = SimConfig(replications=100_000, master_seed=5150)
    for scenario_index in range(5):
        G = int(rng.integers(1, 4))
        raw = rng.uniform(0.1, 1.0, size=G)
        weights = tuple(raw / raw.sum())
        var_sums = tuple(rng.uniform(0.5, 3.0, G))
        budget = int(2 * rng.integers(5 * G, 40))
        problem = make_problem(weights, var_sums, budget)
        pairs = np.full(G, budget // (2 * G))
        allocation = Allocation(tuple(int(2 * p) for p in pairs))
        standard_errors = [
            math.sqrt(2.0 * s / n) for s, n in zip(var_sums, allocation.counts)
        ]
        # Distinct per-group regret levels keep the egalitarian argmax stable.
        while True:
            tau = tuple(
                float(rng.normal(0.0, 1.5)) * se for se in standard_errors
            )
            levels = sorted(
                abs(t) * normal_sf(abs(t) / se) for t, se in zip(tau, standard_errors)
            )
            if G == 1 or levels[-1] > 1.15 * levels[-2]:
                break
        truth = design_truth(problem, tau)
        for paradigm in (
            Paradigm.SEPARATE_UTILITARIAN,
            Paradigm.JOINT_UTILITARIAN,
            Paradigm.SEPARATE_EGALITARIAN,
        ):
            closed = expected_regret(problem, allocation, truth, paradigm).value
            estimate = monte_carlo_regret(
                problem, allocation, truth, paradigm, config, level="trial"
            )
            spread = max(3.0 * estimate.std_error, 1e-15)
            if abs(estimate.mean - closed) > spread:
                failures.append(
                    f"scenario {scenario_index} {paradigm.value}: "
                    f"|{estimate.mean:.3e} - {closed:.3e}| > {spread:.1e}"
                )
    report("criterion 9: simulator invariants", not failures, "; ".join(failures))
