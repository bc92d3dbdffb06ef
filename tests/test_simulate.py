"""Trial simulator: the pinned stream, decisions, Monte Carlo engine."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regretalloc.model import (
    Allocation,
    DesignProblem,
    GroupSpec,
    Paradigm,
    TruthScenario,
    ValidationError,
)
from regretalloc import simulate
from regretalloc.regret import expected_regret, worst_case
from regretalloc.simulate import (
    CHUNK_SIZE,
    MonteCarloEstimate,
    SimConfig,
    decide,
    monte_carlo_regret,
    realized_regret,
)
from builders import design_truth, make_problem

# First draws of the pinned Gaussian stream (Philox keyed by (seed, 0), group-
# major treated-then-control order).  A change here means the sampling
# algorithm or seed derivation changed and recorded results are stale.
GOLDEN_SEED = 20240817
GOLDEN_TRUTH = TruthScenario(
    tau=(0.4, -0.2), baseline=(1.0, 2.0), var_control=(1.0, 4.0), var_treated=(2.25, 0.25)
)
GOLDEN_FIRST_GROUP = (
    0.5444132300353232,
    3.337944377019289,
    -1.0019910114584623,
    1.8663226704534637,
    1.3049540845796286,
    0.5604548352484777,
)
# The engine's one-row trial-level estimates on that stream at counts (6, 4),
# and their pooled estimate.
GOLDEN_ESTIMATES = (-0.2837883315618067, 1.3140106479717604)
GOLDEN_POOLED = 0.35533126025162015


class TestGoldenStream:
    def test_first_draws(self):
        rng = simulate._philox_rng(GOLDEN_SEED, 0)
        tau, b = GOLDEN_TRUTH.tau[0], GOLDEN_TRUTH.baseline[0]
        treated = rng.normal(b + tau / 2.0, math.sqrt(GOLDEN_TRUTH.var_treated[0]), size=3)
        control = rng.normal(b - tau / 2.0, math.sqrt(GOLDEN_TRUTH.var_control[0]), size=3)
        assert tuple(np.concatenate([treated, control]).tolist()) == GOLDEN_FIRST_GROUP

    def test_engine_estimates(self):
        allocation = Allocation((6, 4))
        estimates = simulate._chunk_estimates(
            GOLDEN_TRUTH, allocation, simulate._philox_rng(GOLDEN_SEED, 0), 1, "trial"
        )
        assert tuple(estimates[0].tolist()) == GOLDEN_ESTIMATES
        assert simulate._pooled_estimates(estimates, allocation).tolist() == [GOLDEN_POOLED]


class TestEngineRows:
    """What one chunk's rows of per-group estimates hold, and how much of the
    stream they spend."""

    @staticmethod
    def rows(truth, counts, seed, size, level="trial"):
        return simulate._chunk_estimates(
            truth, Allocation(counts), simulate._philox_rng(seed, 0), size, level
        )

    def test_identical_seed_identical_rows(self):
        rows = self.rows(GOLDEN_TRUTH, (6, 4), 7, 5)
        assert np.array_equal(rows, self.rows(GOLDEN_TRUTH, (6, 4), 7, 5))
        assert not np.array_equal(rows, self.rows(GOLDEN_TRUTH, (6, 4), 8, 5))

    @pytest.mark.parametrize("level", ["trial", "estimator"])
    def test_degenerate_variance_recovers_tau(self, level):
        truth = TruthScenario(
            tau=(0.4,), baseline=(1.0,), var_control=(1e-24,), var_treated=(1e-24,)
        )
        rows = self.rows(truth, (40,), 11, 8, level)
        assert rows == pytest.approx(np.full((8, 1), 0.4), abs=1e-9)

    @pytest.mark.parametrize("level", ["trial", "estimator"])
    def test_unsampled_group_is_nan(self, level):
        rows = self.rows(GOLDEN_TRUTH, (0, 4), 3, 6, level)
        assert np.isnan(rows[:, 0]).all() and not np.isnan(rows[:, 1]).any()

    def test_empty_allocation_draws_nothing(self):
        # No groups: the scenario's variance check has no minimum to take.
        empty, allocation = TruthScenario((), (), (), ()), Allocation(())
        rng = simulate._philox_rng(1, 0)
        rows = simulate._chunk_estimates(empty, allocation, rng, 5, "trial")
        assert rows.shape == (5, 0)
        assert rng.random(4).tolist() == simulate._philox_rng(1, 0).random(4).tolist()
        assert np.isnan(simulate._pooled_estimates(rows, allocation)).all()

    @pytest.mark.parametrize("counts", [(10, 6), (2,), (0, 4), (40, 0, 8)])
    def test_each_arm_draws_half_of_each_group(self, counts):
        # n_g/2 treated and n_g/2 control values per row: the 1:1 balance.
        G, size = len(counts), 3
        truth = TruthScenario((0.1,) * G, (0.0,) * G, (1.0,) * G, (1.0,) * G)
        rng = simulate._philox_rng(9, 0)
        simulate._chunk_estimates(truth, Allocation(counts), rng, size, "trial")
        reference = simulate._philox_rng(9, 0)
        reference.standard_normal(size * sum(counts))
        assert rng.random(4).tolist() == reference.random(4).tolist()


class TestPooledEstimates:
    def test_single_group_reduces(self):
        pooled = simulate._pooled_estimates(np.array([[2.0], [-0.5]]), Allocation((4,)))
        assert pooled.tolist() == [2.0, -0.5]

    def test_is_size_weighted_average(self):
        # Group estimates (1, 3) at sizes (2, 6) pool to 0.25*1 + 0.75*3.
        pooled = simulate._pooled_estimates(np.array([[1.0, 3.0]]), Allocation((2, 6)))
        assert pooled.tolist() == [2.5]

    def test_unsampled_group_is_left_out(self):
        rows = np.array([[1.0, np.nan, 3.0]])
        assert simulate._pooled_estimates(rows, Allocation((2, 0, 6))).tolist() == [2.5]

    def test_nobody_sampled_is_nan(self):
        pooled = simulate._pooled_estimates(np.full((3, 2), np.nan), Allocation((0, 0)))
        assert pooled.shape == (3,) and np.isnan(pooled).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_engine_rows_pool_by_group_size(self, seed):
        allocation = Allocation((12, 8))
        rows = simulate._chunk_estimates(
            GOLDEN_TRUTH, allocation, simulate._philox_rng(seed, 0), 4, "trial"
        )
        weighted = (12 * rows[:, 0] + 8 * rows[:, 1]) / 20
        pooled = simulate._pooled_estimates(rows, allocation)
        assert pooled == pytest.approx(weighted, rel=1e-12)
        assert np.array_equal(
            decide(Paradigm.JOINT_UTILITARIAN, pooled_estimate=pooled), weighted >= 0.0
        )


class TestDecide:
    def test_separate_thresholds_each_group(self):
        assert decide(Paradigm.SEPARATE_UTILITARIAN, group_estimates=(0.2, -0.1)) == (1, 0)
        assert decide(Paradigm.SEPARATE_EGALITARIAN, group_estimates=(-0.5, -0.5)) == (0, 0)

    def test_boundary_treats(self):
        assert decide(Paradigm.JOINT_UTILITARIAN, pooled_estimate=0.0) == 1
        assert decide(Paradigm.SEPARATE_UTILITARIAN, group_estimates=(0.0,)) == (1,)

    def test_absent_group_defaults_to_treat(self):
        assert decide(Paradigm.SEPARATE_UTILITARIAN, group_estimates=(0.2, math.nan)) == (1, 1)

    def test_absent_group_coin_flip_with_rng(self):
        rng = np.random.Generator(np.random.Philox(key=[5, 0]))
        draws = {
            decide(Paradigm.SEPARATE_UTILITARIAN, group_estimates=(math.nan,), rng=rng)[0]
            for _ in range(64)
        }
        assert draws == {0, 1}

    def test_missing_inputs_raise(self):
        with pytest.raises(ValidationError):
            decide(Paradigm.JOINT_UTILITARIAN)
        with pytest.raises(ValidationError):
            decide(Paradigm.SEPARATE_UTILITARIAN)

    @pytest.mark.parametrize(
        "paradigm, estimates",
        [
            (Paradigm.SEPARATE_UTILITARIAN, {"group_estimates": "ab"}),
            (Paradigm.SEPARATE_EGALITARIAN, {"group_estimates": [[0.1, 0.2], [0.3]]}),
            (Paradigm.JOINT_UTILITARIAN, {"pooled_estimate": {"a": 1}}),
            (
                Paradigm.SEPARATE_UTILITARIAN,
                {"group_estimates": np.array(["1", "-2"], dtype=object)},
            ),
            (Paradigm.SEPARATE_UTILITARIAN, {"group_estimates": [None, 1.0]}),
            (Paradigm.JOINT_UTILITARIAN, {"pooled_estimate": np.array(None, dtype=object)}),
            # Integers past float range: OverflowError from the float conversion.
            (Paradigm.SEPARATE_UTILITARIAN, {"group_estimates": 10**400}),
            (Paradigm.SEPARATE_UTILITARIAN, {"group_estimates": [1.0, 10**400]}),
            (Paradigm.JOINT_UTILITARIAN, {"pooled_estimate": 10**400}),
        ],
        ids=[
            "string", "ragged", "dict", "object-array-of-strings", "none-in-list", "object-none",
            "huge-int", "huge-int-in-list", "huge-int-pooled",
        ],
    )
    def test_non_numeric_estimates_raise_validation_error(self, paradigm, estimates):
        with pytest.raises(ValidationError, match="estimates must be real numbers"):
            decide(paradigm, **estimates)

    def test_rng_must_be_a_generator(self):
        with pytest.raises(ValidationError, match="rng must be a numpy Generator, got 'x'"):
            decide(Paradigm.SEPARATE_UTILITARIAN, group_estimates=(math.nan,), rng="x")

    @pytest.mark.parametrize(
        "paradigm, estimates",
        [
            (Paradigm.SEPARATE_UTILITARIAN, {"group_estimates": "12"}),
            (Paradigm.SEPARATE_EGALITARIAN, {"group_estimates": ["0.1", "-0.2"]}),
            (Paradigm.SEPARATE_UTILITARIAN, {"group_estimates": np.array([b"1", b"2"])}),
            (Paradigm.JOINT_UTILITARIAN, {"pooled_estimate": b"-3"}),
            (Paradigm.JOINT_UTILITARIAN, {"pooled_estimate": np.str_("0.5")}),
        ],
        ids=["digit-string", "list-of-strings", "bytes-array", "bytes", "numpy-string"],
    )
    def test_string_estimates_are_not_parsed_as_numbers(self, paradigm, estimates):
        with pytest.raises(ValidationError, match="estimates must be real numbers"):
            decide(paradigm, **estimates)

    @pytest.mark.parametrize("paradigm", [Paradigm.SEPARATE_UTILITARIAN, Paradigm.SEPARATE_EGALITARIAN])
    @pytest.mark.parametrize("estimate", [0.5, -1, np.float64(0.5), np.array(0.5)])
    def test_a_bare_scalar_is_not_per_group_estimates(self, paradigm, estimate):
        with pytest.raises(ValidationError, match="one estimate per group"):
            decide(paradigm, group_estimates=estimate)


class TestRealizedRegret:
    problem = make_problem((0.5, 0.5), (1.0, 1.0), 100)

    def test_correct_decisions_mean_zero(self):
        truth = design_truth(self.problem, (1.0, -1.0))
        assert realized_regret(truth, self.problem, (1, 0), Paradigm.SEPARATE_UTILITARIAN) == 0.0

    def test_hand_value_both_wrong(self):
        truth = design_truth(self.problem, (1.0, -1.0))
        value = realized_regret(truth, self.problem, (0, 1), Paradigm.SEPARATE_UTILITARIAN)
        assert value == pytest.approx(1.0)

    def test_joint_zero_aggregate(self):
        truth = design_truth(self.problem, (1.0, -1.0))
        assert realized_regret(truth, self.problem, 0, Paradigm.JOINT_UTILITARIAN) == 0.0
        assert realized_regret(truth, self.problem, 1, Paradigm.JOINT_UTILITARIAN) == 0.0

    def test_egalitarian_takes_worst_group(self):
        truth = design_truth(self.problem, (1.0, -2.0))
        assert realized_regret(truth, self.problem, (0, 1), Paradigm.SEPARATE_EGALITARIAN) == 2.0

    @given(
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.floats(-3, 3), st.floats(-3, 3),
    )
    def test_never_negative(self, decisions, t0, t1):
        truth = design_truth(self.problem, (t0, t1))
        for paradigm in (Paradigm.SEPARATE_UTILITARIAN, Paradigm.SEPARATE_EGALITARIAN):
            assert realized_regret(truth, self.problem, decisions, paradigm) >= 0.0
        assert realized_regret(truth, self.problem, decisions[0], Paradigm.JOINT_UTILITARIAN) >= 0.0

    def test_rejects_a_scenario_of_another_group_count(self):
        truth = design_truth(make_problem((0.25, 0.25, 0.5), (1.0,) * 3, 100), (1.0, -1.0, 0.5))
        with pytest.raises(ValidationError, match="scenario field tau has 3 entries for 2 groups"):
            realized_regret(truth, self.problem, (1, 0, 1), Paradigm.SEPARATE_UTILITARIAN)

    def test_rejects_a_faulty_scenario(self):
        truth = design_truth(self.problem, (math.nan, 1.0))
        with pytest.raises(ValidationError, match="scenario field tau must be finite"):
            realized_regret(truth, self.problem, (1, 1), Paradigm.SEPARATE_UTILITARIAN)

    @pytest.mark.parametrize(
        "paradigm, decisions, expected",
        [
            (Paradigm.SEPARATE_UTILITARIAN, (0, 0), 0.5),
            (Paradigm.SEPARATE_UTILITARIAN, (1, 1), 0.75),
            (Paradigm.SEPARATE_UTILITARIAN, (0, 1), 1.25),
            (Paradigm.SEPARATE_EGALITARIAN, (0, 1), 2.0),
            (Paradigm.SEPARATE_EGALITARIAN, (1, 1), 1.0),
            (Paradigm.JOINT_UTILITARIAN, 1, 0.25),
            (Paradigm.JOINT_UTILITARIAN, 0, 0.0),
        ],
        ids=["separate-miss-0", "separate-miss-1", "separate-miss-both", "egalitarian-worst",
             "egalitarian-one", "joint-miss", "joint-right"],
    )
    def test_hand_values_with_unequal_weights(self, paradigm, decisions, expected):
        # tau (2, -1) at weights (1/4, 3/4): treat group 0 only; pooled,
        # w . tau = -1/4, so do not treat.
        problem = make_problem((0.25, 0.75), (1.0, 1.0), 100)
        truth = design_truth(problem, (2.0, -1.0))
        assert realized_regret(truth, problem, decisions, paradigm) == expected

    def test_boolean_and_list_decisions_are_indicators(self):
        truth = design_truth(self.problem, (1.0, -1.0))
        paradigm = Paradigm.SEPARATE_UTILITARIAN
        reference = realized_regret(truth, self.problem, (0, 1), paradigm)
        for decisions in ((False, True), np.array([False, True]), [0, 1]):
            assert realized_regret(truth, self.problem, decisions, paradigm) == reference

    def test_boolean_rows_are_indicators(self):
        truth = design_truth(self.problem, (1.0, -2.0))
        rows = np.array([[True, False], [False, True]])
        batch = realized_regret(truth, self.problem, rows, Paradigm.SEPARATE_EGALITARIAN)
        assert batch.tolist() == [0.0, 2.0]

    @pytest.mark.parametrize(
        "paradigm, decisions",
        [
            (Paradigm.SEPARATE_UTILITARIAN, (0.5, 2)),
            (Paradigm.SEPARATE_EGALITARIAN, ((1, 0), (1, -1))),
            (Paradigm.JOINT_UTILITARIAN, 0.5),
            (Paradigm.JOINT_UTILITARIAN, math.nan),
            (Paradigm.SEPARATE_EGALITARIAN, ((1, 0), (1,))),
            (Paradigm.SEPARATE_UTILITARIAN, ("1", "0")),
            (Paradigm.SEPARATE_UTILITARIAN, (None, 1)),
            (Paradigm.JOINT_UTILITARIAN, "1"),
            (Paradigm.JOINT_UTILITARIAN, -1),
            (Paradigm.JOINT_UTILITARIAN, 2),
        ],
        ids=["half-and-two", "minus-one-row", "pooled-half", "pooled-nan", "ragged-rows",
             "strings", "none", "pooled-string", "pooled-minus-one", "pooled-two"],
    )
    def test_rejects_decisions_other_than_0_or_1(self, paradigm, decisions):
        truth = design_truth(self.problem, (1.0, -1.0))
        with pytest.raises(ValidationError, match="decisions must be 0 or 1"):
            realized_regret(truth, self.problem, decisions, paradigm)


class TestMonteCarlo:
    problem = make_problem((0.4, 0.6), (1.5, 0.8), 60)
    allocation = Allocation((24, 36))
    truth = design_truth(problem, (0.35, -0.2), baseline=(0.5, 1.5))

    def test_deterministic_across_reruns_and_workers(self):
        config = SimConfig(replications=3 * CHUNK_SIZE + 17, master_seed=99)
        lone = monte_carlo_regret(
            self.problem, self.allocation, self.truth, Paradigm.SEPARATE_UTILITARIAN, config
        )
        again = monte_carlo_regret(
            self.problem, self.allocation, self.truth, Paradigm.SEPARATE_UTILITARIAN, config
        )
        pooled = monte_carlo_regret(
            self.problem, self.allocation, self.truth, Paradigm.SEPARATE_UTILITARIAN,
            config, workers=4,
        )
        assert lone == again == pooled

    @pytest.mark.parametrize("level", ["trial", "estimator"])
    @pytest.mark.parametrize("paradigm", Paradigm, ids=lambda p: p.name)
    def test_threads_agree_bit_for_bit_past_eight_chunks(self, paradigm, level):
        # numpy sums 8 or more stacked (k, 1) partials pairwise, not as a left
        # fold; the order is still fixed by chunk index, whoever finishes first.
        config = SimConfig(replications=9 * CHUNK_SIZE - 5, master_seed=31)
        serial, threaded = (
            monte_carlo_regret(
                self.problem, self.allocation, self.truth, paradigm, config, level, workers
            )
            for workers in (None, 3)
        )
        assert (serial.mean.hex(), serial.std_error.hex()) == (
            threaded.mean.hex(), threaded.std_error.hex()
        )

    def test_levels_agree_statistically(self):
        config = SimConfig(replications=20_000, master_seed=5)
        for paradigm in Paradigm:
            trial = monte_carlo_regret(
                self.problem, self.allocation, self.truth, paradigm, config, level="trial"
            )
            estimator = monte_carlo_regret(
                self.problem, self.allocation, self.truth, paradigm, config, level="estimator"
            )
            spread = math.hypot(trial.std_error, estimator.std_error)
            assert abs(trial.mean - estimator.mean) <= 3.0 * spread

    def test_matches_closed_form(self):
        config = SimConfig(replications=100_000, master_seed=12)
        for paradigm in Paradigm:
            closed = expected_regret(self.problem, self.allocation, self.truth, paradigm).value
            estimate = monte_carlo_regret(
                self.problem, self.allocation, self.truth, paradigm, config, level="trial"
            )
            assert abs(estimate.mean - closed) <= 3.0 * estimate.std_error

    def test_zero_effect_gives_exact_zero(self):
        truth = design_truth(self.problem, (0.0, 0.0))
        estimate = monte_carlo_regret(
            self.problem, self.allocation, truth, Paradigm.SEPARATE_UTILITARIAN,
            SimConfig(replications=2000, master_seed=1),
        )
        assert estimate == MonteCarloEstimate(mean=0.0, std_error=0.0, replications=2000)

    def test_case_study_separate_regret_at_1e5_reps(self, covid_cases):
        case = covid_cases[0]
        allocation = Allocation((6100, 3218))
        closed = expected_regret(
            case.problem, allocation, case.truth, Paradigm.SEPARATE_UTILITARIAN
        ).value
        estimate = monte_carlo_regret(
            case.problem, allocation, case.truth, Paradigm.SEPARATE_UTILITARIAN,
            SimConfig(replications=100_000, master_seed=8), level="estimator",
        )
        assert closed == pytest.approx(0.67e-4, rel=0.02)
        assert abs(estimate.mean - closed) <= 3.0 * estimate.std_error

    def test_single_group_adversarial_matches_bound(self):
        problem = make_problem((1.0,), (2.0,), 16)
        allocation = Allocation((16,))
        bound = worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN).value
        t_star_scale = math.sqrt(2.0 * 2.0 / 16)
        from regretalloc.stats import threshold_constants

        truth = design_truth(problem, (threshold_constants().t_star * t_star_scale,))
        estimate = monte_carlo_regret(
            problem, allocation, truth, Paradigm.SEPARATE_UTILITARIAN,
            SimConfig(replications=100_000, master_seed=21), level="trial",
        )
        assert abs(estimate.mean - bound) <= 3.0 * estimate.std_error

    def test_unsampled_group_coin_flip_matches_closed_form(self):
        problem = make_problem((0.4, 0.6), (1.5, 0.8), 60)
        allocation = Allocation((24, 0))
        truth = design_truth(problem, (0.35, -0.2))
        config = SimConfig(replications=200_000, master_seed=17)
        for paradigm in (Paradigm.SEPARATE_UTILITARIAN, Paradigm.SEPARATE_EGALITARIAN):
            closed = expected_regret(problem, allocation, truth, paradigm).value
            estimate = monte_carlo_regret(
                problem, allocation, truth, paradigm, config, level="estimator"
            )
            assert abs(estimate.mean - closed) <= 3.0 * estimate.std_error

    def test_standard_error_shrinks_with_replications(self):
        small = monte_carlo_regret(
            self.problem, self.allocation, self.truth, Paradigm.SEPARATE_UTILITARIAN,
            SimConfig(replications=10_000, master_seed=2), level="estimator",
        )
        large = monte_carlo_regret(
            self.problem, self.allocation, self.truth, Paradigm.SEPARATE_UTILITARIAN,
            SimConfig(replications=40_000, master_seed=2), level="estimator",
        )
        assert 0.4 <= large.std_error / small.std_error <= 0.6

    def test_replication_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(replications=0, master_seed=1)

    def test_closed_form_consistency_sweep(self):
        # Randomized sweep over edgy scenarios (unsampled groups, zero/tiny/
        # huge effects, 1-4 groups).  The allowed gap is sampling noise plus
        # the plausible mass of wrong-decision branches never observed at
        # this replication count (rare-event allowance scale*5/reps).
        rng = np.random.default_rng(24601)
        reps = 20_000
        for trial in range(20):
            G = int(rng.integers(1, 5))
            raw = rng.uniform(0.05, 1.0, G)
            weights = raw / raw.sum()
            var_c = rng.uniform(0.01, 4.0, G)
            var_t = rng.uniform(0.01, 4.0, G)
            budget = int(2 * rng.integers(2 * G, 60))
            problem = DesignProblem(
                budget=budget,
                groups=tuple(
                    GroupSpec(f"g{i}", float(w), float(vc), float(vt))
                    for i, (w, vc, vt) in enumerate(zip(weights, var_c, var_t))
                ),
            )
            counts = [2 * int(rng.integers(0, budget // (2 * G) + 1)) for _ in range(G)]
            while sum(counts) > budget:
                g = int(rng.integers(0, G))
                counts[g] = max(0, counts[g] - 2)
            kind = rng.integers(0, 4, G)
            tau = np.where(
                kind == 0, 0.0,
                np.where(kind == 1, rng.normal(0, 0.01, G),
                         np.where(kind == 2, rng.normal(0, 1.0, G), rng.normal(0, 25.0, G))),
            )
            truth = TruthScenario(tuple(tau), (0.0,) * G, tuple(var_c), tuple(var_t))
            allocation = Allocation(tuple(counts))
            aggregate = abs(float(np.dot(weights, tau)))
            scale = max(aggregate, max((abs(t) for t in tau), default=0.0), 1e-300)
            for paradigm in Paradigm:
                closed = expected_regret(problem, allocation, truth, paradigm).value
                estimate = monte_carlo_regret(
                    problem, allocation, truth, paradigm,
                    SimConfig(replications=reps, master_seed=trial),
                    level="estimator",
                )
                allowance = 4.0 * estimate.std_error + scale * 5.0 / reps
                assert abs(estimate.mean - closed) <= allowance, (
                    trial, paradigm, counts, closed, estimate,
                )

    def test_group_level_sample_means_track_tau(self):
        # DM estimates over many replications average to the true effects.
        problem = make_problem((0.83, 0.17), (0.0139, 0.0488), 9320)
        allocation = Allocation((6100, 3218))
        truth = design_truth(problem, (-0.0013, -0.0024))
        reps = 10_000
        from regretalloc.simulate import _chunk_estimates, _philox_rng

        estimates = _chunk_estimates(truth, allocation, _philox_rng(31, 0), reps, "trial")
        for g in range(2):
            se = math.sqrt(2.0 * truth.var_sums[g] / allocation.counts[g]) / math.sqrt(reps)
            assert abs(float(estimates[:, g].mean()) - truth.tau[g]) <= 3.0 * se


def untiled_chunk_estimates(truth, allocation, rng, size):
    """Reference trial-level estimates: one whole (size, n/2) draw per arm,
    group-major, treated before control."""
    estimates = np.full((size, len(allocation.counts)), np.nan)
    for g, n in enumerate(allocation.counts):
        if n == 0:
            continue
        half = n // 2
        treated = rng.normal(
            truth.baseline[g] + truth.tau[g] / 2.0,
            math.sqrt(truth.var_treated[g]),
            size=(size, half),
        )
        control = rng.normal(
            truth.baseline[g] - truth.tau[g] / 2.0,
            math.sqrt(truth.var_control[g]),
            size=(size, half),
        )
        estimates[:, g] = treated.mean(axis=1) - control.mean(axis=1)
    return estimates


def tile_rows(n):
    return max(1, simulate._TILE_BYTES // (8 * (n // 2)))


# A single row wider than one tile: each tile holds exactly one row.
WIDE_N = 2 * (simulate._TILE_BYTES // 8 + 1)

# Trial-level Monte Carlo on a 3-group problem with an unsampled group and a
# group spanning several row tiles, recorded as float.hex() before the trial
# draws were tiled.  The unsampled group's effect is small, so the worst
# group, and with it the egalitarian result, depends on the outcome draws.
# A change means the trial-level stream or its reduction moved and recorded
# results are stale.
PINNED_PROBLEM = make_problem((0.3, 0.5, 0.2), (1.5, 0.8, 2.0), 3000)
PINNED_ALLOCATION = Allocation((2000, 600, 0))
PINNED_TRUTH = design_truth(PINNED_PROBLEM, (0.05, -0.08, 0.004), baseline=(0.5, 1.5, -0.3))
PINNED_CONFIG = SimConfig(replications=1500, master_seed=2024)
PINNED_HEX = {
    Paradigm.SEPARATE_UTILITARIAN: ("0x1.f2056b79cb9dfp-9", "0x1.09abfa16a79e9p-12"),
    Paradigm.JOINT_UTILITARIAN: ("0x1.201e3be39447fp-6", "0x1.24190d9cf4bf5p-12"),
    Paradigm.SEPARATE_EGALITARIAN: ("0x1.38636571bb750p-8", "0x1.8dae8e9387460p-12"),
}


class TestTiledTrialDraws:
    @pytest.mark.parametrize(
        "counts, size",
        [
            pytest.param((20,), 50, id="one-tile"),
            pytest.param((WIDE_N,), 3, id="one-row-per-tile"),
            pytest.param((2000,), 1000, id="ragged-last-tile"),
            pytest.param((0, 40), 300, id="zero-count-group"),
            pytest.param((2000, 600, 46), 700, id="three-groups"),
        ],
    )
    def test_bit_identical_to_untiled_draw(self, counts, size):
        G = len(counts)
        truth = TruthScenario(
            tau=tuple(0.1 * (g + 1) for g in range(G)),
            baseline=tuple(0.5 - g for g in range(G)),
            var_control=tuple(1.0 + g for g in range(G)),
            var_treated=tuple(2.0 / (g + 1) for g in range(G)),
        )
        allocation = Allocation(counts)
        tiled_rng = simulate._philox_rng(77, 3)
        reference_rng = simulate._philox_rng(77, 3)
        tiled = simulate._chunk_estimates(truth, allocation, tiled_rng, size, "trial")
        reference = untiled_chunk_estimates(truth, allocation, reference_rng, size)
        assert np.array_equal(tiled, reference, equal_nan=True)
        # The stream is left where the untiled draw leaves it, so the fair
        # coins drawn after the outcomes are unchanged too.
        assert np.array_equal(tiled_rng.integers(0, 2, 64), reference_rng.integers(0, 2, 64))

    def test_shapes_cover_the_tile_edges(self):
        assert tile_rows(20) >= 50
        assert tile_rows(WIDE_N) == 1
        assert 1000 % tile_rows(2000) != 0 and tile_rows(2000) < 1000

    @pytest.mark.parametrize("paradigm", Paradigm, ids=lambda p: p.name)
    def test_pinned_trial_level_results(self, paradigm):
        estimate = monte_carlo_regret(
            PINNED_PROBLEM, PINNED_ALLOCATION, PINNED_TRUTH, paradigm,
            PINNED_CONFIG, level="trial",
        )
        assert (estimate.mean.hex(), estimate.std_error.hex()) == PINNED_HEX[paradigm]


class TestTrialMemory:
    @staticmethod
    def peak_bytes(n, size):
        truth = TruthScenario(tau=(0.1,), baseline=(0.5,), var_control=(1.0,), var_treated=(2.0,))
        allocation = Allocation((n,))
        rng = simulate._philox_rng(5, 0)
        tracemalloc.start()
        try:
            simulate._chunk_estimates(truth, allocation, rng, size, "trial")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_is_bounded_and_flat_in_group_size(self):
        # Untiled, n=200,000 at 256 rows holds two 200 MB outcome arrays.
        small = self.peak_bytes(20_000, 256)
        large = self.peak_bytes(200_000, 256)
        assert tile_rows(200_000) > 1  # one row still fits in a tile
        assert large < 16 * 2**20
        assert large < 1.5 * small


class TestNonFiniteScenario:
    problem = make_problem((0.4, 0.6), (1.5, 0.8), 60)
    allocation = Allocation((24, 36))

    @pytest.mark.parametrize("level", ["trial", "estimator"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("field", ["tau", "baseline", "var_control", "var_treated"])
    def test_monte_carlo_rejects(self, field, value, level):
        truth = design_truth(self.problem, (0.35, -0.2), baseline=(0.5, 1.5))
        values = list(getattr(truth, field))
        values[1] = value
        broken = dataclasses.replace(truth, **{field: tuple(values)})
        with pytest.raises(ValidationError, match=f"scenario field {field} must be finite"):
            monte_carlo_regret(
                self.problem, self.allocation, broken, Paradigm.SEPARATE_UTILITARIAN,
                SimConfig(replications=100, master_seed=1), level=level,
            )

    @pytest.mark.parametrize("value", [-1e-3, math.nan])
    def test_negative_or_nan_regret_raises_without_assert(self, value):
        with pytest.raises(ValidationError, match="realized regret"):
            simulate._check_nonnegative(np.array([0.0, value, 1.0]))


def old_realized_regret(truth, problem, decisions, paradigm):
    """Reference: the per-group Python loop the vectorized kernel replaced."""
    if paradigm is Paradigm.JOINT_UTILITARIAN:
        aggregate = sum(g.weight * t for g, t in zip(problem.groups, truth.tau))
        return aggregate * (int(aggregate > 0.0) - decisions)
    terms = [t * (int(t > 0.0) - d) for t, d in zip(truth.tau, decisions)]
    if paradigm is Paradigm.SEPARATE_EGALITARIAN:
        return max(terms)
    return sum(w * term for w, term in zip(problem.weights, terms))


class TestOneDecisionPath:
    """The scalar per-trial API and the chunked engine share one path."""

    problem = make_problem((0.3, 0.5, 0.2), (1.5, 0.8, 2.0), 3000)
    truth = design_truth(problem, (0.05, -0.08, 0.004), baseline=(0.5, 1.5, -0.3))

    @pytest.mark.parametrize("counts", [(20, 6, 2), (0, 40, 8), (12, 0, 0), (0, 0, 0)])
    @pytest.mark.parametrize("seed", [0, 1, 20240817, -3])
    def test_one_replication_is_the_scalar_api_on_the_engine_row(self, counts, seed):
        # The engine's one row of chunk 0, decided and scored through the
        # scalar one-trial forms (fair coins from the same stream), is the
        # engine's one-replication estimate.
        allocation = Allocation(counts)
        for paradigm in Paradigm:
            rng = simulate._philox_rng(seed, 0)
            row = simulate._chunk_estimates(self.truth, allocation, rng, 1, "trial")
            pooled = float(simulate._pooled_estimates(row, allocation)[0])
            decisions = decide(paradigm, tuple(row[0].tolist()), pooled, rng)
            scalar = realized_regret(self.truth, self.problem, decisions, paradigm)
            engine = monte_carlo_regret(
                self.problem, allocation, self.truth, paradigm, SimConfig(1, seed)
            )
            assert engine.mean == scalar

    def random_estimates(self, reps=200):
        rng = np.random.default_rng(7)
        estimates = rng.normal(0.0, 1.0, size=(reps, 3))
        estimates[:, 1] = np.nan
        estimates[::7, 2] = 0.0
        pooled = estimates[:, [0, 2]] @ np.array([0.5, 0.5])
        pooled[::5] = np.nan
        return estimates, pooled

    def test_batched_decide_matches_scalar_rows(self):
        estimates, pooled = self.random_estimates()
        for paradigm in (Paradigm.SEPARATE_UTILITARIAN, Paradigm.SEPARATE_EGALITARIAN):
            batch = decide(paradigm, group_estimates=estimates)
            assert batch.shape == estimates.shape and batch.dtype == np.int64
            for row, chosen in zip(estimates, batch):
                assert decide(paradigm, group_estimates=tuple(row)) == tuple(chosen)
        batch = decide(Paradigm.JOINT_UTILITARIAN, pooled_estimate=pooled)
        assert batch.shape == pooled.shape
        for value, chosen in zip(pooled, batch):
            assert decide(Paradigm.JOINT_UTILITARIAN, pooled_estimate=float(value)) == chosen

    def test_batched_coins_fill_only_nan_entries(self):
        estimates, pooled = self.random_estimates()
        rng = simulate._philox_rng(3, 0)
        batch = decide(Paradigm.SEPARATE_UTILITARIAN, group_estimates=estimates, rng=rng)
        assert set(np.unique(batch[:, 1])) == {0, 1}
        assert np.array_equal(batch[:, [0, 2]], estimates[:, [0, 2]] >= 0.0)
        # One block of coins per column that holds a NaN, in column order.
        coins = simulate._philox_rng(3, 0).integers(0, 2, size=len(estimates))
        assert np.array_equal(batch[:, 1], coins)
        joint = decide(Paradigm.JOINT_UTILITARIAN, pooled_estimate=pooled, rng=rng)
        assert np.array_equal(joint[~np.isnan(pooled)], pooled[~np.isnan(pooled)] >= 0.0)

    def test_nan_pooled_estimate_follows_the_nan_rule(self):
        # Nobody sampled under the joint paradigm: treat without an rng (NaN
        # >= 0 would have said "do not treat"), a fair coin with one.
        assert decide(Paradigm.JOINT_UTILITARIAN, pooled_estimate=math.nan) == 1
        rng = simulate._philox_rng(5, 0)
        draws = {
            decide(Paradigm.JOINT_UTILITARIAN, pooled_estimate=math.nan, rng=rng)
            for _ in range(64)
        }
        assert draws == {0, 1}

    def test_scalar_decisions_keep_python_types(self):
        assert type(decide(Paradigm.JOINT_UTILITARIAN, pooled_estimate=-0.5)) is int
        decisions = decide(Paradigm.SEPARATE_UTILITARIAN, group_estimates=(0.1, -0.1, math.nan))
        assert decisions == (1, 0, 1) and all(type(d) is int for d in decisions)
        value = realized_regret(self.truth, self.problem, decisions, Paradigm.SEPARATE_UTILITARIAN)
        assert type(value) is float

    @pytest.mark.parametrize("paradigm", Paradigm, ids=lambda p: p.name)
    def test_batched_regret_matches_scalar_and_reference(self, paradigm):
        rng = np.random.default_rng(11)
        problem = make_problem((0.25, 0.45, 0.3), (1.0, 1.0, 1.0), 100)
        for _ in range(20):
            truth = design_truth(problem, tuple(rng.normal(0.0, 1.0, 3)))
            if paradigm is Paradigm.JOINT_UTILITARIAN:
                batch_decisions = rng.integers(0, 2, size=16)
                rows = [int(d) for d in batch_decisions]
            else:
                batch_decisions = rng.integers(0, 2, size=(16, 3))
                rows = [tuple(int(d) for d in row) for row in batch_decisions]
            batch = realized_regret(truth, problem, batch_decisions, paradigm)
            assert batch.shape == (16,)
            for decisions, value in zip(rows, batch):
                scalar = realized_regret(truth, problem, decisions, paradigm)
                assert scalar == pytest.approx(float(value), rel=1e-12, abs=0.0)
                reference = old_realized_regret(truth, problem, decisions, paradigm)
                assert scalar == pytest.approx(reference, rel=1e-12, abs=1e-300)


    @pytest.mark.parametrize(
        "paradigm, decisions",
        [
            (Paradigm.SEPARATE_UTILITARIAN, (1, 0)),
            (Paradigm.SEPARATE_UTILITARIAN, np.zeros((3, 2), dtype=int)),
            (Paradigm.SEPARATE_EGALITARIAN, 1),
            (Paradigm.JOINT_UTILITARIAN, np.zeros((4, 3), dtype=int)),
        ],
        ids=["short", "transposed-batch", "scalar", "pooled-matrix"],
    )
    def test_regret_rejects_decisions_of_another_shape(self, paradigm, decisions):
        # Three groups: a (3, 2) batch must not be read as two trials.
        with pytest.raises(ValidationError, match="decisions of shape"):
            realized_regret(self.truth, self.problem, decisions, paradigm)


class TestSeeds:
    problem = make_problem((0.4, 0.6), (1.5, 0.8), 60)
    allocation = Allocation((24, 36))
    truth = design_truth(problem, (0.35, -0.2), baseline=(0.5, 1.5))

    def estimate(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return monte_carlo_regret(
                self.problem, self.allocation, self.truth, Paradigm.SEPARATE_UTILITARIAN,
                SimConfig(replications=500, master_seed=seed), level="estimator",
            )

    def test_seeds_past_int64_keep_every_bit(self):
        # A float64 key once folded -1 (masked to 2**64 - 1) onto 0 and
        # dropped the low bits of seeds from 2**63 up.
        assert self.estimate(-1) != self.estimate(0)
        assert self.estimate(2**63) != self.estimate(2**63 + 1)
        assert self.estimate(-1) == self.estimate(2**64 - 1)

    def test_numpy_integer_seed_is_the_int_seed(self):
        assert self.estimate(np.int64(-7)) == self.estimate(-7)
        config = SimConfig(replications=np.int32(3), master_seed=np.uint64(2**63))
        assert config == SimConfig(replications=3, master_seed=2**63)
        assert type(config.master_seed) is int

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.int8(5), 2**64 + 5], ids=repr)
    def test_seed_is_taken_mod_2_64_whatever_its_integer_type(self, seed):
        assert self.estimate(seed) == self.estimate(5)

    @pytest.mark.parametrize(
        "seed, residue", [(-3, 2**64 - 3), (-(2**63), 2**63), (-(2**64) - 5, 2**64 - 5)]
    )
    def test_negative_seed_is_taken_mod_2_64(self, seed, residue):
        assert self.estimate(seed) == self.estimate(residue)


class TestBadInput:
    problem = make_problem((0.4, 0.6), (1.5, 0.8), 60)
    truth = design_truth(problem, (0.35, -0.2))

    @pytest.mark.parametrize(
        "fields, match",
        [
            (("x", 0.1, 10), "mean must be nonnegative and finite, got 'x'"),
            ((-0.1, 0.1, 10), "mean must be nonnegative and finite"),
            ((math.inf, 0.1, 10), "mean must be nonnegative and finite"),
            ((10**400, 0.1, 10), "mean must be nonnegative and finite"),
            ((0.1, None, 10), "std_error must be nonnegative and finite, got None"),
            ((0.1, True, 10), "std_error must be nonnegative and finite"),
            ((0.1, math.nan, 10), "std_error must be nonnegative and finite"),
            ((0.1, 0.01, 0), "replications must be at least 1, got 0"),
            ((0.1, 0.01, 2.0), "replications must be an integer"),
            ((0.1, 0.01, np.True_), "replications must be an integer"),
        ],
        ids=["string-mean", "negative-mean", "infinite-mean", "huge-mean", "none-se", "bool-se",
             "nan-se", "zero-reps", "float-reps", "bool-reps"],
    )
    def test_monte_carlo_estimate_checks_its_fields(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            MonteCarloEstimate(*fields)

    def test_monte_carlo_estimate_stores_python_numbers(self):
        estimate = MonteCarloEstimate(np.float64(0.25), 0, np.int64(3))
        assert estimate == MonteCarloEstimate(0.25, 0.0, 3)
        assert [type(v) for v in dataclasses.astuple(estimate)] == [float, float, int]

    @pytest.mark.parametrize("field", ["replications", "master_seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, None, True, np.True_, "3"], ids=repr)
    def test_sim_config_rejects_non_integers(self, field, value):
        kwargs = {"replications": 10, "master_seed": 1, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("workers", ["2", 2.5, True, np.True_], ids=repr)
    def test_monte_carlo_rejects_non_integer_workers(self, workers):
        with pytest.raises(ValidationError, match="workers must be an integer"):
            monte_carlo_regret(
                self.problem, Allocation((24, 36)), self.truth, Paradigm.SEPARATE_UTILITARIAN,
                SimConfig(replications=10, master_seed=1), workers=workers,
            )

    @pytest.mark.parametrize("config", [None, (10, 1)], ids=repr)
    def test_monte_carlo_rejects_a_config_that_is_not_a_sim_config(self, config):
        with pytest.raises(ValidationError, match="config must be a SimConfig, got"):
            monte_carlo_regret(
                self.problem, Allocation((24, 36)), self.truth, Paradigm.SEPARATE_UTILITARIAN,
                config,
            )

    @pytest.mark.parametrize("workers", [0, -1, np.int64(0)], ids=repr)
    def test_monte_carlo_rejects_workers_below_one(self, workers):
        with pytest.raises(ValidationError, match="workers must be at least 1, got"):
            monte_carlo_regret(
                self.problem, Allocation((24, 36)), self.truth, Paradigm.SEPARATE_UTILITARIAN,
                SimConfig(replications=10, master_seed=1), workers=workers,
            )

    @pytest.mark.parametrize(
        "truth, counts, match",
        [
            (TruthScenario((0.1, 0.1), (0.0, 0.0), (-1.0, 1.0), (1.0, 1.0)), (24, 36),
             "group 0: scenario variances must be positive"),
            (TruthScenario((0.1, 0.1), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), (24, 36),
             "group 1: scenario variances must be positive"),
            (TruthScenario((0.1,), (0.0,), (1.0,), (1.0,)), (24, 36),
             "scenario field tau has 1 entries for 2 groups"),
            (None, (24,), "allocation has 1 entries for 2 groups"),
            (None, (-2, 36), "group 0: count -2 is negative"),
            (None, (23, 36), "group 0: count 23 is odd"),
            (None, (24, 38), "allocation total 62 exceeds budget 60"),
            (None, (10**400, 0), "exceeds budget 60"),
            (None, (2**64, 0), "exceeds budget 60"),
        ],
        ids=["negative-variance", "zero-variance", "group-count", "allocation-length",
             "negative-count", "odd-count", "total-past-budget", "total-past-float-range",
             "total-past-2**64"],
    )
    def test_monte_carlo_inputs_pass_the_model_checks(self, truth, counts, match):
        with pytest.raises(ValidationError, match=match):
            monte_carlo_regret(
                self.problem, Allocation(counts), truth or self.truth,
                Paradigm.SEPARATE_UTILITARIAN, SimConfig(replications=10, master_seed=1),
            )

    @pytest.mark.parametrize("counts", [(24, 36), (0, 0)])
    def test_unknown_level_raises_even_when_nothing_is_sampled(self, counts):
        with pytest.raises(ValidationError, match="unknown simulation level"):
            monte_carlo_regret(
                self.problem, Allocation(counts), self.truth, Paradigm.SEPARATE_UTILITARIAN,
                SimConfig(replications=10, master_seed=1), level="bogus",
            )
