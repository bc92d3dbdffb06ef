"""Closed-form worst-case and expected regret, adversarial scenarios."""

import dataclasses
import math

import numpy as np
import pytest

from regretalloc import simulate
from regretalloc.allocate import allocate, minimax_allocation, shares
from regretalloc.model import (
    Allocation,
    DesignProblem,
    GroupSpec,
    Paradigm,
    TruthScenario,
    ValidationError,
)
from regretalloc.regret import (
    adversarial_tau_separate,
    expected_regret,
    joint_adversarial_tau,
    joint_mismatch,
    joint_regret_expression,
    sampling_fractions,
    worst_case,
)
from regretalloc.stats import normal_pdf, normal_sf, threshold_constants
from builders import design_truth, make_problem
from reference_values import (
    ORACLE_ADVERSARIAL_TAU_G1,
    ORACLE_C0_OVER_5,
    ORACLE_C0_OVER_SQRT2,
    ORACLE_EXPECTED,
    ORACLE_WORST_CASE,
    REF_ALLOCATIONS,
    REF_EXPECTED_ALLOCATIONS,
)


class TestWorstCaseSeparate:
    def test_case_study_values(self, covid_cases):
        for case, beta in zip(covid_cases, (0.005, 0.025)):
            for scheme, counts in REF_ALLOCATIONS[beta].items():
                summary = worst_case(
                    case.problem, Allocation(counts), Paradigm.SEPARATE_UTILITARIAN
                )
                expected = ORACLE_WORST_CASE[beta][scheme][0]
                assert summary.value * 1e4 == pytest.approx(expected, rel=1e-4)

    def test_unsampled_group_is_infinite(self, covid_cases):
        problem = covid_cases[0].problem
        summary = worst_case(problem, Allocation((9320, 0)), Paradigm.SEPARATE_UTILITARIAN)
        assert summary.value == math.inf

    def test_single_group_hand_value(self):
        problem = make_problem((1.0,), (2.0,), 8)
        summary = worst_case(problem, Allocation((8,)), Paradigm.SEPARATE_UTILITARIAN)
        assert summary.value == pytest.approx(ORACLE_C0_OVER_SQRT2, abs=1e-9)

    def test_value_is_sum_of_per_group(self, covid_cases):
        problem = covid_cases[0].problem
        summary = worst_case(problem, Allocation((6100, 3218)), Paradigm.SEPARATE_UTILITARIAN)
        assert summary.value == pytest.approx(sum(summary.per_group), rel=1e-15)

    def test_length_mismatch_is_structural_error(self, covid_cases):
        with pytest.raises(ValidationError):
            worst_case(covid_cases[0].problem, Allocation((6100,)), Paradigm.SEPARATE_UTILITARIAN)


class TestWorstCaseJoint:
    def test_proportional_is_finite_and_matches(self, covid_cases):
        for case, beta in zip(covid_cases, (0.005, 0.025)):
            allocation = Allocation(REF_ALLOCATIONS[beta]["proportional"])
            summary = worst_case(case.problem, allocation, Paradigm.JOINT_UTILITARIAN)
            assert summary.value * 1e4 == pytest.approx(
                ORACLE_WORST_CASE[beta]["proportional"][1], rel=1e-4
            )

    def test_nonproportional_rows_are_infinite(self, covid_cases):
        for case, beta in zip(covid_cases, (0.005, 0.025)):
            for scheme in ("minimax", "egalitarian"):
                counts = REF_ALLOCATIONS[beta][scheme]
                summary = worst_case(case.problem, Allocation(counts), Paradigm.JOINT_UTILITARIAN)
                assert summary.value == math.inf
        summary = worst_case(
            covid_cases[0].problem, Allocation((9320, 0)), Paradigm.JOINT_UTILITARIAN
        )
        assert summary.value == math.inf

    def test_nothing_sampled_is_infinite_like_the_other_paradigms(self):
        problem = make_problem((0.3, 0.7), (1.0, 2.0), 200)
        for paradigm in Paradigm:
            assert worst_case(problem, Allocation((0, 0)), paradigm).value == math.inf

    def test_matched_fractions_hand_value(self):
        problem = make_problem((0.5, 0.5), (2.0, 2.0), 100)
        summary = worst_case(problem, Allocation((50, 50)), Paradigm.JOINT_UTILITARIAN)
        assert summary.value == pytest.approx(ORACLE_C0_OVER_5, abs=1e-9)

    def test_mismatch_statistic_zero_at_proportional(self):
        problem = make_problem((0.3, 0.7), (1.0, 2.0), 200)
        assert joint_mismatch(problem, Allocation((60, 140))) == pytest.approx(0.0, abs=1e-12)
        assert joint_mismatch(problem, Allocation((100, 100))) > 0.01

    def test_sub_budget_proportional_is_finite_but_larger(self):
        problem = make_problem((0.3, 0.7), (1.0, 2.0), 200)
        full = worst_case(problem, Allocation((60, 140)), Paradigm.JOINT_UTILITARIAN).value
        half = worst_case(problem, Allocation((30, 70)), Paradigm.JOINT_UTILITARIAN).value
        assert math.isfinite(half)
        assert half == pytest.approx(full * math.sqrt(2.0), rel=1e-12)


class TestWorstCaseEgalitarian:
    def test_case_study_values(self, covid_cases):
        for case, beta in zip(covid_cases, (0.005, 0.025)):
            for scheme, counts in REF_ALLOCATIONS[beta].items():
                summary = worst_case(
                    case.problem, Allocation(counts), Paradigm.SEPARATE_EGALITARIAN
                )
                expected = ORACLE_WORST_CASE[beta][scheme][2]
                assert summary.value * 1e4 == pytest.approx(expected, rel=1e-4)

    def test_value_is_max_of_per_group(self, covid_cases):
        allocation = Allocation((2068, 7250))
        summary = worst_case(covid_cases[0].problem, allocation, Paradigm.SEPARATE_EGALITARIAN)
        assert summary.value == max(summary.per_group)

    def test_unsampled_group_is_infinite(self, covid_cases):
        allocation = Allocation((0, 9320))
        summary = worst_case(covid_cases[0].problem, allocation, Paradigm.SEPARATE_EGALITARIAN)
        assert summary.value == math.inf


class TestExpectedRegret:
    def test_case_study_values(self, covid_cases):
        for case, beta in zip(covid_cases, (0.005, 0.025)):
            for scheme, counts in REF_EXPECTED_ALLOCATIONS[beta].items():
                allocation = Allocation(counts)
                for column, paradigm in enumerate(Paradigm):
                    value = expected_regret(case.problem, allocation, case.truth, paradigm).value
                    expected = ORACLE_EXPECTED[beta][scheme][
                        {0: 0, 1: 1, 2: 2}[column]
                    ]
                    assert value * 1e4 == pytest.approx(expected, rel=1e-4), (
                        beta, scheme, paradigm,
                    )

    def test_zero_effect_means_zero_regret(self, covid_cases):
        problem = covid_cases[0].problem
        truth = design_truth(problem, (0.0, 0.0))
        for paradigm in Paradigm:
            assert expected_regret(problem, Allocation((6100, 3218)), truth, paradigm).value == 0.0

    def test_unsampled_group_contributes_half_tau(self):
        # Group 1's noise is negligible, so the whole separate-utilitarian
        # value reduces to the unsampled group's fair-coin term w2*|tau2|/2.
        problem = make_problem((0.6, 0.4), (1e-10, 1.0), 100)
        truth = design_truth(problem, (0.5, -0.25))
        value = expected_regret(
            problem, Allocation((100, 0)), truth, Paradigm.SEPARATE_UTILITARIAN
        ).value
        assert value == pytest.approx(0.4 * 0.25 / 2.0, rel=1e-9)

    @pytest.mark.parametrize("tau", [(0.5, -0.1), (-0.5, 0.1)], ids=["positive", "negative"])
    def test_nothing_sampled_pooled_is_a_fair_coin(self, tau):
        problem = make_problem((0.3, 0.7), (1.0, 2.0), 200)
        truth = design_truth(problem, tau)
        value = expected_regret(
            problem, Allocation((0, 0)), truth, Paradigm.JOINT_UTILITARIAN
        ).value
        assert value == pytest.approx(abs(0.3 * tau[0] + 0.7 * tau[1]) / 2.0, rel=1e-12)

    def test_pooled_standard_error_ignores_an_unsampled_groups_variance(self):
        # var_control + var_treated overflows to inf in the unsampled group.
        problem = make_problem((0.5, 0.5), (1.0, 1.0), 200)
        values = [
            expected_regret(
                problem,
                Allocation((0, 100)),
                TruthScenario((0.3, 0.1), (0.0, 0.0), (v, 0.5), (v, 0.5)),
                Paradigm.JOINT_UTILITARIAN,
            ).value
            for v in (1.7e308, 0.5)
        ]
        assert values[0] == values[1] > 0.0

    def test_sign_symmetry(self, covid_cases):
        for case in covid_cases:
            negated = dataclasses.replace(case.truth, tau=tuple(-t for t in case.truth.tau))
            for scheme, counts in REF_EXPECTED_ALLOCATIONS[0.005].items():
                allocation = Allocation(counts)
                for paradigm in Paradigm:
                    direct = expected_regret(case.problem, allocation, case.truth, paradigm).value
                    flipped = expected_regret(case.problem, allocation, negated, paradigm).value
                    assert direct == flipped

    def test_dominance_by_worst_case(self):
        # Expected regret never exceeds the finite worst case of the same
        # paradigm when the truth shares the design variances.
        rng = np.random.default_rng(20240513)
        for _ in range(100):
            G = int(rng.integers(1, 4))
            raw = rng.uniform(0.1, 1.0, size=G)
            weights = raw / raw.sum()
            var_sums = rng.uniform(0.2, 5.0, size=G)
            budget = int(rng.integers(6 * G, 120))
            problem = make_problem(tuple(weights), tuple(var_sums), budget)
            # One pair per group plus a random spread of the remaining pairs.
            spare = (budget - 2 * G) // 2
            extra = rng.multinomial(int(rng.integers(0, spare + 1)), np.ones(G) / G)
            allocation = Allocation(tuple(int(2 + 2 * e) for e in extra))
            scale = np.sqrt(2.0 * var_sums / np.asarray(allocation.counts))
            tau = rng.normal(0.0, 2.0, size=G) * scale
            truth = design_truth(problem, tuple(tau))
            for paradigm in (Paradigm.SEPARATE_UTILITARIAN, Paradigm.SEPARATE_EGALITARIAN):
                bound = worst_case(problem, allocation, paradigm).value
                value = expected_regret(problem, allocation, truth, paradigm).value
                assert value <= bound * (1 + 1e-12)

    def test_dominance_joint_on_proportional(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            budget = 200
            k = int(rng.integers(20, 80))
            problem = make_problem((k / 100.0, 1 - k / 100.0), tuple(rng.uniform(0.2, 5.0, 2)), budget)
            allocation = Allocation((2 * k, budget - 2 * k))
            bound = worst_case(problem, allocation, Paradigm.JOINT_UTILITARIAN).value
            assert math.isfinite(bound)
            scale = math.sqrt(2.0 * sum(h * s for h, s in zip((k / 100, 1 - k / 100), problem.var_sums)) / budget)
            tau_bar = float(rng.normal(0.0, 2.0)) * scale
            truth = design_truth(problem, (tau_bar, tau_bar))
            value = expected_regret(problem, allocation, truth, Paradigm.JOINT_UTILITARIAN).value
            assert value <= bound * (1 + 1e-12)


class TestZeroStandardError:
    """Variances of 1e-320 over 40,000+ units: sqrt(2*S/n) underflows to 0,
    so the sign rule decides on the exact mean."""

    TINY = 1e-320

    def tiny_truth(self, tau):
        return TruthScenario(
            tau=tau,
            baseline=(0.0,) * len(tau),
            var_control=(self.TINY,) * len(tau),
            var_treated=(self.TINY,) * len(tau),
        )

    @pytest.mark.parametrize("tau", [0.3, -0.3, 0.0])
    @pytest.mark.parametrize("paradigm", Paradigm, ids=lambda p: p.name)
    def test_exact_estimate_has_no_regret(self, paradigm, tau):
        problem = DesignProblem(200000, (GroupSpec("a", 1.0, 1.0, 1.0),))
        result = expected_regret(problem, Allocation((200000,)), self.tiny_truth((tau,)), paradigm)
        assert result.value == 0.0

    @pytest.mark.parametrize(
        "tau, regret",
        [
            # aggregate 0.25 > 0, sampling-weighted mean -0.2 < 0: not treated
            ((1.0, -0.5), 0.25),
            # aggregate 0.4 > 0, mean 0.04 >= 0: treated
            ((1.0, -0.2), 0.0),
            # aggregate -0.25 < 0, mean 0.2 >= 0: treated
            ((-1.0, 0.5), 0.25),
            # aggregate -0.25 < 0, mean -0.2 < 0: not treated
            ((-1.0, 0.125), 0.0),
        ],
    )
    def test_pooled_decision_follows_the_exact_sampling_weighted_mean(self, tau, regret):
        problem = make_problem((0.5, 0.5), (1.0, 1.0), 200000)
        allocation = Allocation((40000, 160000))
        result = expected_regret(
            problem, allocation, self.tiny_truth(tau), Paradigm.JOINT_UTILITARIAN
        )
        assert result.value == regret

    def test_unsampled_group_still_contributes_half_tau(self):
        problem = make_problem((0.4, 0.6), (1.0, 1.0), 200000)
        truth = self.tiny_truth((0.5, -0.3))
        result = expected_regret(
            problem, Allocation((0, 200000)), truth, Paradigm.SEPARATE_UTILITARIAN
        )
        assert result.per_group == (0.4 * (0.5 * 0.5), 0.0)

    @pytest.mark.parametrize("paradigm", Paradigm, ids=lambda p: p.name)
    @pytest.mark.parametrize("tau", [(1.0, -0.5), (-1.0, 0.5), (1.0, -0.2)])
    def test_agrees_with_estimator_level_monte_carlo(self, paradigm, tau):
        problem = make_problem((0.5, 0.5), (1.0, 1.0), 200000)
        allocation = Allocation((40000, 160000))
        truth = self.tiny_truth(tau)
        estimate = simulate.monte_carlo_regret(
            problem, allocation, truth, paradigm, simulate.SimConfig(1000, 0), level="estimator"
        )
        assert estimate.mean == expected_regret(problem, allocation, truth, paradigm).value
        assert estimate.std_error == 0.0

    def test_adversarial_profile_round_trip(self):
        problem = DesignProblem(
            200000, (GroupSpec("a", 0.5, self.TINY, self.TINY), GroupSpec("b", 0.5, self.TINY, self.TINY))
        )
        allocation = Allocation((100000, 100000))
        truth = adversarial_tau_separate(problem, allocation)
        assert truth.tau == (0.0, 0.0)
        achieved = expected_regret(problem, allocation, truth, Paradigm.SEPARATE_UTILITARIAN)
        bound = worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN)
        assert achieved.value == bound.value == 0.0


class TestAdversarialSeparate:
    def test_single_group_value(self):
        problem = make_problem((1.0,), (2.0,), 8)
        truth = adversarial_tau_separate(problem, Allocation((8,)))
        assert truth.tau[0] == pytest.approx(ORACLE_ADVERSARIAL_TAU_G1, abs=1e-9)

    def test_symmetric_groups_get_equal_tau(self):
        problem = make_problem((0.5, 0.5), (3.0, 3.0), 40)
        truth = adversarial_tau_separate(problem, Allocation((20, 20)))
        assert truth.tau[0] == truth.tau[1]

    def test_achieves_worst_case_exactly(self, covid_cases):
        problem = covid_cases[0].problem
        allocation = Allocation((6100, 3218))
        truth = adversarial_tau_separate(problem, allocation)
        achieved = expected_regret(problem, allocation, truth, Paradigm.SEPARATE_UTILITARIAN).value
        bound = worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN).value
        assert abs(achieved - bound) <= 1e-10 * bound

    def test_grid_search_finds_no_higher_value(self):
        problem = make_problem((1.0,), (2.0,), 8)
        allocation = Allocation((8,))
        se = math.sqrt(2.0 * 2.0 / 8)
        bound = worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN).value
        adv = adversarial_tau_separate(problem, allocation).tau[0]
        step = 5.0 * se / 2000
        grid = [step * k for k in range(2001)]
        values = [
            expected_regret(
                problem, allocation, design_truth(problem, (t,)), Paradigm.SEPARATE_UTILITARIAN
            ).value
            for t in grid
        ]
        best = max(range(len(grid)), key=values.__getitem__)
        assert values[best] <= bound * (1 + 1e-12)
        assert abs(grid[best] - adv) <= step

    def test_rejects_unsampled_groups(self, covid_cases):
        with pytest.raises(ValidationError):
            adversarial_tau_separate(covid_cases[0].problem, Allocation((9320, 0)))


class TestJointAdversarial:
    @pytest.mark.parametrize(
        "t_dagger", ["x", None, math.nan, math.inf, pytest.param(10**400, id="10**400"), True],
        ids=repr,
    )
    @pytest.mark.parametrize("function", [joint_adversarial_tau, joint_regret_expression])
    def test_t_dagger_must_be_a_finite_real(self, function, t_dagger):
        problem = make_problem((0.5, 0.5), (2.0, 2.0), 80)
        with pytest.raises(ValidationError, match="t_dagger must be a finite real number"):
            function(problem, Allocation((40, 40)), t_dagger)

    def test_single_group_collapse(self):
        problem = make_problem((1.0,), (3.0,), 50)
        allocation = Allocation((50,))
        for t_dagger in (-1.5, 0.3, 0.7517915246939992, 2.0):
            truth = joint_adversarial_tau(problem, allocation, t_dagger)
            assert truth.tau[0] == pytest.approx(
                t_dagger * math.sqrt(2.0 * 3.0 / 50), rel=1e-12
            )

    def test_symmetric_groups_get_equal_tau(self):
        problem = make_problem((0.5, 0.5), (2.0, 2.0), 80)
        truth = joint_adversarial_tau(problem, Allocation((40, 40)), 1.3)
        assert truth.tau[0] == pytest.approx(truth.tau[1], rel=1e-12)

    def test_stationarity_conditions(self):
        problem = make_problem((0.3, 0.5, 0.2), (1.0, 2.0, 4.0), 120)
        allocation = Allocation((40, 50, 30))
        h = [n / allocation.total for n in allocation.counts]
        for t_dagger in (-0.8, 0.4, 1.1):
            truth = joint_adversarial_tau(problem, allocation, t_dagger)
            scale = math.sqrt(
                2.0 * sum(hg * hg * s for hg, s in zip(h, problem.var_sums))
            )
            multipliers = [
                tau * hg * math.sqrt(allocation.total) / scale
                for tau, hg in zip(truth.tau, h)
            ]
            # The standardized multipliers sum back to t_dagger ...
            assert sum(multipliers) == pytest.approx(t_dagger, rel=1e-10, abs=1e-12)
            # ... and every group implies the same Lagrange value.
            lagrange = [
                m * w * normal_pdf(t_dagger) - w * normal_sf(t_dagger)
                for m, w in zip(multipliers, problem.weights)
            ]
            assert max(lagrange) - min(lagrange) <= 1e-10 * max(1.0, abs(lagrange[0]))

    def test_matched_fractions_achieve_joint_worst_case(self):
        problem = make_problem((0.3, 0.7), (1.0, 2.5), 200)
        allocation = Allocation((60, 140))
        h = [0.3, 0.7]
        ratio = math.sqrt(
            sum(hg * hg * s for hg, s in zip(h, problem.var_sums))
            / sum(hg * s for hg, s in zip(h, problem.var_sums))
        )
        t_star = threshold_constants().t_star
        truth = joint_adversarial_tau(problem, allocation, t_star / ratio)
        achieved = expected_regret(problem, allocation, truth, Paradigm.JOINT_UTILITARIAN).value
        bound = worst_case(problem, allocation, Paradigm.JOINT_UTILITARIAN).value
        assert achieved == pytest.approx(bound, rel=1e-6)

    @pytest.mark.parametrize("t_dagger", [-37.6, -38.0, -38.55])
    def test_profile_beyond_float_range_is_a_validation_error(self, covid_cases, t_dagger):
        # Phi_c/phi overflows here (or phi * w_g underflows) before phi itself is 0.
        with pytest.raises(ValidationError, match="underflows"):
            joint_adversarial_tau(covid_cases[0].problem, Allocation((6100, 3218)), t_dagger)

    def test_rejects_nonfinite_t(self):
        problem = make_problem((1.0,), (1.0,), 10)
        with pytest.raises(ValidationError):
            joint_adversarial_tau(problem, Allocation((10,)), math.inf)


class TestAdversarialProfilesAreScenarios:
    """The adversarial profiles are built without the constructor's coercion;
    they must still be the scenario the constructor would build."""

    @pytest.mark.parametrize("kind", [int, float, np.float64], ids=lambda k: k.__name__)
    def test_equal_to_a_constructed_scenario(self, kind):
        groups = tuple(
            GroupSpec(f"g{g}", w, kind(c), kind(t))
            for g, (w, c, t) in enumerate(((0.3, 1, 2), (0.5, 3, 1), (0.2, 2, 5)))
        )
        problem = DesignProblem(budget=121, groups=groups)
        allocation = Allocation((40, 50, 30))
        profiles = [adversarial_tau_separate(problem, allocation)] + [
            joint_adversarial_tau(problem, allocation, t) for t in (1.3, -2, np.float64(0.4))
        ]
        for truth in profiles:
            reference = TruthScenario(
                tau=truth.tau,
                baseline=(0,) * 3,
                var_control=tuple(g.var_control for g in groups),
                var_treated=tuple(g.var_treated for g in groups),
            )
            assert truth == reference
            assert hash(truth) == hash(reference)
            assert repr(truth) == repr(reference)
            for values in (truth.tau, truth.baseline, truth.var_control, truth.var_treated):
                assert type(values) is tuple
                assert [type(v) for v in values] == [float] * 3

    def test_overflowed_profile_is_rejected_when_used(self):
        problem = DesignProblem(budget=4, groups=(GroupSpec("g0", 1.0, 1e308, 1e308),))
        allocation = Allocation((4,))
        truth = adversarial_tau_separate(problem, allocation)
        for _ in range(2):
            with pytest.raises(ValidationError, match="tau must be finite"):
                expected_regret(problem, allocation, truth, Paradigm.SEPARATE_UTILITARIAN)


class TestJointRegretExpression:
    def test_matched_fractions_supremum(self):
        problem = make_problem((0.3, 0.7), (1.0, 2.5), 200)
        allocation = Allocation((60, 140))
        bound = worst_case(problem, allocation, Paradigm.JOINT_UTILITARIAN).value
        t_star = threshold_constants().t_star
        assert joint_regret_expression(problem, allocation, t_star) == pytest.approx(
            bound, rel=1e-12
        )
        grid = [-10.0 + 0.01 * k for k in range(2001)]
        assert max(
            joint_regret_expression(problem, allocation, t) for t in grid
        ) <= bound * (1 + 1e-9)

    def test_mismatch_diverges_in_left_tail(self, covid_cases):
        problem = covid_cases[0].problem
        allocation = Allocation((6100, 3218))
        assert joint_mismatch(problem, allocation) > 0.0
        at_tail = joint_regret_expression(problem, allocation, -8.0)
        at_center = joint_regret_expression(problem, allocation, 0.0)
        assert at_tail >= 10.0 * at_center

    def test_symmetric_instance_at_t_star(self):
        problem = make_problem((0.5, 0.5), (2.0, 2.0), 100)
        allocation = Allocation((50, 50))
        constants = threshold_constants()
        scale = math.sqrt(2.0 * 2.0 / 100)
        value = joint_regret_expression(problem, allocation, constants.t_star)
        assert value == pytest.approx(scale * constants.c0, rel=1e-12)

    def test_density_underflow_handled(self, covid_cases):
        # Far enough left that the normal density is exactly zero in floats.
        problem = covid_cases[0].problem
        mismatched = Allocation((6100, 3218))
        assert joint_regret_expression(problem, mismatched, -40.0) == math.inf
        proportional = Allocation((7734, 1584))
        assert math.isfinite(joint_regret_expression(problem, proportional, 2.0))
        with pytest.raises(ValidationError, match="underflow"):
            joint_adversarial_tau(problem, mismatched, -40.0)

    @staticmethod
    def mismatched_instance():
        problem = make_problem((0.3, 0.7), (2.0, 4.0), 100)
        allocation = Allocation((50, 50))
        assert joint_mismatch(problem, allocation) == pytest.approx(0.32, rel=1e-12)
        return problem, allocation

    @pytest.mark.parametrize("t_dagger", [38.5, 39.0, 40.0, 100.0, 1e300])
    def test_right_tail_tends_to_zero_past_density_underflow(self, t_dagger):
        problem, allocation = self.mismatched_instance()
        assert joint_regret_expression(problem, allocation, t_dagger) == 0.0

    @pytest.mark.parametrize("t_dagger", [-38.0, -1e300])
    def test_left_tail_stays_infinite(self, t_dagger):
        problem, allocation = self.mismatched_instance()
        assert joint_regret_expression(problem, allocation, t_dagger) == math.inf

    @pytest.mark.parametrize("t_dagger", [np.float32(0.4), np.float64(0.4)], ids=["f32", "f64"])
    def test_numpy_t_dagger_gives_a_python_float(self, t_dagger):
        problem, allocation = self.mismatched_instance()
        value = joint_regret_expression(problem, allocation, t_dagger)
        assert type(value) is float
        assert value == joint_regret_expression(problem, allocation, float(t_dagger))


class TestDispatch:
    def test_worst_case_dispatch_matches(self, covid_cases):
        # Each paradigm gets its own formula from the module docstring.
        problem = covid_cases[0].problem
        allocation = Allocation((7734, 1584))
        c0, total = threshold_constants().c0, allocation.total
        se = [math.sqrt(2 * s / n) for s, n in zip(problem.var_sums, allocation.counts)]
        h = [n / total for n in allocation.counts]
        factor = sum(1 / x for x in h) / sum(1 / w for w in problem.weights)
        pooled_se = math.sqrt(2 * sum(x * s for x, s in zip(h, problem.var_sums)) / total)
        expected = {
            Paradigm.SEPARATE_UTILITARIAN: c0 * sum(w * e for w, e in zip(problem.weights, se)),
            Paradigm.JOINT_UTILITARIAN: factor * c0 * pooled_se,
            Paradigm.SEPARATE_EGALITARIAN: c0 * max(se),
        }
        for paradigm, value in expected.items():
            summary = worst_case(problem, allocation, paradigm)
            assert summary.value == pytest.approx(value, rel=1e-12)


class TestWrongTypedArguments:
    """An argument of the wrong type raises ValidationError naming it, not an
    AttributeError from deep inside a kernel."""

    PROBLEM = make_problem((0.5, 0.5), (2.0, 2.0), 100)
    ALLOCATION = Allocation((50, 50))

    @pytest.mark.parametrize(
        "call, match",
        [
            (
                lambda p, a: worst_case(p, (50, 50), Paradigm.SEPARATE_UTILITARIAN),
                "allocation must be an Allocation",
            ),
            (
                lambda p, a: worst_case(None, a, Paradigm.SEPARATE_UTILITARIAN),
                "problem must be a DesignProblem",
            ),
            (
                lambda p, a: expected_regret(p, a, None, Paradigm.SEPARATE_UTILITARIAN),
                "truth must be a TruthScenario",
            ),
            (
                lambda p, a: allocate(p, "minimax", redistribute="no"),
                "redistribute must be a bool, got 'no'",
            ),
            (
                lambda p, a: allocate(p, "neyman", redistribute=np.array([1.0, 2.0])),
                "redistribute must be a bool",
            ),
            (
                lambda p, a: minimax_allocation(p, redistribute=1),
                "redistribute must be a bool, got 1",
            ),
            (
                lambda p, a: simulate.monte_carlo_regret(
                    p, a, design_truth(p, (0.1, 0.1)), Paradigm.SEPARATE_UTILITARIAN,
                    simulate.SimConfig(100, 0), level=np.array([1, 2]),
                ),
                "unknown simulation level",
            ),
            (
                lambda p, a: sampling_fractions(Allocation((0, 0))),
                "pooled quantities need at least one sampled participant",
            ),
        ],
        ids=[
            "tuple-allocation", "none-problem", "none-truth", "redistribute-str",
            "redistribute-array", "redistribute-int", "level-array", "nothing-sampled",
        ],
    )
    def test_raises_validation_error_naming_the_argument(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call(self.PROBLEM, self.ALLOCATION)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda p: sampling_fractions((50, 50)), "allocation must be an Allocation"),
            (lambda p: shares(None, "minimax"), "problem must be a DesignProblem, got None"),
            (
                lambda p: simulate.monte_carlo_regret(
                    p, (50, 50), design_truth(p, (0.1, 0.1)), Paradigm.SEPARATE_UTILITARIAN,
                    simulate.SimConfig(10, 0),
                ),
                "allocation must be an Allocation, got \\(50, 50\\)",
            ),
            (
                lambda p: simulate.monte_carlo_regret(
                    p, Allocation((50, 50)), None, Paradigm.SEPARATE_UTILITARIAN,
                    simulate.SimConfig(10, 0),
                ),
                "truth must be a TruthScenario, got None",
            ),
            (
                lambda p: simulate.realized_regret(None, p, (1, 0), Paradigm.SEPARATE_UTILITARIAN),
                "truth must be a TruthScenario, got None",
            ),
            (
                lambda p: simulate.realized_regret(
                    design_truth(p, (0.1, 0.1)), None, (1, 0), Paradigm.SEPARATE_UTILITARIAN
                ),
                "problem must be a DesignProblem, got None",
            ),
        ],
        ids=["sampling_fractions", "shares", "monte_carlo_allocation", "monte_carlo_truth",
             "realized_regret_truth", "realized_regret_problem"],
    )
    def test_entry_points_check_the_type_before_reading_an_attribute(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call(self.PROBLEM)
