"""Closed-form worst-case and expected regret, adversarial scenarios."""

import dataclasses
import itertools
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
    KAPPA_TOL,
    adversarial_tau_separate,
    expected_regret,
    joint_mismatch,
    sampling_fractions,
    worst_case,
)
from regretalloc.stats import threshold_constants
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

    def test_equal_weights_do_not_make_every_allocation_finite(self):
        # K is 0 for every allocation under equal weights, yet an adversary
        # with tau = (A, -4A) gets 0.75 * A from (80, 20): no bound exists.
        problem = make_problem((0.5, 0.5), (2.0, 2.0), 100)
        allocation = Allocation((80, 20))
        assert joint_mismatch(problem, allocation) == 0.0
        truth = design_truth(problem, (100.0, -400.0))
        assert expected_regret(problem, allocation, truth, Paradigm.JOINT_UTILITARIAN).value == 75.0
        assert worst_case(problem, allocation, Paradigm.JOINT_UTILITARIAN).value == math.inf

    def test_a_near_zero_mismatch_statistic_is_not_a_match(self):
        # |K| is 9.1e-5 of sum_g w_g/h_g, but the fractions are far from the
        # weights: tau = A * (h_2, -h_1, 0) gets 0.155 * A.
        problem = make_problem((0.5, 0.3, 0.2), (2.0, 2.0, 2.0), 10**6)
        allocation = Allocation((188000, 732000, 80000))
        h = sampling_fractions(allocation)
        scale = sum(w / x for w, x in zip(problem.weights, h))
        assert abs(joint_mismatch(problem, allocation)) < 1e-4 * scale
        truth = design_truth(problem, (100.0 * h[1], -100.0 * h[0], 0.0))
        regret = expected_regret(problem, allocation, truth, Paradigm.JOINT_UTILITARIAN).value
        assert regret == pytest.approx(15.48, rel=1e-9)
        assert worst_case(problem, allocation, Paradigm.JOINT_UTILITARIAN).value == math.inf

    @pytest.mark.parametrize("groups, budget", [(2, 40), (3, 24)])
    def test_equal_weights_are_finite_only_at_equal_counts(self, groups, budget):
        problem = make_problem((1.0 / groups,) * groups, (2.0,) * groups, budget)
        evens = range(0, budget + 1, 2)
        for counts in itertools.product(evens, repeat=groups):
            if sum(counts) > budget:
                continue
            value = worst_case(problem, Allocation(counts), Paradigm.JOINT_UTILITARIAN).value
            assert math.isfinite(value) == (counts[0] > 0 and len(set(counts)) == 1), counts

    @pytest.mark.parametrize("redistribute", [False, True], ids=["plain", "redistribute"])
    @pytest.mark.parametrize("scheme", ["minimax", "proportional", "egalitarian", "neyman"])
    @pytest.mark.parametrize("case", [0, 1], ids=["beta=0.005", "beta=0.025"])
    def test_bundled_cells_are_finite_only_for_plain_proportional(
        self, covid_cases, case, scheme, redistribute
    ):
        # Plain proportional misses its weights by 3.8e-5, relative, and the
        # pair redistribution adds to group 1 makes that 2.5e-4; the other
        # schemes miss by 0.6 to 3.6.  Each is far from the boundary.
        problem = covid_cases[case].problem
        allocation = allocate(problem, scheme, redistribute=redistribute)
        h = sampling_fractions(allocation)
        miss = max(abs(x / w - 1.0) for x, w in zip(h, problem.weights))
        finite = scheme == "proportional" and not redistribute
        assert miss < KAPPA_TOL / 2 if finite else miss > 2 * KAPPA_TOL
        value = worst_case(problem, allocation, Paradigm.JOINT_UTILITARIAN).value
        assert math.isfinite(value) == finite

    @pytest.mark.parametrize(
        "weights, counts, matched, finite",
        [
            ((0.5, 0.5), (1000098, 999902), (10**6, 10**6), True),
            ((0.5, 0.5), (1000102, 999898), (10**6, 10**6), False),
            ((0.5, 0.3, 0.2), (999962, 600000, 400038), (10**6, 600000, 400000), True),
            ((0.5, 0.3, 0.2), (999958, 600000, 400042), (10**6, 600000, 400000), False),
        ],
        ids=["2-groups-inside", "2-groups-outside", "3-groups-inside", "3-groups-outside"],
    )
    def test_fractions_match_within_kappa_tol_relative_to_the_weight(
        self, weights, counts, matched, finite
    ):
        # The largest miss is 9.5e-5 or 9.8e-5 inside, 1.02e-4 or 1.05e-4
        # outside; inside, Hj is within that order of the exactly matched Hj.
        problem = make_problem(weights, (2.0,) * len(weights), 2 * 10**6)
        value = worst_case(problem, Allocation(counts), Paradigm.JOINT_UTILITARIAN).value
        if finite:
            exact = worst_case(problem, Allocation(matched), Paradigm.JOINT_UTILITARIAN).value
            assert value == pytest.approx(exact, rel=1e-3)
        else:
            assert value == math.inf

    @pytest.mark.parametrize("groups", [2, 3, 6])
    def test_identical_groups_pool_to_one_over_root_g(self, groups):
        # G copies of one group at equal counts: H and He are one group's
        # c0 * se, and the pooled standard error is se / sqrt(G).
        problem = make_problem((1.0 / groups,) * groups, (2.0,) * groups, 60 * groups)
        allocation = Allocation((60,) * groups)
        separate, joint, egalitarian = (
            worst_case(problem, allocation, paradigm).value for paradigm in Paradigm
        )
        assert egalitarian == pytest.approx(separate, rel=1e-15)
        assert joint == pytest.approx(separate / math.sqrt(groups), rel=1e-15)

    def test_sub_budget_proportional_is_finite_but_larger(self):
        problem = make_problem((0.3, 0.7), (1.0, 2.0), 200)
        full = worst_case(problem, Allocation((60, 140)), Paradigm.JOINT_UTILITARIAN).value
        half = worst_case(problem, Allocation((30, 70)), Paradigm.JOINT_UTILITARIAN).value
        assert math.isfinite(half)
        assert half == pytest.approx(full * math.sqrt(2.0), rel=1e-12)


class TestSingleGroup:
    """With one group the sampling fraction is its weight, 1, so the pooled
    decision is the group's own: the three paradigms agree on the worst case
    and on the expected regret."""

    @pytest.mark.parametrize(
        "var_sum, count",
        [(2.0, 8), (2e-300, 2), (1e308, 2), (2.0, 0)],
        ids=["ordinary", "tiny-variance", "variance-near-float-max", "unsampled"],
    )
    def test_the_paradigms_coincide(self, var_sum, count):
        problem = make_problem((1.0,), (var_sum,), 8)
        allocation = Allocation((count,))
        truth = design_truth(problem, (-0.5,))
        worst = [worst_case(problem, allocation, paradigm).value for paradigm in Paradigm]
        expected = [
            expected_regret(problem, allocation, truth, paradigm).value for paradigm in Paradigm
        ]
        assert worst[1] == pytest.approx(worst[0], rel=1e-15) and worst[2] == worst[0]
        assert expected[1] == pytest.approx(expected[0], rel=1e-15)
        assert expected[2] == expected[0]


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


class TestAdversarialProfilesAreScenarios:
    """The adversarial profile is built without the constructor's coercion;
    it must still be the scenario the constructor would build."""

    @pytest.mark.parametrize("kind", [int, float, np.float64], ids=lambda k: k.__name__)
    def test_equal_to_a_constructed_scenario(self, kind):
        groups = tuple(
            GroupSpec(f"g{g}", w, kind(c), kind(t))
            for g, (w, c, t) in enumerate(((0.3, 1, 2), (0.5, 3, 1), (0.2, 2, 5)))
        )
        problem = DesignProblem(budget=121, groups=groups)
        truth = adversarial_tau_separate(problem, Allocation((40, 50, 30)))
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
