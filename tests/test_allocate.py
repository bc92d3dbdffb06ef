"""Allocation schemes: closed-form shares, even-floor rounding, invariants."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretalloc.allocate import (
    ContinuousAllocation,
    DegenerateAllocationWarning,
    allocate,
    continuous_egalitarian,
    continuous_minimax,
    continuous_neyman,
    continuous_proportional,
    egalitarian_allocation,
    minimax_allocation,
    neyman_allocation,
    proportional_allocation,
    round_to_even_floor,
)
from regretalloc.allocate import _EVEN_SNAP, _SNAP_CAP, _floor_even
from regretalloc.model import (
    Allocation,
    DesignProblem,
    GroupSpec,
    Paradigm,
    ValidationError,
    check_allocation,
)
from regretalloc.regret import paradigm_rule, worst_case_separate, worst_case_terms
from regretalloc.stats import threshold_constants
from reference_values import ORACLE_MINIMAX_SHARES_CASE1, ORACLE_NEYMAN_ALLOCATION, REF_ALLOCATIONS


def make_problem(weights, var_sums, budget):
    """Problem with the given per-group contrast variances, split evenly
    across arms."""
    groups = tuple(
        GroupSpec(label=f"g{i}", weight=w, var_control=s / 2.0, var_treated=s / 2.0)
        for i, (w, s) in enumerate(zip(weights, var_sums))
    )
    return DesignProblem(budget=budget, groups=groups)


def random_problems():
    """Hypothesis strategy for small valid problems (2-4 groups)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=4))
        raw = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=n, max_size=n,
            )
        )
        total = sum(raw)
        weights = [r / total for r in raw]
        weights[-1] = 1.0 - sum(weights[:-1])
        var_sums = draw(
            st.lists(
                st.floats(min_value=0.1, max_value=10.0),
                min_size=n, max_size=n,
            )
        )
        budget = draw(st.integers(min_value=4 * n, max_value=400))
        return make_problem(weights, var_sums, budget)

    return build()


class TestContinuousShares:
    def test_minimax_symmetric(self):
        problem = make_problem((0.5, 0.5), (2.0, 2.0), 100)
        assert continuous_minimax(problem).shares == pytest.approx((50.0, 50.0))

    def test_minimax_case_study_shares(self, covid_cases):
        shares = continuous_minimax(covid_cases[0].problem).shares
        assert shares == pytest.approx(ORACLE_MINIMAX_SHARES_CASE1, rel=1e-8)

    def test_minimax_equal_variances_reduces_to_weight_power(self):
        problem = make_problem((0.83, 0.17), (1.0, 1.0), 9320)
        shares = continuous_minimax(problem).shares
        assert shares[0] / shares[1] == pytest.approx((0.83 / 0.17) ** (2.0 / 3.0), rel=1e-12)

    def test_shares_exhaust_budget(self, covid_cases):
        for builder in (
            continuous_minimax,
            continuous_proportional,
            continuous_egalitarian,
            continuous_neyman,
        ):
            shares = builder(covid_cases[0].problem)
            assert shares.total == pytest.approx(9320.0, rel=1e-12)
            assert all(s > 0 for s in shares.shares)

    def test_scale_invariance_of_shapes(self):
        base = make_problem((0.3, 0.7), (1.0, 3.0), 200)
        scaled = make_problem((0.3, 0.7), (7.0, 21.0), 200)
        for builder in (
            continuous_minimax,
            continuous_proportional,
            continuous_egalitarian,
            continuous_neyman,
        ):
            assert builder(base).shares == pytest.approx(builder(scaled).shares, rel=1e-12)

    def test_permutation_equivariance(self):
        forward = make_problem((0.2, 0.3, 0.5), (1.0, 4.0, 2.0), 120)
        backward = make_problem((0.5, 0.3, 0.2), (2.0, 4.0, 1.0), 120)
        for builder, scheme in (
            (continuous_minimax, minimax_allocation),
            (continuous_proportional, proportional_allocation),
            (continuous_egalitarian, egalitarian_allocation),
            (continuous_neyman, neyman_allocation),
        ):
            assert builder(forward).shares == pytest.approx(builder(backward).shares[::-1])
            assert scheme(forward).counts == scheme(backward).counts[::-1]

    def test_minimax_minimizes_on_fine_grid(self):
        # G=2 oracle: the continuous shares minimize the separate worst case
        # over a fine grid of feasible splits.
        problem = make_problem((0.3, 0.7), (4.0, 1.0), 100)
        c0 = threshold_constants().c0
        n = problem.budget

        def objective(x):
            return c0 * (
                0.3 * math.sqrt(2.0 * 4.0 / x) + 0.7 * math.sqrt(2.0 * 1.0 / (n - x))
            )

        step = 1e-3 * n
        grid = [step * k for k in range(1, 1000)]
        best = min(grid, key=objective)
        share = continuous_minimax(problem).shares[0]
        assert abs(best - share) <= step

    def test_egalitarian_balances_group_noise(self):
        problem = make_problem((0.2, 0.5, 0.3), (1.0, 5.0, 2.5), 170)
        shares = continuous_egalitarian(problem).shares
        levels = [math.sqrt(2.0 * s / x) for s, x in zip(problem.var_sums, shares)]
        assert max(levels) - min(levels) <= 1e-12 * max(levels)


class TestRoundToEvenFloor:
    def test_plain_flooring(self):
        assert round_to_even_floor(ContinuousAllocation((5.9, 4.1))).counts == (4, 4)

    def test_exact_even_is_fixed_point(self):
        assert round_to_even_floor(ContinuousAllocation((6.0, 4.0))).counts == (6, 4)

    def test_case_study_scale(self):
        assert round_to_even_floor(ContinuousAllocation((6099.0, 3221.0))).counts == (6098, 3220)

    def test_float_noise_near_even_snaps(self):
        assert round_to_even_floor(ContinuousAllocation((40.0 - 1e-12, 12.0 + 1e-12))).counts == (40, 12)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=6))
    def test_bracket_property(self, shares):
        counts = round_to_even_floor(ContinuousAllocation(tuple(shares))).counts
        for share, n in zip(shares, counts):
            assert n % 2 == 0
            assert share - 2.0 < n <= share + 1e-6 * max(1.0, share)


class TestAllocators:
    def test_minimax_case_study(self, covid_cases):
        for case, expected in zip(covid_cases, (REF_ALLOCATIONS[0.005], REF_ALLOCATIONS[0.025])):
            counts = minimax_allocation(case.problem).counts
            assert all(abs(c - e) <= 4 for c, e in zip(counts, expected["minimax"]))

    def test_minimax_exact_symmetric_divisible(self):
        problem = make_problem((0.25,) * 4, (1.0,) * 4, 80)
        assert minimax_allocation(problem).counts == (20, 20, 20, 20)

    def test_minimax_hand_instance(self):
        # shares = (16.2446, 3.7554) -> even floor (16, 2)
        problem = make_problem((0.9, 0.1), (2.0, 2.0), 20)
        assert minimax_allocation(problem).counts == (16, 2)

    def test_proportional_case_study(self, covid_cases):
        for case in covid_cases:
            assert proportional_allocation(case.problem).counts == (7734, 1584)

    def test_proportional_even_weights(self):
        assert proportional_allocation(make_problem((0.5, 0.5), (1.0, 1.0), 100)).counts == (50, 50)

    def test_proportional_exact_divisibility(self):
        problem = make_problem((1 / 3, 1 / 3, 1 / 3), (1.0, 1.0, 1.0), 12)
        assert proportional_allocation(problem).counts == (4, 4, 4)

    def test_egalitarian_case_study(self, covid_cases):
        for case, expected in zip(covid_cases, (REF_ALLOCATIONS[0.005], REF_ALLOCATIONS[0.025])):
            counts = egalitarian_allocation(case.problem).counts
            assert all(abs(c - e) <= 4 for c, e in zip(counts, expected["egalitarian"]))

    def test_egalitarian_equal_variances_splits_evenly(self):
        problem = make_problem((0.7, 0.2, 0.1), (3.0, 3.0, 3.0), 90)
        assert egalitarian_allocation(problem).counts == (30, 30, 30)

    def test_egalitarian_hand_instance(self):
        problem = make_problem((0.5, 0.5), (1.0, 3.0), 80)
        assert egalitarian_allocation(problem).counts == (20, 60)

    def test_neyman_std_ratio(self):
        problem = make_problem((0.5, 0.5), (1.0, 4.0), 60)
        assert neyman_allocation(problem).counts == (20, 40)

    def test_neyman_symmetric(self):
        problem = make_problem((0.5, 0.5), (2.0, 2.0), 100)
        assert neyman_allocation(problem).counts == (50, 50)

    def test_neyman_case_study(self, covid_cases):
        for case, expected in zip(
            covid_cases, (ORACLE_NEYMAN_ALLOCATION[0.005], ORACLE_NEYMAN_ALLOCATION[0.025])
        ):
            assert neyman_allocation(case.problem).counts == expected

    def test_dispatch_rejects_unknown_scheme(self, covid_cases):
        with pytest.raises(ValidationError, match="unknown allocation scheme"):
            allocate(covid_cases[0].problem, "quantile")

    @given(random_problems())
    def test_all_outputs_even_within_budget_and_bracketed(self, problem):
        for builder, scheme in (
            (continuous_minimax, minimax_allocation),
            (continuous_proportional, proportional_allocation),
            (continuous_egalitarian, egalitarian_allocation),
            (continuous_neyman, neyman_allocation),
        ):
            shares = builder(problem).shares
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateAllocationWarning)
                counts = scheme(problem).counts
            assert sum(counts) <= problem.budget
            for share, n in zip(shares, counts):
                assert n % 2 == 0
                assert share - 2.0 < n <= share + 1e-6 * max(1.0, share)

    def test_zero_count_emits_warning(self):
        problem = make_problem((0.97, 0.03), (1.0, 1.0), 20)
        with pytest.warns(DegenerateAllocationWarning):
            proportional_allocation(problem)


class TestRedistribution:
    def test_minimax_redistribute_uses_full_budget(self, covid_cases):
        problem = covid_cases[0].problem
        floored = minimax_allocation(problem)
        topped = minimax_allocation(problem, redistribute=True)
        assert topped.total == 9320
        assert all(n % 2 == 0 for n in topped.counts)
        assert all(t >= f for t, f in zip(topped.counts, floored.counts))
        assert (
            worst_case_separate(problem, topped).value
            <= worst_case_separate(problem, floored).value
        )

    def test_proportional_redistribute_largest_remainder(self, covid_cases):
        # Continuous shares (7735.6, 1584.4): leftover pair goes to group 1.
        assert proportional_allocation(
            covid_cases[0].problem, redistribute=True
        ).counts == (7736, 1584)

    def test_redistribute_leaves_less_than_a_pair(self):
        problem = make_problem((0.41, 0.33, 0.26), (1.0, 2.0, 3.0), 101)
        for scheme in (minimax_allocation, egalitarian_allocation, neyman_allocation):
            allocation = scheme(problem, redistribute=True)
            assert problem.budget - allocation.total < 2


def full_rebuild_greedy(problem, counts, target):
    """Reference greedy: rebuilds every group's worst-case term for each
    candidate of each leftover pair, as the allocator once did."""
    rule = paradigm_rule(target)
    weights, var_sums = rule.group_weights(problem), problem.var_sums

    def objective(c):
        return rule.combine(worst_case_terms(weights, var_sums, c))

    counts = list(counts)
    leftover = problem.budget - sum(counts)
    while leftover >= 2:
        best_g, best_val = None, objective(counts)
        for g in range(len(counts)):
            counts[g] += 2
            val = objective(counts)
            counts[g] -= 2
            if val < best_val:
                best_g, best_val = g, val
        if best_g is None:
            empty = [g for g, n in enumerate(counts) if n == 0]
            candidates = empty if empty else range(len(counts))
            best_g = max(candidates, key=lambda g: problem.groups[g].weight)
        counts[best_g] += 2
        leftover -= 2
    return tuple(counts)


GREEDY_TARGETS = {
    "minimax": Paradigm.SEPARATE_UTILITARIAN,
    "egalitarian": Paradigm.SEPARATE_EGALITARIAN,
}


def greedy_matches_full_rebuild(problem, scheme):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAllocationWarning)
        floored = allocate(problem, scheme).counts
        redistributed = allocate(problem, scheme, redistribute=True).counts
    expected = full_rebuild_greedy(problem, floored, GREEDY_TARGETS[scheme])
    assert redistributed == expected
    return redistributed


@st.composite
def greedy_problems(draw):
    """G from 1 to 12, budgets from 2G to 1e7 (odd ones too), and weights
    down to 1e-6, so that some groups floor to zero."""
    n = draw(st.integers(min_value=1, max_value=12))
    raw = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n))
    weights = [r / sum(raw) for r in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    var_sums = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=n, max_size=n))
    budget = draw(st.integers(min_value=2 * n, max_value=10**7))
    return make_problem(weights, var_sums, budget)


class TestGreedyEquivalence:
    """One term update per candidate picks what a full rebuild picks."""

    @settings(max_examples=200)
    @given(greedy_problems(), st.sampled_from(sorted(GREEDY_TARGETS)))
    def test_matches_the_full_rebuild(self, problem, scheme):
        greedy_matches_full_rebuild(problem, scheme)

    @pytest.mark.parametrize(
        "weights, var_sums, budget, expected",
        [
            # Two unsampled groups keep He infinite: the empty group of
            # larger weight gets the pair.
            ((0.2, 0.5, 0.3), (100.0, 0.01, 0.01), 6, (4, 2, 0)),
            # A max shared by both groups: no single pair lowers it, so the
            # larger-weight group gets the pair.
            ((0.4, 0.6), (1.0, 1.0), 6, (2, 4)),
        ],
        ids=["unsampled-groups", "shared-max"],
    )
    def test_flat_objective_fallback(self, weights, var_sums, budget, expected):
        problem = make_problem(weights, var_sums, budget)
        assert greedy_matches_full_rebuild(problem, "egalitarian") == expected


SCHEMES = ("minimax", "proportional", "egalitarian", "neyman")


class TestLargeBudgets:
    @pytest.mark.parametrize("redistribute", [False, True])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_billion_scale_shares_do_not_round_up(self, scheme, redistribute):
        # Shares of 500000001.5 each once snapped up to 500000002, one unit
        # past the share, for a total of 1000000004 over a 1000000003 budget.
        problem = make_problem((0.5, 0.5), (1.0, 1.0), 1_000_000_003)
        counts = allocate(problem, scheme, redistribute=redistribute).counts
        check_allocation(problem, Allocation(counts))
        assert sum(counts) == (1_000_000_002 if redistribute else 1_000_000_000)

    @given(random_problems(), st.integers(min_value=8, max_value=2**53), st.booleans())
    def test_within_budget_or_validation_error(self, problem, budget, redistribute):
        problem = DesignProblem(budget=budget, groups=problem.groups)
        for scheme in SCHEMES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateAllocationWarning)
                try:
                    allocation = allocate(problem, scheme, redistribute=redistribute)
                except ValidationError:
                    continue
            check_allocation(problem, allocation)


def reference_floor_even(x):
    """The even floor as it was before it took one pass: the nearest even
    integer when ``x`` is within the snap tolerance of it, else 2*floor(x/2)."""
    nearest = 2 * round(x / 2.0)
    if abs(x - nearest) <= min(_EVEN_SNAP * max(1.0, abs(x)), _SNAP_CAP):
        return int(nearest)
    return 2 * math.floor(x / 2.0)


# Shares within 1e-12 to 1e-5 of an even integer, on either side, straddle
# the snap tolerance; the rest run up to 2**53.
NEAR_EVEN = st.builds(
    lambda k, offset, sign: 2.0 * k + sign * offset,
    st.integers(min_value=0, max_value=2**52),
    st.floats(min_value=1e-12, max_value=1e-5),
    st.sampled_from([-1.0, 1.0]),
)
SHARES = st.one_of(
    NEAR_EVEN,
    st.floats(min_value=0.0, max_value=2.0**53),
    st.integers(min_value=0, max_value=2**53).map(float),
)


class TestBuiltOnce:
    """The allocators build their result without re-checking it; it must be
    the allocation the checking constructor would build."""

    @settings(max_examples=1000)
    @given(st.one_of(SHARES, st.floats(min_value=-1e6, max_value=0.0)))
    def test_floor_even_matches_the_reference(self, x):
        assert _floor_even(x) == reference_floor_even(x)
        assert type(_floor_even(x)) is int

    @pytest.mark.parametrize("x", [2.0 - 1e-12, 1e9 - 5e-7, 1e9 - 2e-6, 2.0**53 - 2.0, 0.0])
    def test_floor_even_at_the_snap_edges(self, x):
        assert _floor_even(x) == reference_floor_even(x)

    @settings(max_examples=100)
    @given(greedy_problems())
    def test_result_equals_a_checked_allocation(self, problem):
        for scheme in SCHEMES:
            for redistribute in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateAllocationWarning)
                    allocation = allocate(problem, scheme, redistribute=redistribute)
                checked = Allocation(allocation.counts)
                assert allocation == checked and hash(allocation) == hash(checked)
                assert repr(allocation) == repr(checked)
                assert allocation.total == checked.total == sum(allocation.counts)
                assert all(type(n) is int for n in allocation.counts)
