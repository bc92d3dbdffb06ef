"""Allocation schemes: closed-form shares, even-floor rounding, invariants."""

import hashlib
import heapq
import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretalloc.allocate import DegenerateAllocationWarning, allocate, shares
from regretalloc.allocate import _EVEN_SNAP, _SNAP_CAP, _floor_even
from regretalloc.model import (
    Allocation,
    DesignProblem,
    GroupSpec,
    Paradigm,
    ValidationError,
    check_allocation,
)
from regretalloc.regret import worst_case, worst_case_terms
from regretalloc.stats import threshold_constants
from builders import make_problem
from reference_values import ORACLE_MINIMAX_SHARES_CASE1, ORACLE_NEYMAN_ALLOCATION, REF_ALLOCATIONS

SCHEMES = ("minimax", "proportional", "egalitarian", "neyman")


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
        assert shares(problem, "minimax") == pytest.approx((50.0, 50.0))

    def test_minimax_case_study_shares(self, covid_cases):
        relaxed = shares(covid_cases[0].problem, "minimax")
        assert relaxed == pytest.approx(ORACLE_MINIMAX_SHARES_CASE1, rel=1e-8)

    def test_minimax_equal_variances_reduces_to_weight_power(self):
        problem = make_problem((0.83, 0.17), (1.0, 1.0), 9320)
        relaxed = shares(problem, "minimax")
        assert relaxed[0] / relaxed[1] == pytest.approx((0.83 / 0.17) ** (2.0 / 3.0), rel=1e-12)

    def test_shares_exhaust_budget(self, covid_cases):
        for scheme in SCHEMES:
            relaxed = shares(covid_cases[0].problem, scheme)
            assert sum(relaxed) == pytest.approx(9320.0, rel=1e-12)
            assert all(s > 0 for s in relaxed)

    def test_scale_invariance_of_shapes(self):
        base = make_problem((0.3, 0.7), (1.0, 3.0), 200)
        scaled = make_problem((0.3, 0.7), (7.0, 21.0), 200)
        for scheme in SCHEMES:
            assert shares(base, scheme) == pytest.approx(shares(scaled, scheme), rel=1e-12)

    def test_permutation_equivariance(self):
        forward = make_problem((0.2, 0.3, 0.5), (1.0, 4.0, 2.0), 120)
        backward = make_problem((0.5, 0.3, 0.2), (2.0, 4.0, 1.0), 120)
        for scheme in SCHEMES:
            assert shares(forward, scheme) == pytest.approx(shares(backward, scheme)[::-1])
            assert allocate(forward, scheme).counts == allocate(backward, scheme).counts[::-1]

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
        share = shares(problem, "minimax")[0]
        assert abs(best - share) <= step

    def test_egalitarian_balances_group_noise(self):
        problem = make_problem((0.2, 0.5, 0.3), (1.0, 5.0, 2.5), 170)
        relaxed = shares(problem, "egalitarian")
        levels = [math.sqrt(2.0 * s / x) for s, x in zip(problem.var_sums, relaxed)]
        assert max(levels) - min(levels) <= 1e-12 * max(levels)


def floor_even_all(relaxed):
    return tuple(_floor_even(s) for s in relaxed)


class TestRoundToEvenFloor:
    def test_plain_flooring(self):
        assert floor_even_all((5.9, 4.1)) == (4, 4)

    def test_exact_even_is_fixed_point(self):
        assert floor_even_all((6.0, 4.0)) == (6, 4)

    def test_case_study_scale(self):
        assert floor_even_all((6099.0, 3221.0)) == (6098, 3220)

    def test_float_noise_near_even_snaps(self):
        assert floor_even_all((40.0 - 1e-12, 12.0 + 1e-12)) == (40, 12)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=6))
    def test_bracket_property(self, relaxed):
        counts = floor_even_all(relaxed)
        for share, n in zip(relaxed, counts):
            assert n % 2 == 0
            assert share - 2.0 < n <= share + 1e-6 * max(1.0, share)


class TestAllocators:
    def test_minimax_case_study(self, covid_cases):
        for case, expected in zip(covid_cases, (REF_ALLOCATIONS[0.005], REF_ALLOCATIONS[0.025])):
            counts = allocate(case.problem, "minimax").counts
            assert all(abs(c - e) <= 4 for c, e in zip(counts, expected["minimax"]))

    def test_minimax_exact_symmetric_divisible(self):
        problem = make_problem((0.25,) * 4, (1.0,) * 4, 80)
        assert allocate(problem, "minimax").counts == (20, 20, 20, 20)

    def test_minimax_hand_instance(self):
        # shares = (16.2446, 3.7554) -> even floor (16, 2)
        problem = make_problem((0.9, 0.1), (2.0, 2.0), 20)
        assert allocate(problem, "minimax").counts == (16, 2)

    def test_proportional_case_study(self, covid_cases):
        for case in covid_cases:
            assert allocate(case.problem, "proportional").counts == (7734, 1584)

    def test_proportional_even_weights(self):
        problem = make_problem((0.5, 0.5), (1.0, 1.0), 100)
        assert allocate(problem, "proportional").counts == (50, 50)

    def test_proportional_exact_divisibility(self):
        problem = make_problem((1 / 3, 1 / 3, 1 / 3), (1.0, 1.0, 1.0), 12)
        assert allocate(problem, "proportional").counts == (4, 4, 4)

    def test_egalitarian_case_study(self, covid_cases):
        for case, expected in zip(covid_cases, (REF_ALLOCATIONS[0.005], REF_ALLOCATIONS[0.025])):
            counts = allocate(case.problem, "egalitarian").counts
            assert all(abs(c - e) <= 4 for c, e in zip(counts, expected["egalitarian"]))

    def test_egalitarian_equal_variances_splits_evenly(self):
        problem = make_problem((0.7, 0.2, 0.1), (3.0, 3.0, 3.0), 90)
        assert allocate(problem, "egalitarian").counts == (30, 30, 30)

    def test_egalitarian_hand_instance(self):
        problem = make_problem((0.5, 0.5), (1.0, 3.0), 80)
        assert allocate(problem, "egalitarian").counts == (20, 60)

    def test_neyman_std_ratio(self):
        problem = make_problem((0.5, 0.5), (1.0, 4.0), 60)
        assert allocate(problem, "neyman").counts == (20, 40)

    def test_neyman_symmetric(self):
        problem = make_problem((0.5, 0.5), (2.0, 2.0), 100)
        assert allocate(problem, "neyman").counts == (50, 50)

    def test_neyman_case_study(self, covid_cases):
        for case, expected in zip(
            covid_cases, (ORACLE_NEYMAN_ALLOCATION[0.005], ORACLE_NEYMAN_ALLOCATION[0.025])
        ):
            assert allocate(case.problem, "neyman").counts == expected

    def test_dispatch_rejects_unknown_scheme(self, covid_cases):
        with pytest.raises(ValidationError, match="unknown allocation scheme"):
            allocate(covid_cases[0].problem, "quantile")

    @given(random_problems())
    def test_all_outputs_even_within_budget_and_bracketed(self, problem):
        for scheme in SCHEMES:
            relaxed = shares(problem, scheme)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateAllocationWarning)
                counts = allocate(problem, scheme).counts
            assert sum(counts) <= problem.budget
            for share, n in zip(relaxed, counts):
                assert n % 2 == 0
                assert share - 2.0 < n <= share + 1e-6 * max(1.0, share)

    def test_zero_count_emits_warning(self):
        problem = make_problem((0.97, 0.03), (1.0, 1.0), 20)
        with pytest.warns(DegenerateAllocationWarning):
            allocate(problem, "proportional")


class TestRedistribution:
    def test_minimax_redistribute_uses_full_budget(self, covid_cases):
        problem = covid_cases[0].problem
        floored = allocate(problem, "minimax")
        topped = allocate(problem, "minimax", redistribute=True)
        assert topped.total == 9320
        assert all(n % 2 == 0 for n in topped.counts)
        assert all(t >= f for t, f in zip(topped.counts, floored.counts))
        assert (
            worst_case(problem, topped, Paradigm.SEPARATE_UTILITARIAN).value
            <= worst_case(problem, floored, Paradigm.SEPARATE_UTILITARIAN).value
        )

    def test_proportional_redistribute_largest_remainder(self, covid_cases):
        # Continuous shares (7735.6, 1584.4): leftover pair goes to group 1.
        assert allocate(
            covid_cases[0].problem, "proportional", redistribute=True
        ).counts == (7736, 1584)

    def test_redistribute_leaves_less_than_a_pair(self):
        problem = make_problem((0.41, 0.33, 0.26), (1.0, 2.0, 3.0), 101)
        for scheme in ("minimax", "egalitarian", "neyman"):
            allocation = allocate(problem, scheme, redistribute=True)
            assert problem.budget - allocation.total < 2


@st.composite
def greedy_problems(draw, max_budget=10**7):
    """G from 1 to 12, budgets from 2G to ``max_budget`` (odd ones too), and
    weights down to 1e-6, so that some groups floor to zero."""
    n = draw(st.integers(min_value=1, max_value=12))
    raw = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n))
    weights = [r / sum(raw) for r in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    var_sums = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=n, max_size=n))
    budget = draw(st.integers(min_value=2 * n, max_value=max_budget))
    return make_problem(weights, var_sums, budget)


class TestStrandedBound:
    """Each even floor strands less than 2, and what is stranded has the
    budget's parity: at most 2G - 2 at an even budget, 2G - 1 at an odd one."""

    @given(greedy_problems())
    def test_floor_strands_at_most_2g_minus_2_plus_the_odd_one(self, problem):
        for scheme in SCHEMES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateAllocationWarning)
                stranded = problem.budget - allocate(problem, scheme).total
            assert 0 <= stranded <= 2 * problem.n_groups - 2 + problem.budget % 2

    @pytest.mark.parametrize(
        "weights, budget, counts", [((0.5, 0.5), 11, (4, 4)), ((1.0,), 9, (8,))]
    )
    def test_an_odd_budget_can_strand_2g_minus_1(self, weights, budget, counts):
        problem = make_problem(weights, (1.0,) * len(weights), budget)
        for scheme in SCHEMES:
            assert allocate(problem, scheme).counts == counts
            assert budget - sum(counts) == 2 * len(weights) - 1


TARGETS = {
    "minimax": Paradigm.SEPARATE_UTILITARIAN,
    "egalitarian": Paradigm.SEPARATE_EGALITARIAN,
}


def redistributed(problem, scheme):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAllocationWarning)
        return allocate(problem, scheme, redistribute=True).counts


def targeted(problem, scheme, counts):
    """H for minimax, He for egalitarian, as ``worst_case`` computes them."""
    return worst_case(problem, Allocation(tuple(counts)), TARGETS[scheme]).value


def even_allocations(pairs, groups):
    """Every split of ``pairs`` pairs over ``groups`` groups, as counts."""
    if groups == 1:
        yield (2 * pairs,)
        return
    for k in range(pairs + 1):
        for rest in even_allocations(pairs - k, groups - 1):
            yield (2 * k, *rest)


def draw_groups(draw, n):
    """Weights uniform on 0.01-1 then normalised; S log-uniform on 1e-3-10."""
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n))
    weights = [r / sum(raw) for r in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    exponents = draw(st.lists(st.floats(min_value=-3.0, max_value=1.0), min_size=n, max_size=n))
    return weights, [10.0**e for e in exponents]


@st.composite
def exhaustive_problems(draw):
    """G = 2 or 3 and budgets from 2G to 200 (120 at G = 3), odd ones too."""
    n = draw(st.integers(min_value=2, max_value=3))
    weights, var_sums = draw_groups(draw, n)
    budget = draw(st.integers(min_value=2 * n, max_value=200 if n == 2 else 120))
    return make_problem(weights, var_sums, budget)


@st.composite
def certificate_problems(draw):
    """G up to 1,000 and budgets from 2G to 1e7, odd ones too; weights down
    to 1e-6 so that some groups floor to zero.  The groups come from a drawn
    seed, which keeps a thousand of them cheap to draw."""
    n = draw(st.integers(min_value=1, max_value=1000))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    raw = [rng.uniform(1e-6, 1.0) for _ in range(n)]
    weights = [r / sum(raw) for r in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    var_sums = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n)]
    return make_problem(weights, var_sums, draw(st.integers(min_value=2 * n, max_value=10**7)))


def certify_h(problem, counts):
    """No move of one pair i -> j lowers H, summed at 50 digits, by more than
    1e-12 of the drop.  H is separable and convex in pairs, so that makes
    the counts optimal (Gross 1956)."""
    assert min(counts) >= 2
    weights = Paradigm.SEPARATE_UTILITARIAN.group_weights(problem)
    with mpmath.workdps(50):
        c0 = mpmath.mpf(threshold_constants().c0)

        def term(g, n):
            if not n:
                return mpmath.inf
            return weights[g] * c0 * mpmath.sqrt(2 * mpmath.mpf(problem.var_sums[g]) / n)

        drops = [term(g, n) - term(g, n + 2) for g, n in enumerate(counts)]
        losses = [term(g, n - 2) - term(g, n) for g, n in enumerate(counts)]
        cheapest = heapq.nsmallest(2, range(len(counts)), key=losses.__getitem__)
        for j, drop in enumerate(drops):
            for i in cheapest:
                if i != j:
                    assert drop - losses[i] <= 1e-12 * drop
                    break


def certify_he(problem, counts):
    """The smallest even counts that put every He term below the result's
    max sum to more than the usable budget, so no allocation lowers it."""
    weights = Paradigm.SEPARATE_EGALITARIAN.group_weights(problem)
    c0 = threshold_constants().c0

    def term(g, n):
        return worst_case_terms((weights[g],), (problem.var_sums[g],), (n,))[0]

    top = max(term(g, n) for g, n in enumerate(counts))
    needed = 0
    for g in range(len(counts)):
        # term(n) < top iff n > 2 s (w c0 / top)^2; the loops fix float error.
        n = max(2, 2 * math.floor(problem.var_sums[g] * (weights[g] * c0 / top) ** 2) - 2)
        while n > 2 and term(g, n - 2) < top:
            n -= 2
        while term(g, n) >= top:
            n += 2
        needed += n
    assert needed > 2 * (problem.budget // 2)


class TestExactOptimum:
    """``redistribute=True`` reaches the even-integer minimum of H (minimax)
    or He (egalitarian) at the usable budget 2*floor(N/2)."""

    @settings(max_examples=200)
    @given(exhaustive_problems(), st.sampled_from(sorted(TARGETS)))
    def test_matches_exhaustive_search(self, problem, scheme):
        got = targeted(problem, scheme, redistributed(problem, scheme))
        best = min(
            targeted(problem, scheme, counts)
            for counts in even_allocations(problem.budget // 2, problem.n_groups)
        )
        assert got <= best * (1 + 1e-12)

    @settings(max_examples=100)
    @given(certificate_problems(), st.sampled_from(sorted(TARGETS)))
    # The exact optimum is (4964436, 1244214); comparing float sums of H
    # picks (4964438, 1244212).
    @example(
        make_problem(
            (0.7979048908364051, 0.20209510916359485),
            (0.008929908025045038, 0.0021913503974051347),
            6208650,
        ),
        "minimax",
    )
    # Four equal groups floor to 16 each with one pair left: an exact tie.
    @example(make_problem((0.25,) * 4, (1.0,) * 4, 66), "minimax")
    def test_exchange_certificate(self, problem, scheme):
        counts = redistributed(problem, scheme)
        assert sum(counts) == 2 * (problem.budget // 2)
        (certify_h if scheme == "minimax" else certify_he)(problem, counts)

    @pytest.mark.parametrize(
        "weights, var_sums, budget, expected",
        [
            # The floor is (4, 0, 0) with one pair left: it goes to group 1,
            # then a pair moves from group 0 to group 2.
            ((0.2, 0.5, 0.3), (100.0, 0.01, 0.01), 6, (2, 2, 2)),
            # Both groups share the max at (2, 2): the first group's pair
            # lowers the count at the max, and (2, 4) has the same He.
            ((0.4, 0.6), (1.0, 1.0), 6, (4, 2)),
            # README's budget-11 example: the floor plus the leftover pair,
            # (10, 0), leaves He infinite; the trade fixes it.
            ((0.5, 0.5), (10.0, 0.45), 11, (8, 2)),
        ],
        ids=["unsampled-groups", "shared-max", "readme-budget-11"],
    )
    def test_egalitarian_exact_answers(self, weights, var_sums, budget, expected):
        assert redistributed(make_problem(weights, var_sums, budget), "egalitarian") == expected

    def test_readme_budget_11_worst_off_regret(self):
        problem = make_problem((0.5, 0.5), (10.0, 0.45), 11)
        assert targeted(problem, "egalitarian", (8, 2)) == pytest.approx(0.2687, abs=5e-5)

    def test_bundled_budget_13(self, covid_cases):
        # The floor plus the leftover pairs, (2, 10), has He 0.020043: the
        # optimum takes a pair back.
        problem = DesignProblem(budget=13, groups=covid_cases[0].problem.groups)
        counts = redistributed(problem, "egalitarian")
        assert counts == (4, 8)
        assert targeted(problem, "egalitarian", counts) == pytest.approx(0.018765, abs=5e-7)


@st.composite
def permuted_problems(draw):
    """A problem with G from 2 to 6 and the same groups in a drawn order."""
    n = draw(st.integers(min_value=2, max_value=6))
    weights, var_sums = draw_groups(draw, n)
    budget = draw(st.integers(min_value=2 * n, max_value=10**6))
    order = draw(st.permutations(range(n)))
    return (
        make_problem(weights, var_sums, budget),
        make_problem([weights[g] for g in order], [var_sums[g] for g in order], budget),
    )


class TestInvariance:
    def test_odd_budget_matches_the_even_one_below(self, covid_cases):
        # Both budgets have the same usable budget.  Odd N from 9 to 39,997.
        groups = covid_cases[0].problem.groups
        for budget in range(9, 40_000, 4):
            odd, even = (DesignProblem(budget=n, groups=groups) for n in (budget, budget - 1))
            for scheme in TARGETS:
                got = targeted(odd, scheme, redistributed(odd, scheme))
                want = targeted(even, scheme, redistributed(even, scheme))
                assert abs(got - want) <= 1e-12 * want, (budget, scheme)

    @given(permuted_problems())
    def test_group_order_leaves_the_targeted_worst_case(self, problems):
        problem, permuted = problems
        for scheme in TARGETS:
            got = targeted(permuted, scheme, redistributed(permuted, scheme))
            want = targeted(problem, scheme, redistributed(problem, scheme))
            assert abs(got - want) <= 1e-12 * want


def sort_and_cycle(problem, counts, relaxed):
    """Reference largest remainder: sort the groups by remainder, then cycle
    through them, wrapping if the leftover exceeds one pair per group."""
    order = sorted(range(len(counts)), key=lambda g: relaxed[g] - counts[g], reverse=True)
    for i in range((problem.budget - sum(counts)) // 2):
        counts[order[i % len(order)]] += 2
    return tuple(counts)


class TestLargestRemainder:
    """Proportional and Neyman redistribute by largest remainder."""

    @settings(max_examples=200)
    @given(greedy_problems(max_budget=2**53), st.sampled_from(["proportional", "neyman"]))
    # Float error in the shares near MAX_BUDGET leaves one pair per group.
    @example(make_problem((0.64, 0.36), (2.0, 1.0), 2**53 - 616), "neyman")
    def test_matches_sort_and_cycle(self, problem, scheme):
        relaxed = shares(problem, scheme)
        counts = [_floor_even(s) for s in relaxed]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateAllocationWarning)
            if sum(counts) > problem.budget:
                # The floor already overshoots: both sides refuse the shares.
                with pytest.raises(ValidationError, match="too large to round"):
                    allocate(problem, scheme, redistribute=True)
                return
            redistributed = allocate(problem, scheme, redistribute=True).counts
        assert redistributed == sort_and_cycle(problem, counts, relaxed)


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

    def test_shares_flooring_above_the_budget_raise(self):
        # Neyman shares 7375513610449242.0 and 1631685644291750.0 floor to
        # 2**53, one above the budget: float shares this large carry no
        # fraction to round away.
        problem = make_problem((0.83, 0.17), (1.2, 1.4), 2**53 - 1)
        with pytest.raises(
            ValidationError, match=f"neyman shares too large to round within budget {2**53 - 1}"
        ):
            allocate(problem, "neyman")

    def test_a_numpy_budget_does_not_wrap_the_leftover_pairs(self):
        # These proportional shares floor to more than the budget.  Read as a
        # numpy uint64, budget - sum(counts) once wrapped past zero, and the
        # redistribution loop ran on.
        groups = (
            GroupSpec("a", 0.521902077373233, 0.005171080563124847, 0.4921659525110956),
            GroupSpec("b", 0.4780979226267671, 0.0008603342092331915, 0.009337573098374463),
        )
        problem = DesignProblem(np.uint64(7627730077289459), groups)
        with pytest.raises(ValidationError, match="proportional shares too large to round"):
            allocate(problem, "proportional", redistribute=True)

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


@st.composite
def float32_problems(draw):
    """A problem built from float32 numbers and the same problem built from
    their Python floats: dyadic weights, which sum to 1 exactly in either
    precision, and float32 arm variances."""
    G = draw(st.integers(min_value=1, max_value=6))
    cuts = sorted(draw(st.sets(st.integers(1, 1023), min_size=G - 1, max_size=G - 1)))
    weights = [(b - a) / 1024 for a, b in zip([0, *cuts], [*cuts, 1024])]
    variances = draw(
        st.lists(st.floats(2.0**-20, 2.0**10, width=32), min_size=2 * G, max_size=2 * G)
    )
    budget = draw(st.integers(min_value=2 * G, max_value=10**7))

    def build(real):
        return DesignProblem(budget, tuple(
            GroupSpec(f"g{g}", real(w), real(variances[2 * g]), real(variances[2 * g + 1]))
            for g, w in enumerate(weights)
        ))

    return build(np.float32), build(float)


class TestOneSetOfNumbers:
    """Shares, allocations and regrets read the numbers a problem stored when
    it was built, so two equal problems give equal results."""

    @settings(max_examples=100)
    @given(float32_problems())
    def test_float32_inputs_compute_as_their_python_floats(self, problems):
        narrow, wide = problems
        assert narrow == wide and narrow.var_sums == wide.var_sums
        for scheme in SCHEMES:
            assert shares(narrow, scheme) == shares(wide, scheme)
            for redistribute in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateAllocationWarning)
                    allocation = allocate(narrow, scheme, redistribute=redistribute)
                    assert allocation == allocate(wide, scheme, redistribute=redistribute)
                for paradigm in Paradigm:
                    assert worst_case(narrow, allocation, paradigm) == worst_case(
                        wide, allocation, paradigm
                    )


def redistribution_corpus():
    """Seeded problems for the digest below: G from 1 to 30 with log-uniform
    weights, arm variances and budgets, then identical groups (every gain
    ties) for G from 1 to 8 at 40 budgets each."""
    rng = random.Random(33)

    def log_uniform(low, high):
        return 10.0 ** rng.uniform(math.log10(low), math.log10(high))

    problems = []
    for _ in range(3000):
        G = rng.randint(1, 30)
        raw = [log_uniform(1e-4, 1.0) for _ in range(G)]
        groups = tuple(
            GroupSpec(f"g{g}", r / sum(raw), log_uniform(1e-2, 1e2), log_uniform(1e-2, 1e2))
            for g, r in enumerate(raw)
        )
        problems.append(DesignProblem(int(log_uniform(2 * G, 1e7)), groups))
    for G in range(1, 9):
        groups = tuple(GroupSpec(f"g{g}", 1.0 / G, 0.5, 0.5) for g in range(G))
        problems += [DesignProblem(int(log_uniform(2 * G, 1e5)), groups) for _ in range(40)]
    return problems


# sha256 of repr([allocate(p, scheme, redistribute=True).counts for p in the
# corpus]), taken before the gain was computed in place.
REDISTRIBUTED_SHA256 = {
    "minimax": "3c87c7189551963319846dd5319b3965c70e5c5e7680a1ab3b4434c49cb89a1b",
    "proportional": "325b05a0caec607ea646127a94d7724df8fc86031f01e769aa645eca34e16b6e",
    "egalitarian": "30481570923cb0243bae8e2bce4933fcbbaaf579cc3cdf3b9e656353ee5df041",
    "neyman": "6e74054c10da5c94060c2470f9e84069a6778a129aa344902e6386f3195b424a",
}


class TestRedistributedDigest:
    """The exact optimum is unique only up to ties, so the loop's scan order
    and first-group rule are part of the answer: a faster gain must leave
    every count where it was."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return redistribution_corpus()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_counts_match_the_pinned_digest(self, corpus, scheme):
        counts = [redistributed(problem, scheme) for problem in corpus]
        digest = hashlib.sha256(repr(counts).encode()).hexdigest()
        assert digest == REDISTRIBUTED_SHA256[scheme]
