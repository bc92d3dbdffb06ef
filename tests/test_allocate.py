"""Allocation schemes: closed-form shares, even-floor rounding, invariants."""

import math
import warnings

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretalloc.allocate import DegenerateAllocationWarning, allocate, shares
from regretalloc.allocate import _EVEN_SNAP, _SNAP_CAP, _floor_even
from regretalloc.model import (
    Allocation,
    DesignProblem,
    Paradigm,
    ValidationError,
    check_allocation,
)
from regretalloc.regret import paradigm_rule, worst_case_separate, worst_case_terms
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
            worst_case_separate(problem, topped).value
            <= worst_case_separate(problem, floored).value
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


def exact_objective(problem, counts, target):
    """H summed at 50 digits from the float inputs; He, the max of the float
    terms, is already exact."""
    rule = paradigm_rule(target)
    weights, var_sums = rule.group_weights(problem), problem.var_sums
    if rule.worst_off:
        return max(worst_case_terms(weights, var_sums, counts))
    with mpmath.workdps(50):
        c0 = mpmath.mpf(threshold_constants().c0)
        return mpmath.fsum(
            w * c0 * mpmath.sqrt(2 * mpmath.mpf(s) / n) if n else mpmath.inf
            for w, s, n in zip(weights, var_sums, counts)
        )


def full_rebuild_greedy(problem, counts, target):
    """Reference greedy in exact arithmetic: rebuilds the objective for every
    candidate of every leftover pair, ties to the first group.  Also returns
    whether a pick was ambiguous: its best two candidates' drops differ, but
    by at most 1e-12 of a drop, so input rounding, not the rule, decided it."""
    counts = list(counts)
    ambiguous = False
    with mpmath.workdps(50):
        for _ in range((problem.budget - sum(counts)) // 2):
            current = exact_objective(problem, counts, target)
            values = []
            for g in range(len(counts)):
                counts[g] += 2
                values.append(exact_objective(problem, counts, target))
                counts[g] -= 2
            best = min(values)
            if best < current:
                best_g = values.index(best)
                drops = sorted((current - v for v in values), reverse=True)
                if current < math.inf and len(drops) > 1:
                    ambiguous |= 0 < drops[0] - drops[1] <= 1e-12 * drops[0]
            else:
                # Flat objective (e.g. several unsampled groups keep it
                # infinite): fill empty groups first, then the largest group.
                empty = [g for g, n in enumerate(counts) if n == 0]
                candidates = empty if empty else range(len(counts))
                best_g = max(candidates, key=lambda g: problem.groups[g].weight)
            counts[best_g] += 2
    return tuple(counts), ambiguous


GREEDY_TARGETS = {
    "minimax": Paradigm.SEPARATE_UTILITARIAN,
    "egalitarian": Paradigm.SEPARATE_EGALITARIAN,
}


def greedy_matches_full_rebuild(problem, scheme):
    """Counts equal the exact greedy's; where a pick was ambiguous, they
    spend the same budget and reach its objective within 1e-12 relative."""
    target = GREEDY_TARGETS[scheme]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAllocationWarning)
        floored = allocate(problem, scheme).counts
        redistributed = allocate(problem, scheme, redistribute=True).counts
    expected, ambiguous = full_rebuild_greedy(problem, floored, target)
    if ambiguous:
        assert sum(redistributed) == sum(expected)
        got = exact_objective(problem, redistributed, target)
        want = exact_objective(problem, expected, target)
        assert abs(got - want) <= 1e-12 * want
    else:
        assert redistributed == expected
    return redistributed


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


class TestGreedyEquivalence:
    """One key update per pick picks what an exact full rebuild picks."""

    @settings(max_examples=200)
    @given(greedy_problems(), st.sampled_from(sorted(GREEDY_TARGETS)))
    # Four equal groups floor to (6, 6, 6, 6) with three pairs left: every
    # egalitarian term ties at the max, so combine=max sees tied maxima.
    @example(make_problem((0.25,) * 4, (1.0,) * 4, 30), "egalitarian")
    # The exact greedy gives (4964436, 1244214); comparing float sums of H
    # picks (4964438, 1244212).
    @example(
        make_problem(
            (0.7979048908364051, 0.20209510916359485),
            (0.008929908025045038, 0.0021913503974051347),
            6208650,
        ),
        "minimax",
    )
    # Four equal groups floor to 16 each with one pair left: an exact tie,
    # so the first group gets it, (18, 16, 16, 16).  Comparing float sums
    # of H lets summation order give it to the last group.
    @example(make_problem((0.25,) * 4, (1.0,) * 4, 66), "minimax")
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
