"""Domain types and validation."""

import dataclasses
import math
from fractions import Fraction

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
    check_allocation,
    check_scenario,
    validate_problem,
)


def two_group_problem(weights=(0.5, 0.5), variances=((1.0, 1.0), (1.0, 1.0)), budget=100):
    groups = tuple(
        GroupSpec(label=f"g{i}", weight=w, var_control=v[0], var_treated=v[1])
        for i, (w, v) in enumerate(zip(weights, variances))
    )
    return DesignProblem(budget=budget, groups=groups)


class TestValidateProblem:
    def test_symmetric_instance_is_valid(self):
        problem = two_group_problem()
        assert validate_problem(problem) == problem

    def test_case_study_instance_is_valid(self, covid_cases):
        problem = covid_cases[0].problem
        assert problem.weights == (0.83, 0.17)
        assert problem.budget == 9320
        assert validate_problem(problem) == problem

    def test_weight_sum_violation(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            validate_problem(two_group_problem(weights=(0.6, 0.6)))

    def test_nonpositive_variance_names_group(self):
        with pytest.raises(ValidationError, match="group 1"):
            validate_problem(two_group_problem(variances=((1.0, 1.0), (0.0, 1.0))))

    def test_nonpositive_weight_names_group(self):
        with pytest.raises(ValidationError, match="group 1"):
            validate_problem(two_group_problem(weights=(1.0, 0.0)))

    def test_budget_below_one_pair_per_group(self):
        with pytest.raises(ValidationError, match="budget"):
            validate_problem(two_group_problem(budget=3))

    def test_empty_group_list(self):
        with pytest.raises(ValidationError):
            validate_problem(DesignProblem(budget=10, groups=()))

    def test_budget_beyond_float_exact_range(self):
        validate_problem(two_group_problem(budget=2**53))
        for budget in (2**53 + 2, 10**400):
            with pytest.raises(ValidationError, match="2\\*\\*53"):
                validate_problem(two_group_problem(budget=budget))

    @pytest.mark.parametrize(
        "budget", [float("nan"), 100.5, 100.0, "100", None, True, np.float64(100)], ids=repr
    )
    def test_budget_must_be_an_integer(self, budget):
        for _ in range(2):
            with pytest.raises(ValidationError, match="budget must be an integer"):
                validate_problem(two_group_problem(budget=budget))

    def test_numpy_integer_budget_is_accepted(self):
        assert validate_problem(two_group_problem(budget=np.int64(100))).budget == 100

    @pytest.mark.parametrize("value", ["0.5", None, 0.5 + 0j, True], ids=repr)
    @pytest.mark.parametrize(
        "field, name", [(0, "weight"), (1, "control-arm variance"), (2, "treated-arm variance")]
    )
    def test_group_numbers_must_be_real(self, value, field, name):
        specs = [[0.5, 1.0, 1.0], [0.5, 1.0, 1.0]]
        specs[1][field] = value
        groups = tuple(GroupSpec(f"g{i}", *spec) for i, spec in enumerate(specs))
        for _ in range(2):
            with pytest.raises(ValidationError, match=f"group 1: {name} must be a real number"):
                validate_problem(DesignProblem(budget=100, groups=groups))

    @pytest.mark.parametrize(
        "groups, match",
        [
            (None, "problem field groups must be a sequence of GroupSpec, got None"),
            (GroupSpec("g0", 1.0, 1.0, 1.0), "problem field groups must be a sequence"),
            ((GroupSpec("g0", 0.5, 1.0, 1.0), (0.5, 1.0, 1.0)), "group 1: expected a GroupSpec"),
        ],
        ids=["none", "bare-groupspec", "tuple-group"],
    )
    def test_groups_must_be_group_specs(self, groups, match):
        with pytest.raises(ValidationError, match=match):
            validate_problem(DesignProblem(budget=100, groups=groups))

    @pytest.mark.parametrize(
        "value", [10**400, Fraction(1, 10**400)], ids=["huge-int", "tiny-fraction"]
    )
    @pytest.mark.parametrize(
        "field, name", [(0, "weight"), (1, "control-arm variance"), (2, "treated-arm variance")]
    )
    def test_group_numbers_must_be_positive_finite_floats(self, value, field, name):
        # float(10**400) overflows and float(Fraction(1, 10**400)) is 0.0.
        specs = [[0.5, 1.0, 1.0], [0.5, 1.0, 1.0]]
        specs[1][field] = value
        groups = tuple(GroupSpec(f"g{i}", *spec) for i, spec in enumerate(specs))
        for _ in range(2):
            with pytest.raises(ValidationError, match=f"group 1: {name} must be positive and"):
                validate_problem(DesignProblem(budget=100, groups=groups))

    def test_problem_must_be_a_design_problem(self):
        with pytest.raises(ValidationError, match="problem must be a DesignProblem, got None"):
            validate_problem(None)

    def test_validation_is_idempotent(self):
        problem = two_group_problem()
        once = validate_problem(problem)
        twice = validate_problem(once)
        assert once == twice == problem


class TestCheckAllocation:
    def test_accepts_even_within_budget(self):
        problem = two_group_problem()
        allocation = Allocation(counts=(60, 40))
        assert check_allocation(problem, allocation) == allocation

    def test_rejects_a_plain_list(self):
        with pytest.raises(ValidationError, match=r"allocation must be an Allocation, got \[50"):
            check_allocation(two_group_problem(), [50, 50])

    def test_rejects_odd_count(self):
        with pytest.raises(ValidationError, match="odd"):
            check_allocation(two_group_problem(), Allocation(counts=(59, 40)))

    def test_rejects_negative_count(self):
        with pytest.raises(ValidationError, match="negative"):
            check_allocation(two_group_problem(), Allocation(counts=(-2, 40)))

    @pytest.mark.parametrize(
        "counts, match",
        [((3,), "group 0: count 3 is odd; strata must balance 1:1"),
         ((-2,), "group 0: count -2 is negative"),
         ((2, 2, 5), "group 2: count 5 is odd"),
         (None, "allocation counts must be a sequence, got None"),
         (5, "allocation counts must be a sequence, got 5"),
         (b"\x02\x04", "allocation counts must be a sequence, got b"),
         ("24", "allocation counts must be a sequence, got '24'"),
         ("", "allocation counts must be a sequence, got ''")],
        ids=[
            "odd", "negative", "odd-and-wrong-length", "none", "bare-count", "bytes", "string",
            "empty-string",
        ],
    )
    def test_odd_or_negative_counts_rejected_at_construction(self, counts, match):
        with pytest.raises(ValidationError, match=match):
            Allocation(counts)

    def test_non_integer_reported_before_a_negative_count(self):
        with pytest.raises(ValidationError, match="integers, got 1.5"):
            Allocation((-2, 1.5))

    def test_validates_its_problem(self):
        with pytest.raises(ValidationError, match="budget 3 cannot give"):
            check_allocation(two_group_problem(budget=3), Allocation((0, 0)))

    def test_rejects_over_budget(self):
        with pytest.raises(ValidationError, match="exceeds budget"):
            check_allocation(two_group_problem(), Allocation(counts=(60, 42)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="entries"):
            check_allocation(two_group_problem(), Allocation(counts=(60,)))

    def test_zero_counts_are_structurally_fine(self):
        # Degenerate but well-formed; regret evaluation handles the infinity.
        check_allocation(two_group_problem(), Allocation(counts=(0, 0)))

    def test_non_integral_counts_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="integers"):
            Allocation(counts=(59.5, 40.0))
        assert Allocation(counts=(60.0, 40)).counts == (60, 40)

    @pytest.mark.parametrize(
        "count",
        [True, False, None, math.nan, math.inf, -math.inf],
        ids=["true", "false", "none", "nan", "inf", "-inf"],
    )
    def test_non_count_values_raise_validation_error(self, count):
        with pytest.raises(ValidationError, match="integers"):
            Allocation(counts=(60, count))

    @pytest.mark.parametrize("count", [np.True_, np.False_, np.array(True)], ids=repr)
    def test_numpy_booleans_raise_validation_error(self, count):
        with pytest.raises(ValidationError, match="integers"):
            Allocation(counts=(60, count))

    def test_numpy_integers_are_counts(self):
        allocation = Allocation(counts=(np.int64(4), np.int32(6)))
        assert allocation.counts == (4, 6)
        assert all(type(n) is int for n in allocation.counts)

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
    def test_even_pairs_always_pass(self, a, b):
        check_allocation(two_group_problem(budget=200), Allocation(counts=(2 * a, 2 * b)))


class TestScenario:
    def test_check_scenario_accepts_matching(self):
        problem = two_group_problem()
        truth = TruthScenario(
            tau=(0.1, -0.2), baseline=(0.0, 0.0),
            var_control=(1.0, 1.0), var_treated=(1.0, 1.0),
        )
        assert check_scenario(problem, truth) == truth

    def test_check_scenario_rejects_length_mismatch(self):
        problem = two_group_problem()
        truth = TruthScenario(tau=(0.1,), baseline=(0.0,), var_control=(1.0,), var_treated=(1.0,))
        with pytest.raises(ValidationError, match="tau"):
            check_scenario(problem, truth)

    def test_check_scenario_rejects_zero_variance(self):
        problem = two_group_problem()
        truth = TruthScenario(
            tau=(0.1, 0.2), baseline=(0.0, 0.0),
            var_control=(1.0, 0.0), var_treated=(1.0, 1.0),
        )
        with pytest.raises(ValidationError, match="group 1"):
            check_scenario(problem, truth)

    @pytest.mark.parametrize(
        "var_control, var_treated",
        [((1.0, 1.0, 0.0), (1.0, -1.0, 1.0)), ((1.0, -2.0, 1.0), (1.0, 1.0, 0.0))],
        ids=["treated-first", "control-first"],
    )
    def test_nonpositive_variance_names_the_first_bad_group(self, var_control, var_treated):
        groups = tuple(GroupSpec(f"g{g}", w, 1.0, 1.0) for g, w in enumerate((0.5, 0.25, 0.25)))
        problem = DesignProblem(100, groups)
        truth = TruthScenario((0.1,) * 3, (0.0,) * 3, var_control, var_treated)
        for _ in range(2):
            with pytest.raises(ValidationError, match="group 1: scenario variances must be"):
                check_scenario(problem, truth)

    def test_check_scenario_rejects_a_non_scenario(self):
        with pytest.raises(ValidationError, match="truth must be a TruthScenario, got None"):
            check_scenario(two_group_problem(), None)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("field", ["tau", "baseline", "var_control", "var_treated"])
    def test_check_scenario_rejects_non_finite(self, field, value):
        problem = two_group_problem()
        values = {
            "tau": [0.1, 0.2], "baseline": [0.0, 0.0],
            "var_control": [1.0, 1.0], "var_treated": [1.0, 1.0],
        }
        values[field][0] = value
        with pytest.raises(ValidationError, match=f"scenario field {field} must be finite"):
            check_scenario(problem, TruthScenario(**values))

    @pytest.mark.parametrize(
        "value",
        [None, "x", 0.5, [None, 1.0], ["x", 1.0], [10**400], "12", b"12", [True],
         [np.True_], ""],
        ids=[
            "none", "string", "scalar", "none-entry", "string-entry", "huge-int-entry",
            "digit-string", "bytes", "bool-entry", "numpy-bool-entry", "empty-string",
        ],
    )
    @pytest.mark.parametrize("field", ["tau", "baseline", "var_control", "var_treated"])
    def test_non_numeric_field_raises_validation_error_naming_it(self, field, value):
        values = {"tau": [0.1], "baseline": [0.0], "var_control": [1.0], "var_treated": [1.0]}
        values[field] = value
        with pytest.raises(ValidationError, match=f"scenario field {field} must be a sequence"):
            TruthScenario(**values)

    def test_check_scenario_validates_its_problem(self):
        truth = TruthScenario(tau=(0.1,), baseline=(0.0,), var_control=(1.0,), var_treated=(1.0,))
        with pytest.raises(ValidationError, match="sum to 1"):
            check_scenario(DesignProblem(100, (GroupSpec("g0", 0.5, 1.0, 1.0),)), truth)

    def test_check_scenario_accepts_finite_values_whose_sum_overflows(self):
        problem = two_group_problem()
        truth = TruthScenario(
            tau=(1e308, 1e308), baseline=(-1e308, -1e308),
            var_control=(1e308, 1e308), var_treated=(1.0, 1.0),
        )
        assert check_scenario(problem, truth) == truth



def test_paradigm_is_exhaustive():
    assert {p.value for p in Paradigm} == {
        "separate-utilitarian",
        "joint-utilitarian",
        "separate-egalitarian",
    }


def test_group_spec_var_sum():
    spec = GroupSpec(label="g", weight=1.0, var_control=1.5, var_treated=2.5)
    assert spec.var_sum == 4.0


class TestCachedTuples:
    """``weights`` and ``var_sums`` are built once per instance and do not
    take part in equality, hashing or repr."""

    def test_problem_tuples_are_cached_and_match_groups(self):
        p = two_group_problem(weights=(0.3, 0.7), variances=((0.1, 0.2), (0.3, 0.4)))
        assert p.weights is p.weights
        assert p.var_sums is p.var_sums
        assert p.weights == tuple(g.weight for g in p.groups) == (0.3, 0.7)
        assert p.var_sums == tuple(g.var_control + g.var_treated for g in p.groups)

    def test_scenario_var_sums_cached_and_match_fields(self):
        truth = TruthScenario(
            tau=(0.1, -0.2), baseline=(0.0, 0.0), var_control=(0.1, 0.3), var_treated=(0.2, 0.4)
        )
        assert truth.var_sums is truth.var_sums
        assert truth.var_sums == (0.1 + 0.2, 0.3 + 0.4)

    def test_cache_leaves_equality_hash_and_repr_alone(self):
        read, fresh = two_group_problem(), two_group_problem()
        before = repr(read)
        read.weights, read.var_sums
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) == before


class TestStoredWhenBuilt:
    """``Allocation.total`` and ``TruthScenario.var_sums`` are stored when the
    instance is built, by every constructor, and stay out of equality,
    hashing and repr."""

    def test_allocation_total_is_stored(self):
        allocation = Allocation((np.int64(4), 6))
        assert allocation.__dict__["total"] == 10
        assert type(allocation.total) is int
        assert repr(allocation) == "Allocation(counts=(4, 6))"
        assert Allocation._from_counts((4, 6)) == allocation

    def test_scenario_var_sums_are_stored_by_both_constructors(self):
        fields = ((0.1, -0.2), (0.0, 0.0), (0.1, 0.3), (0.2, 0.4))
        problem = two_group_problem(variances=((0.1, 0.2), (0.3, 0.4)))
        built, on_problem = TruthScenario(*fields), TruthScenario._on_problem(fields[0], problem)
        for truth in (built, on_problem):
            assert truth.__dict__["var_sums"] == (0.1 + 0.2, 0.3 + 0.4)
            assert truth.__dict__["_length"] == 2
        # The profile shares the problem's checked tuples instead of copying them.
        for name in ("var_control", "var_treated", "var_sums"):
            assert getattr(on_problem, name) is getattr(problem, name)
        assert built == on_problem and hash(built) == hash(on_problem)
        assert repr(built) == repr(on_problem)
        flipped = dataclasses.replace(on_problem, tau=tuple(-t for t in built.tau))
        assert flipped.var_sums == built.var_sums

    def test_problem_tuples_are_stored_as_floats(self):
        p = two_group_problem(
            weights=(Fraction(1, 4), np.float64(0.75)),
            variances=((1, Fraction(1, 2)), (np.float64(0.25), 2)),
        )
        names = ("weights", "var_control", "var_treated", "var_sums")
        stored = {name: p.__dict__[name] for name in names}
        assert stored == {
            "weights": (0.25, 0.75), "var_control": (1.0, 0.25),
            "var_treated": (0.5, 2.0), "var_sums": (1.5, 2.25),
        }
        assert {type(v) for values in stored.values() for v in values} == {float}

    @pytest.mark.parametrize(
        "fields, fault",
        [
            (((0.1, 0.2), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0)), None),
            (((0.1, math.inf), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0)), "scenario field tau must be finite"),
            (((0.1, 0.2), (0.0, 0.0), (1.0, 1.0), (1.0, -1.0)), "group 1: scenario variances must be"),
        ],
        ids=["none", "infinite-tau", "negative-variance"],
    )
    def test_scenario_fault_is_stored_by_both_constructors(self, fields, fault):
        built = TruthScenario(*fields)
        tau, _, var_control, var_treated = fields
        if min(var_control + var_treated) <= 0.0:
            # A checked problem cannot carry a non-positive variance.
            scenarios = (built,)
        else:
            problem = two_group_problem(variances=tuple(zip(var_control, var_treated)))
            scenarios = (built, TruthScenario._on_problem(tau, problem))
        for truth in scenarios:
            if fault is None:
                assert truth.__dict__["_fault"] is None
                assert check_scenario(two_group_problem(), truth) is truth
            else:
                assert truth.__dict__["_fault"].startswith(fault)
                for _ in range(2):
                    with pytest.raises(ValidationError, match=fault):
                        check_scenario(two_group_problem(), truth)
        assert len({truth._fault for truth in scenarios}) == 1
