"""Every value is checked when it is built, and regret results are built
without re-coercing their per-group terms.  No call writes to its arguments,
and an invalid input raises the same ValidationError on every call."""

import dataclasses
import math
import pickle
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from regretalloc.allocate import allocate
from regretalloc.casestudy import IncidenceSpec, PowerSpec, default_config
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
from regretalloc.regret import (
    RegretSummary,
    adversarial_tau_separate,
    expected_regret,
    joint_mismatch,
    worst_case,
)
from regretalloc.simulate import MonteCarloEstimate, SimConfig, monte_carlo_regret

BAD_NUMBERS = st.sampled_from(
    [0.0, -1.0, float("nan"), float("inf"), float("-inf"), "1", None,
     10**400, Fraction(1, 10**400)]
)
BAD_BUDGETS = st.sampled_from([float("nan"), 100.5, "100", None, True, 1, 2**53 + 2])


@st.composite
def problems(draw, n_groups):
    """A function that builds a valid problem, or one with a single fault in
    a weight, a variance, the weight sum or the budget (which raises when
    built)."""
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n_groups, max_size=n_groups))
    specs = [
        [r / sum(raw), draw(st.floats(0.01, 4.0)), draw(st.floats(0.01, 4.0))] for r in raw
    ]
    budget = draw(st.integers(2 * n_groups, 400))
    fault = draw(st.sampled_from(["none", "none", "group", "sum", "budget"]))
    if fault == "group":
        specs[draw(st.integers(0, n_groups - 1))][draw(st.integers(0, 2))] = draw(BAD_NUMBERS)
    elif fault == "sum":
        specs[0][0] *= 1.5
    elif fault == "budget":
        budget = draw(BAD_BUDGETS)
    groups = tuple(GroupSpec(f"g{g}", *spec) for g, spec in enumerate(specs))
    return lambda: DesignProblem(budget=budget, groups=groups)


def allocations(n_groups):
    """Allocation counts: even mostly; odd, negative and wrong-length ones too.
    An odd or negative ``Allocation`` raises when it is built, so each call
    builds its own."""
    count = st.one_of(st.integers(0, 100).map(lambda k: 2 * k), st.integers(-3, 201))
    length = st.sampled_from([n_groups, n_groups, n_groups, n_groups + 1])
    return length.flatmap(lambda n: st.lists(count, min_size=n, max_size=n)).map(tuple)


def truths(n_groups):
    """A finite scenario with positive variances, or one with a NaN or inf
    value, a non-positive variance or a field of the wrong length."""
    effect = st.one_of(
        st.floats(-2.0, 2.0), st.sampled_from([float("nan"), float("inf")])
    )
    variance = st.one_of(st.floats(0.01, 4.0), st.sampled_from([0.0, -1.0]))
    length = st.sampled_from([n_groups, n_groups, n_groups, n_groups - 1])
    return length.flatmap(
        lambda n: st.builds(
            TruthScenario,
            tau=st.lists(effect, min_size=n, max_size=n),
            baseline=st.just((0.0,) * n),
            var_control=st.lists(variance, min_size=n, max_size=n),
            var_treated=st.lists(variance, min_size=n, max_size=n),
        )
    )


@st.composite
def inputs(draw):
    n_groups = draw(st.integers(1, 3))
    return draw(problems(n_groups)), draw(allocations(n_groups)), draw(truths(n_groups))


def entry_points(problem, allocation, truth):
    """Every public call that validates, by name; each takes its problem and
    allocation from ``problem()`` and ``allocation()``."""
    calls = {"joint_mismatch": lambda: joint_mismatch(problem(), allocation())}
    for p in Paradigm:
        calls[f"worst_case[{p.name}]"] = lambda p=p: worst_case(problem(), allocation(), p)
        calls[f"expected_regret[{p.name}]"] = lambda p=p: expected_regret(
            problem(), allocation(), truth, p
        )
    calls["adversarial_tau_separate"] = lambda: adversarial_tau_separate(
        problem(), allocation()
    )
    calls["allocate"] = lambda: allocate(problem(), "minimax", redistribute=True)
    calls["monte_carlo_regret"] = lambda: monte_carlo_regret(
        problem(), allocation(), truth, Paradigm.SEPARATE_UTILITARIAN,
        SimConfig(replications=1, master_seed=0), level="estimator",
    )
    return calls


def built_once(build):
    """(a function returning one shared instance, that instance), or, when
    building raises, (``build``, None): each call then raises again."""
    try:
        instance = build()
    except ValidationError:
        return build, None
    return (lambda: instance), instance


def outcome(call):
    """("ok", result) or ("error", message); any other exception escapes."""
    try:
        return ("ok", call())
    except ValidationError as err:
        return ("error", str(err))


def fresh(instance):
    """An equal instance built through the constructor, never passed to a call before."""
    return dataclasses.replace(instance)


@given(inputs())
def test_every_call_repeats_its_result_or_its_error(case):
    build_problem, counts, truth = case
    build_allocation = partial(Allocation, counts)
    problem, shared_problem = built_once(build_problem)
    allocation, shared_allocation = built_once(build_allocation)
    shared_values = [v for v in (shared_problem, shared_allocation, truth) if v is not None]
    shared = entry_points(problem, allocation, truth)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, call in shared.items():
            # Inputs never passed to a call before give the reference
            # outcome; the shared inputs have been through every earlier call.
            expected = outcome(entry_points(build_problem, build_allocation, fresh(truth))[name])
            before = [dict(vars(v)) for v in shared_values]
            assert outcome(call) == expected, name
            assert outcome(call) == expected, name
            assert [vars(v) for v in shared_values] == before, name


def valid_problem(n_groups=2, budget=100):
    groups = tuple(GroupSpec(f"g{g}", 1.0 / n_groups, 1.0, 2.0) for g in range(n_groups))
    return DesignProblem(budget=budget, groups=groups)


def valid_truth(n_groups=2):
    return TruthScenario(
        tau=(0.3,) * n_groups,
        baseline=(0.0,) * n_groups,
        var_control=(1.0,) * n_groups,
        var_treated=(2.0,) * n_groups,
    )


class TestPairingIsCheckedEveryCall:
    def test_validated_problem_with_allocation_of_another_group_count(self):
        problem = validate_problem(valid_problem(2))
        allocation = check_allocation(valid_problem(3), Allocation((2, 2, 2)))
        for _ in range(2):
            with pytest.raises(ValidationError, match="allocation has 3 entries for 2 groups"):
                worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN)

    def test_validated_problem_with_truth_of_another_group_count(self):
        problem = validate_problem(valid_problem(2))
        truth = check_scenario(valid_problem(3), valid_truth(3))
        for _ in range(2):
            with pytest.raises(ValidationError, match="scenario field tau has 3 entries for 2 groups"):
                expected_regret(problem, Allocation((2, 2)), truth, Paradigm.SEPARATE_UTILITARIAN)

    def test_checked_allocation_over_a_smaller_budget(self):
        allocation = check_allocation(valid_problem(2, budget=100), Allocation((40, 40)))
        small = validate_problem(valid_problem(2, budget=60))
        for _ in range(2):
            with pytest.raises(ValidationError, match="allocation total 80 exceeds budget 60"):
                check_allocation(small, allocation)


class TestRecordStaysOutOfTheValue:
    @pytest.mark.parametrize("make, check", [
        (valid_problem, validate_problem),
        (lambda: Allocation((2, 4)), lambda a: check_allocation(valid_problem(2), a)),
        (valid_truth, lambda t: check_scenario(valid_problem(2), t)),
    ])
    def test_equality_hash_repr_and_pickle(self, make, check):
        checked, unchecked = make(), make()
        check(checked)
        assert checked == unchecked and hash(checked) == hash(unchecked)
        assert repr(checked) == repr(unchecked)
        copy = pickle.loads(pickle.dumps(checked))
        assert copy == unchecked and hash(copy) == hash(unchecked) and repr(copy) == repr(unchecked)

    def test_replace_is_validated_afresh(self):
        problem = validate_problem(valid_problem(2))
        for budget in (3, float("nan")):
            with pytest.raises(ValidationError, match="budget"):
                validate_problem(dataclasses.replace(problem, budget=budget))
        truth = check_scenario(problem, valid_truth(2))
        with pytest.raises(ValidationError, match="must be finite"):
            check_scenario(problem, dataclasses.replace(truth, tau=(math.nan, 0.3)))
        allocation = check_allocation(problem, Allocation((2, 4)))
        with pytest.raises(ValidationError, match="count 3 is odd"):
            check_allocation(problem, dataclasses.replace(allocation, counts=(2, 3)))


class TestRegretSummary:
    P = Paradigm.SEPARATE_UTILITARIAN

    def test_public_constructor_coerces_per_group_to_float(self):
        summary = RegretSummary(self.P, 1.0, [1, np.float64(0.5), Fraction(1, 4)])
        assert summary.per_group == (1.0, 0.5, 0.25)
        assert [type(v) for v in summary.per_group] == [float] * 3

    @pytest.mark.parametrize("value", [math.nan, -1e-300, -math.inf], ids=repr)
    def test_nan_and_negative_values_are_rejected(self, value):
        with pytest.raises(ValidationError, match="nonnegative real or inf"):
            RegretSummary(self.P, value)
        with pytest.raises(ValidationError, match="nonnegative real or inf"):
            RegretSummary._from_floats(self.P, value, (1.0,))

    @pytest.mark.parametrize(
        "args, match",
        [
            ((P, None), "regret must be a nonnegative real or inf"),
            ((P, np.array([1.0, 2.0])), "regret must be a nonnegative real or inf"),
            ((P, True), "regret must be a nonnegative real or inf"),
            ((P, 0.5, "x"), "per_group must be a sequence of real numbers"),
            ((P, 0.5, 1.5), "per_group must be a sequence of real numbers"),
            ((P, 0.5, (10**400,)), "per_group must be a sequence of real numbers"),
            ((P, 0.5, ("0.5",)), "per_group must be a sequence of real numbers"),
            ((P, 0.5, (True, 0.5)), "per_group must be a sequence of real numbers"),
            ((P, 0.5, b"ab"), "per_group must be a sequence of real numbers"),
            ((P, 0.5, (math.nan, 0.25)), "per_group entries must be nonnegative reals or inf"),
            ((P, 0.5, (0.25, -1.0)), "per_group entries must be nonnegative reals or inf"),
            ((P, 0.5, (-math.inf,)), "per_group entries must be nonnegative reals or inf"),
            ((P, 0.5, (0.25, -1e-300)), "per_group entries must be nonnegative reals or inf"),
            (("separate", 0.5), "paradigm must be a Paradigm"),
        ],
        ids=["none", "array", "bool", "string", "bare-number", "huge", "digit-string",
             "bool-entry", "bytes", "nan-entry", "negative-entry", "negative-inf-entry",
             "tiny-negative-entry", "paradigm-name"],
    )
    def test_public_constructor_rejects_bad_fields(self, args, match):
        with pytest.raises(ValidationError, match=match):
            RegretSummary(*args)

    @pytest.mark.parametrize("entry", [0.0, -0.0, math.inf], ids=repr)
    def test_public_constructor_keeps_zero_and_inf_entries(self, entry):
        # The kernels give 0 for a zero effect and inf for an unsampled group.
        summary = RegretSummary(self.P, 0.5, (entry, 0.25))
        assert summary.per_group == (entry, 0.25)

    @pytest.mark.parametrize("paradigm", Paradigm, ids=lambda p: p.name)
    @pytest.mark.parametrize("per_group", [None, (0.25, 0.5)], ids=["scalar", "per-group"])
    def test_both_constructors_give_equal_summaries_with_equal_hashes(self, paradigm, per_group):
        public = RegretSummary(paradigm, 0.75, per_group)
        kernel = RegretSummary._from_floats(paradigm, 0.75, per_group)
        assert public == kernel
        assert hash(public) == hash(kernel)

    @given(
        st.integers(1, 6).flatmap(
            lambda g: st.tuples(
                st.lists(st.floats(0.05, 1.0), min_size=g, max_size=g),
                st.lists(st.floats(0.01, 4.0), min_size=g, max_size=g),
                st.lists(st.integers(0, 60), min_size=g, max_size=g).filter(any),
                st.lists(st.floats(-1.0, 1.0), min_size=g, max_size=g),
                st.booleans(),
            )
        )
    )
    def test_kernel_summaries_match_the_public_constructor(self, case):
        raw, variances, pairs, tau, as_numpy = case
        weights = np.asarray(raw) / sum(raw) if as_numpy else [r / sum(raw) for r in raw]
        weights = tuple(weights)
        assume(abs(sum(weights) - 1.0) <= 1e-9)
        problem = DesignProblem(
            budget=max(2 * sum(pairs), 2 * len(raw)),
            groups=tuple(
                GroupSpec(f"g{g}", w, v, v) for g, (w, v) in enumerate(zip(weights, variances))
            ),
        )
        allocation = Allocation(tuple(2 * k for k in pairs))
        truth = TruthScenario(tau, (0.0,) * len(tau), variances, variances)
        for p in Paradigm:
            for summary in (
                worst_case(problem, allocation, p),
                expected_regret(problem, allocation, truth, p),
            ):
                reference = RegretSummary(summary.paradigm, summary.value, summary.per_group)
                assert summary == reference
                assert type(summary.value) is float
                if summary.per_group is not None:
                    assert type(summary.per_group) is tuple
                    assert [type(v) for v in summary.per_group] == [float] * len(raw)


def stored_leaves(value):
    """The scalars inside ``value``, through tuples and dict values."""
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in stored_leaves(item)]
    return [value]


@pytest.mark.parametrize(
    "integer, real", [(np.int64, np.float32), (np.uint64, Fraction)], ids=["float32", "fraction"]
)
def test_every_checked_value_stores_python_numbers(integer, real):
    """Each value stores the Python int or float it checked, in its fields
    and in what it derives, whatever numbers it was built from; only a
    problem's ``groups`` are the caller's own."""
    built = [
        DesignProblem(
            integer(40),
            (
                GroupSpec("a", real(0.25), real(0.5), integer(2)),
                GroupSpec("b", real(0.75), integer(1), real(0.25)),
            ),
        ),
        Allocation((integer(4), integer(6))),
        TruthScenario(
            (real(-0.5), integer(1)), (integer(0), real(0.25)),
            (real(0.5), integer(1)), (integer(2), real(0.25)),
        ),
        RegretSummary(Paradigm.SEPARATE_UTILITARIAN, real(0.5), (real(0.25), integer(1))),
        SimConfig(integer(10), integer(3)),
        MonteCarloEstimate(real(0.5), real(0.25), integer(10)),
        IncidenceSpec(
            (real(0.25), integer(0)), (real(0.5), integer(1)),
            (real(0.25), integer(0)), (real(0.5), integer(0)), real(0.5),
        ),
        PowerSpec(real(-0.5), real(0.75), real(0.25), (real(0.5),), (integer(1),)),
        dataclasses.replace(
            default_config(), weights=(real(0.75), real(0.25)), budget=integer(40),
            beta_cases=(real(0.5), integer(0)), detectable_effect=real(-0.5),
        ),
    ]
    not_python = [
        (type(value).__name__, name)
        for value in built
        for name, stored in vars(value).items()
        if name != "groups"
        and any(
            type(x) not in (int, float)
            for x in stored_leaves(stored)
            if not isinstance(x, (str, Paradigm, type(None)))
        )
    ]
    assert not_python == []
