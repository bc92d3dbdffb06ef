"""The closed-form kernels against a reference copy of their helper-chain
formulas, bit for bit, and the scenario check's messages, fault by fault.

The kernels compute each group's term in one expression over values stored
when the inputs were built.  The reference below is the chain of helpers
they replaced (a standard error, a wrong-sign probability, a survival
function, the threshold constants read per call, sum(1/w) rebuilt per call),
run on the same interpreter, so a reordered operation shows as a different
``float.hex()``.  Inputs where a standard error underflows to 0 are left
out: the helper chain divides by it.  Two changes are copied into the
reference: the pooled standard error skips unsampled groups, whose
overflowed variance sum made it NaN (0 * inf), and a standard error is
sqrt(S / (n * 0.5)), the quotient sqrt(2.0 * S / n) rounded the same way
without 2.0 * S overflowing.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretalloc.model import (
    Allocation,
    DesignProblem,
    GroupSpec,
    Paradigm,
    TruthScenario,
    ValidationError,
    check_scenario,
)
from regretalloc.regret import (
    KAPPA_TOL,
    adversarial_tau_separate,
    expected_regret,
    joint_mismatch,
    worst_case,
)
from regretalloc.stats import normal_cdf, normal_sf, threshold_constants

# ---------------------------------------------------------------------------
# Reference: the helper chain
# ---------------------------------------------------------------------------


def ref_standard_error(var_sum, count):
    if count == 0:
        return math.inf
    return math.sqrt(var_sum / (count * 0.5))


def ref_pooled_standard_error(h, var_sums, total):
    # Unsampled groups are skipped: 0 * inf would make the sum NaN.
    return ref_standard_error(sum(hg * s for hg, s in zip(h, var_sums) if hg), total)


def ref_wrong_sign_probability(tau, se):
    if math.isinf(se):
        return 0.5
    return normal_sf(abs(tau) / se)


def ref_fractions(counts):
    total = sum(counts)
    return tuple(n / total for n in counts)


def ref_mismatch_terms(w, h):
    inv_w = sum(1.0 / x for x in w)
    inv_h = sum(1.0 / x for x in h)
    scale = sum(wg / hg for wg, hg in zip(w, h))
    return scale - len(w) * inv_h / inv_w, scale, inv_h / inv_w


def ref_group_weights(weights, paradigm):
    return (1.0,) * len(weights) if paradigm is Paradigm.SEPARATE_EGALITARIAN else weights


def ref_combine(per_group, paradigm):
    return max(per_group) if paradigm is Paradigm.SEPARATE_EGALITARIAN else sum(per_group)


def ref_worst_case(weights, var_sums, counts, paradigm):
    c0 = threshold_constants().c0
    if paradigm is Paradigm.JOINT_UTILITARIAN:
        if any(n == 0 for n in counts):
            return math.inf, None
        h = ref_fractions(counts)
        if any(abs(hg / wg - 1.0) > KAPPA_TOL for hg, wg in zip(h, weights)):
            return math.inf, None
        factor = ref_mismatch_terms(weights, h)[2]
        return factor * c0 * ref_pooled_standard_error(h, var_sums, sum(counts)), None
    per_group = tuple(
        w * c0 * math.sqrt(s / (n * 0.5)) if n else math.inf
        for w, s, n in zip(ref_group_weights(weights, paradigm), var_sums, counts)
    )
    return ref_combine(per_group, paradigm), per_group


def ref_expected_regret(weights, counts, tau, var_sums, paradigm):
    if paradigm is Paradigm.JOINT_UTILITARIAN:
        aggregate = sum(w * t for w, t in zip(weights, tau))
        if aggregate == 0.0:
            return 0.0, None
        total = sum(counts)
        if total == 0:
            return abs(aggregate) / 2.0, None
        h = ref_fractions(counts)
        tau_bar = sum(hg * t for hg, t in zip(h, tau))
        stat = tau_bar / ref_pooled_standard_error(h, var_sums, total)
        if aggregate > 0.0:
            return aggregate * normal_sf(stat), None
        return -aggregate * normal_cdf(stat), None
    per_group = tuple(
        w * (abs(t) * ref_wrong_sign_probability(t, ref_standard_error(s, n)))
        for w, t, s, n in zip(ref_group_weights(weights, paradigm), tau, var_sums, counts)
    )
    return ref_combine(per_group, paradigm), per_group


def hexes(values):
    return None if values is None else tuple(v.hex() for v in values)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

# Small, ordinary and huge variances; two of ~1.7e308 make S or 2*S overflow.
VARIANCES = st.one_of(
    st.floats(1e-12, 1e-6),
    st.floats(1e-3, 10.0),
    st.floats(1e307, 1.7e308),
)
EFFECTS = st.one_of(st.just(0.0), st.floats(-5.0, 5.0), st.floats(-1e-6, 1e-6))


@st.composite
def cases(draw):
    G = draw(st.integers(1, 12))
    shares = draw(st.lists(st.integers(1, 1000), min_size=G, max_size=G))
    weights = [k / sum(shares) for k in shares]
    # Even counts, zeros among them, up to a million per group.
    counts = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 500_000).map(lambda k: 2 * k)),
            min_size=G,
            max_size=G,
        )
    )
    if draw(st.booleans()):  # weight-proportional counts give a finite pooled worst case
        scale = draw(st.integers(1, 2000))
        counts = [2 * k * scale for k in shares]
    design = draw(st.lists(VARIANCES, min_size=2 * G, max_size=2 * G))
    scenario = draw(st.lists(VARIANCES, min_size=2 * G, max_size=2 * G))
    tau = draw(st.lists(EFFECTS, min_size=G, max_size=G))
    problem = DesignProblem(
        budget=max(2 * G, sum(counts)),
        groups=tuple(
            GroupSpec(f"g{g}", weights[g], design[2 * g], design[2 * g + 1]) for g in range(G)
        ),
    )
    truth = TruthScenario(tau, (0.0,) * G, scenario[0::2], scenario[1::2])
    return problem, Allocation(tuple(counts)), truth


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=300)
@given(cases())
def test_kernels_equal_the_helper_chain_bit_for_bit(case):
    problem, allocation, truth = case
    weights, counts = problem.weights, allocation.counts
    for paradigm in Paradigm:
        value, per_group = ref_worst_case(weights, problem.var_sums, counts, paradigm)
        result = worst_case(problem, allocation, paradigm)
        assert result.value.hex() == value.hex(), paradigm
        assert hexes(result.per_group) == hexes(per_group), paradigm

        value, per_group = ref_expected_regret(weights, counts, truth.tau, truth.var_sums, paradigm)
        result = expected_regret(problem, allocation, truth, paradigm)
        assert result.value.hex() == value.hex(), paradigm
        assert hexes(result.per_group) == hexes(per_group), paradigm

    if 0 in counts:
        assert joint_mismatch(problem, allocation) == math.inf
        with pytest.raises(ValidationError, match="unsampled groups"):
            adversarial_tau_separate(problem, allocation)
        return
    kappa = ref_mismatch_terms(weights, ref_fractions(counts))[0]
    assert joint_mismatch(problem, allocation).hex() == kappa.hex()
    t_star = threshold_constants().t_star
    expected_tau = tuple(
        t_star * ref_standard_error(s, n) for s, n in zip(problem.var_sums, counts)
    )
    assert hexes(adversarial_tau_separate(problem, allocation).tau) == hexes(expected_tau)


# ---------------------------------------------------------------------------
# Scenario faults: one per case, each with the message it has always raised
# ---------------------------------------------------------------------------

FIELDS = ("tau", "baseline", "var_control", "var_treated")
GOOD = {"tau": (0.1, -0.2, 0.0), "baseline": (0.0, 1.0, 2.0),
        "var_control": (1.0, 2.0, 0.5), "var_treated": (0.5, 1.0, 3.0)}


def single_faults():
    for name in FIELDS:
        for values, message in (
            (GOOD[name][:2], f"scenario field {name} has 2 entries for 3 groups"),
            (GOOD[name] + (1.0,), f"scenario field {name} has 4 entries for 3 groups"),
        ):
            yield pytest.param(name, values, message, id=f"{name}-length-{len(values)}")
        for bad in (math.nan, math.inf, -math.inf):
            values = GOOD[name][:1] + (bad,) + GOOD[name][2:]
            message = f"scenario field {name} must be finite, got {values}"
            yield pytest.param(name, values, message, id=f"{name}-{bad}")
        if name.startswith("var_"):
            for bad in (0.0, -1.0):
                values = GOOD[name][:2] + (bad,)
                message = "group 2: scenario variances must be positive"
                yield pytest.param(name, values, message, id=f"{name}-{bad}")


@pytest.mark.parametrize("name, values, message", list(single_faults()))
def test_each_single_fault_raises_its_message(name, values, message):
    problem = DesignProblem(
        budget=12,
        groups=tuple(GroupSpec(f"g{g}", w, 1.0, 1.0) for g, w in enumerate((0.25, 0.25, 0.5))),
    )
    truth = TruthScenario(**{**GOOD, name: values})
    with pytest.raises(ValidationError) as raised:
        check_scenario(problem, truth)
    assert str(raised.value) == message
    allocation = Allocation((4, 4, 4))
    for paradigm in Paradigm:
        with pytest.raises(ValidationError) as raised:
            expected_regret(problem, allocation, truth, paradigm)
        assert str(raised.value) == message
