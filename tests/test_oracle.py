"""A randomized 50-digit oracle for the closed forms in ``regret``.

Hypothesis draws problems with G = 1-6 groups, arm variances 1e-8 to 1e2,
even counts 2 to 2e6 (every group sampled; the budget is their total) and
effects |tau| 1e-6 to 10 of either sign.  mpmath evaluates each formula of
the ``regret`` module docstring at 50 digits on the same float inputs, and
``worst_case`` and ``expected_regret`` must agree with it under all three
paradigms.  For the pooled worst case the weights are the sampling
fractions, so that K is within ``KAPPA_TOL`` and Hj is finite.

The adversarial paths are checked the same way: ``adversarial_tau_separate``
and the H it attains, and ``joint_adversarial_tau`` and
``joint_regret_expression`` against their docstring formulas, with the
weights left generic (K away from 0) and t_dagger where phi(t) is a normal
float, |t| <= 37.5.  One fixed case puts a group's variance sum at 1e308,
where 2.0 * S overflows but every result is in float range.

Only exact values above 1e-300 are compared: below that the float result
may lose digits to underflow, and it must only stay below 1e-300 too.
"""

import math
import sys

import mpmath
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
)
from regretalloc.regret import (
    adversarial_tau_separate,
    expected_regret,
    joint_adversarial_tau,
    joint_regret_expression,
    worst_case,
)

DIGITS = 50
TINY = 1e-300
HUGE = 1e300
EPS = sys.float_info.epsilon


def sf(x):
    """Phi_c(x) at the working precision.  P(treat) is ``sf(-x)``, never
    ``1 - sf(x)``, which loses every value below about 10**-DIGITS."""
    return mpmath.erfc(x / mpmath.sqrt(2)) / 2


with mpmath.workdps(DIGITS):
    # t* solves t * phi(t) = Phi_c(t), and c0 = t* Phi_c(t*).
    T_STAR = mpmath.findroot(lambda t: t * mpmath.npdf(t) - sf(t), 0.75)
    C0 = T_STAR * sf(T_STAR)


@st.composite
def instances(draw, matched=False):
    """(weights, var_control, var_treated, counts, tau); with ``matched``,
    the weights are the sampling fractions."""
    n = draw(st.integers(min_value=1, max_value=6))

    def log_uniform(low, high):
        exponents = st.floats(min_value=math.log10(low), max_value=math.log10(high))
        return [10.0**e for e in draw(st.lists(exponents, min_size=n, max_size=n))]

    counts = [2 * k for k in draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))]
    if matched:
        weights = [c / sum(counts) for c in counts]
    else:
        raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n))
        weights = [r / sum(raw) for r in raw]
        weights[-1] = 1.0 - sum(weights[:-1])
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    tau = [s * t for s, t in zip(signs, log_uniform(1e-6, 10.0))]
    return weights, log_uniform(1e-8, 1e2), log_uniform(1e-8, 1e2), counts, tau


def library_inputs(weights, var_control, var_treated, counts, tau):
    """The problem, allocation and scenario the library sees."""
    groups = tuple(
        GroupSpec(f"g{g}", w, c, t)
        for g, (w, c, t) in enumerate(zip(weights, var_control, var_treated))
    )
    truth = TruthScenario(tuple(tau), (0.0,) * len(tau), tuple(var_control), tuple(var_treated))
    return DesignProblem(sum(counts), groups), Allocation(tuple(counts)), truth


def exact_terms(weights, var_control, var_treated, counts):
    """(w, S, h, total) at the working precision: the weights, the summed
    arm variances and the sampling fractions, from the float inputs."""
    total = sum(counts)
    return (
        [mpmath.mpf(w) for w in weights],
        [mpmath.mpf(c) + mpmath.mpf(t) for c, t in zip(var_control, var_treated)],
        [mpmath.mpf(n) / total for n in counts],
        total,
    )


def exact_worst_case(paradigm, weights, var_control, var_treated, counts):
    """H, Hj or He: c0 * sum_g w_g se_g, F * c0 * pooled se, c0 * max_g se_g."""
    w, s, h, total = exact_terms(weights, var_control, var_treated, counts)
    if paradigm.pooled:
        factor = mpmath.fsum(1 / x for x in h) / mpmath.fsum(1 / x for x in w)
        return factor * C0 * mpmath.sqrt(2 * mpmath.fsum(x * v for x, v in zip(h, s)) / total)
    se = [mpmath.sqrt(2 * v / n) for v, n in zip(s, counts)]
    if paradigm.worst_off:
        return C0 * max(se)
    return C0 * mpmath.fsum(x * e for x, e in zip(w, se))


def exact_expected_regret(paradigm, weights, var_control, var_treated, counts, tau):
    """The sign rule's expected regret: |tau_g| Phi_c(|tau_g|/se_g) per group,
    weighted and summed or maxed; pooled, the aggregate effect times the
    chance that the sign of the sampling-weighted estimate is wrong."""
    w, s, h, total = exact_terms(weights, var_control, var_treated, counts)
    t = [mpmath.mpf(x) for x in tau]
    if paradigm.pooled:
        aggregate = mpmath.fsum(x * y for x, y in zip(w, t))
        z = mpmath.fsum(x * y for x, y in zip(h, t)) / mpmath.sqrt(
            2 * mpmath.fsum(x * v for x, v in zip(h, s)) / total
        )
        return aggregate * sf(z) if aggregate > 0 else -aggregate * sf(-z)
    terms = [abs(y) * sf(abs(y) / mpmath.sqrt(2 * v / n)) for y, v, n in zip(t, s, counts)]
    if paradigm.worst_off:
        return max(terms)
    return mpmath.fsum(x * y for x, y in zip(w, terms))


def pooled_rounding_bound(weights, var_control, var_treated, counts, tau):
    """The order of the relative error that rounding in the pooled decision's
    two float sums causes: G * eps * (sum_g |w_g tau_g| / |aggregate| +
    (|z| + 1) * sum_g |h_g tau_g| / se), where z is the standardized pooled
    mean and |z| + 1 bounds phi/Phi_c's relative slope.  Where the effects
    cancel in either sum it outgrows any fixed tolerance; measured errors
    reach 1.2 times it."""
    w, s, h, total = exact_terms(weights, var_control, var_treated, counts)
    t = [mpmath.mpf(x) for x in tau]
    se = mpmath.sqrt(2 * mpmath.fsum(x * v for x, v in zip(h, s)) / total)
    z = abs(mpmath.fsum(x * y for x, y in zip(h, t))) / se
    spread = mpmath.fsum(abs(x * y) for x, y in zip(h, t)) / se
    cancellation = mpmath.fsum(abs(x * y) for x, y in zip(w, t)) / abs(
        mpmath.fsum(x * y for x, y in zip(w, t))
    )
    return float(len(counts) * EPS * (cancellation + (z + 1) * spread))


def relative_error(got, exact):
    """|got - exact| / exact, or None where exact is at most TINY (and got
    is then at most TINY too)."""
    if exact <= TINY:
        assert got <= TINY, (got, exact)
        return None
    return float(abs(mpmath.mpf(got) - exact) / exact)


# Tolerances, each set from the largest relative error measured over 21,000
# draws per paradigm (3 runs of 7,000 from ``instances``).  Worst cases:
# 6.1e-16 (H), 4.7e-16 (Hj) and 4.0e-16 (He).  Expected regret: 2.8e-13
# (separate and worst-off).  Pooled expected regret: up to 9.2e-12 where the
# effects cancel (3.6e-11 in two earlier runs of 7,000), and never more than
# 1.6e-14 past ``pooled_rounding_bound``.
WORST_CASE_TOL = 2e-15
EXPECTED_REGRET_TOL = 1e-12


@pytest.mark.parametrize("paradigm", list(Paradigm), ids=lambda p: p.value)
@settings(max_examples=100)
@given(data=st.data())
def test_worst_case_matches_the_oracle(paradigm, data):
    inputs = data.draw(instances(matched=paradigm.pooled))
    got = worst_case(*library_inputs(*inputs)[:2], paradigm).value
    with mpmath.workdps(DIGITS):
        error = relative_error(got, exact_worst_case(paradigm, *inputs[:4]))
    assert error is None or error <= WORST_CASE_TOL, (got, inputs)


@pytest.mark.parametrize("paradigm", list(Paradigm), ids=lambda p: p.value)
@settings(max_examples=100)
@given(inputs=instances())
def test_expected_regret_matches_the_oracle(paradigm, inputs):
    got = expected_regret(*library_inputs(*inputs), paradigm).value
    with mpmath.workdps(DIGITS):
        error = relative_error(got, exact_expected_regret(paradigm, *inputs))
        tolerance = EXPECTED_REGRET_TOL
        if error is not None and paradigm.pooled:
            tolerance += pooled_rounding_bound(*inputs)
    assert error is None or error <= tolerance, (got, inputs)


def exact_joint_expression(weights, var_control, var_treated, counts, t):
    """``joint_regret_expression``'s docstring formula, se * (K * Phi_c(t)^2 /
    phi(t) + F * t * Phi_c(t)), and its magnitude: the same sum over the
    absolute value of every part, with K's two parts, sum_g w_g/h_g and G*F,
    added.  Rounding the float inputs' K and the two terms moves the result
    by a multiple of that magnitude, also where the parts cancel."""
    w, s, h, total = exact_terms(weights, var_control, var_treated, counts)
    t = mpmath.mpf(t)
    scale = mpmath.fsum(x / y for x, y in zip(w, h))
    factor = mpmath.fsum(1 / x for x in h) / mpmath.fsum(1 / x for x in w)
    tail = sf(t) ** 2 / mpmath.npdf(t)
    se = mpmath.sqrt(2 * mpmath.fsum(x * v for x, v in zip(h, s)) / total)
    value = se * ((scale - len(counts) * factor) * tail + factor * t * sf(t))
    magnitude = se * ((scale + len(counts) * factor) * tail + factor * abs(t) * sf(t))
    return value, magnitude


def exact_joint_profile(weights, var_control, var_treated, counts, t):
    """``joint_adversarial_tau``'s docstring formula per group, and each
    entry's magnitude, the same sum over the absolute value of every part."""
    w, s, h, total = exact_terms(weights, var_control, var_treated, counts)
    t = mpmath.mpf(t)
    ratio = sf(t) / mpmath.npdf(t)
    inv_w = mpmath.fsum(1 / x for x in w)
    scale = mpmath.sqrt(2 * mpmath.fsum(x * x * v for x, v in zip(h, s)) / total)
    G = len(counts)
    return [
        (
            scale / x * (ratio + (t / y - G * ratio / y) / inv_w),
            scale / x * (ratio + (abs(t) / y + G * ratio / y) / inv_w),
        )
        for x, y in zip(h, w)
    ]


def assert_within(got, exact, magnitude, tolerance):
    """|got - exact| <= tolerance * magnitude (+ TINY, for underflow); an
    infinite ``got`` only where |exact| is past HUGE, with its sign, and a
    finite one only where exact is in float range."""
    if math.isinf(got):
        assert abs(exact) > HUGE and (got > 0) == (exact > 0), (got, exact)
    else:
        assert abs(exact) <= sys.float_info.max, (got, exact)
        assert abs(mpmath.mpf(got) - exact) <= tolerance * magnitude + TINY, (got, exact)


# Measured over 9,000 draws each (3 runs of 3,000 from ``instances`` and
# T_DAGGER), as a fraction of the magnitude: 1.8e-13 for
# ``joint_regret_expression`` and 4.6e-14 for ``joint_adversarial_tau``;
# both grow as t^2 * eps, phi(t)'s relative error.  (The expression read
# 7.8e-2 while it multiplied Phi_c(t) by itself before dividing by phi(t):
# past t ~ 26.5 the square underflowed and took the K term with it.)
# ``adversarial_tau_separate``, relative: its profile against the 50-digit
# t_star and the H it attains, each within a few ulps (the profile read
# 5.8e-13 while ``stats`` stopped its bisection at a 1e-12 bracket).
ADVERSARIAL_PATH_TOL = 1e-12
SEPARATE_PROFILE_TOL = 2e-15
T_DAGGER = st.floats(min_value=-37.5, max_value=37.5)


@settings(max_examples=100)
@given(inputs=instances(), t_dagger=T_DAGGER)
def test_joint_regret_expression_matches_the_oracle(inputs, t_dagger):
    got = joint_regret_expression(*library_inputs(*inputs)[:2], t_dagger)
    with mpmath.workdps(DIGITS):
        exact, magnitude = exact_joint_expression(*inputs[:4], t_dagger)
        assert_within(got, exact, magnitude, ADVERSARIAL_PATH_TOL)


def test_joint_regret_expression_keeps_its_mismatch_term_in_the_right_tail(covid_cases):
    # The bundled beta = 0.005 case at its minimax allocation, where K = 0.51.
    problem = covid_cases[0].problem
    counts = (6100, 3218)
    got = joint_regret_expression(problem, Allocation(counts), 30.0)
    with mpmath.workdps(DIGITS):
        exact, _ = exact_joint_expression(
            problem.weights, problem.var_control, problem.var_treated, counts, 30.0
        )
        assert relative_error(got, exact) <= 1e-12


@settings(max_examples=50)
@given(inputs=instances(), t_dagger=T_DAGGER)
def test_joint_adversarial_tau_matches_its_docstring(inputs, t_dagger):
    try:
        tau = joint_adversarial_tau(*library_inputs(*inputs)[:2], t_dagger).tau
    except ValidationError:  # as documented: deep in the left tail a term leaves float range
        tau = None
    with mpmath.workdps(DIGITS):
        exact = exact_joint_profile(*inputs[:4], t_dagger)
        if tau is None:
            ratio = sf(mpmath.mpf(t_dagger)) / mpmath.npdf(t_dagger)
            largest = max(ratio * len(inputs[3]) / min(inputs[0]), *(m for _, m in exact))
            assert largest > sys.float_info.max
            return
        for got, (value, magnitude) in zip(tau, exact):
            assert_within(got, value, magnitude, ADVERSARIAL_PATH_TOL)


@settings(max_examples=50)
@given(inputs=instances())
def test_adversarial_tau_separate_attains_the_separate_worst_case(inputs):
    problem, allocation, _ = library_inputs(*inputs)
    truth = adversarial_tau_separate(problem, allocation)
    got = expected_regret(problem, allocation, truth, Paradigm.SEPARATE_UTILITARIAN).value
    weights, var_control, var_treated, counts, _ = inputs
    with mpmath.workdps(DIGITS):
        _, s, _, _ = exact_terms(weights, var_control, var_treated, counts)
        for tau, v, n in zip(truth.tau, s, counts):
            assert relative_error(tau, T_STAR * mpmath.sqrt(2 * v / n)) <= SEPARATE_PROFILE_TOL
        exact = exact_worst_case(Paradigm.SEPARATE_UTILITARIAN, *inputs[:4])
        assert relative_error(got, exact) <= SEPARATE_PROFILE_TOL


@pytest.mark.parametrize("paradigm", list(Paradigm), ids=lambda p: p.value)
def test_closed_forms_near_the_top_of_float_range(paradigm):
    # S = 1e308 in group 0: 2.0 * S overflows, while every standard error,
    # worst case and effect is far inside float range.  The weights are the
    # sampling fractions, so Hj is finite too.
    inputs = ([0.25, 0.75], [5e307, 0.5], [5e307, 0.5], [2, 6], [1.0, -2e153])
    problem, allocation, truth = library_inputs(*inputs)
    worst = worst_case(problem, allocation, paradigm).value
    expected = expected_regret(problem, allocation, truth, paradigm).value
    profile = adversarial_tau_separate(problem, allocation).tau
    with mpmath.workdps(DIGITS):
        assert relative_error(worst, exact_worst_case(paradigm, *inputs[:4])) <= WORST_CASE_TOL
        exact = exact_expected_regret(paradigm, *inputs)
        assert relative_error(expected, exact) <= EXPECTED_REGRET_TOL
        _, s, _, _ = exact_terms(*inputs[:4])
        for tau, v, n in zip(profile, s, inputs[3]):
            assert relative_error(tau, T_STAR * mpmath.sqrt(2 * v / n)) <= SEPARATE_PROFILE_TOL
