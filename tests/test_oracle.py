"""A randomized 50-digit oracle for the closed forms in ``regret``.

Hypothesis draws problems with G = 1-6 groups, arm variances 1e-8 to 1e2,
even counts 2 to 2e6 (every group sampled; the budget is their total) and
effects |tau| 1e-6 to 10 of either sign.  mpmath evaluates each formula of
the ``regret`` module docstring at 50 digits on the same float inputs, and
``worst_case`` and ``expected_regret`` must agree with it under all three
paradigms.  For the pooled worst case the weights are the sampling
fractions, so that K is within ``KAPPA_TOL`` and Hj is finite.

Only exact values above 1e-300 are compared: below that the float result
may lose digits to underflow, and it must only stay below 1e-300 too.
"""

import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretalloc.model import Allocation, DesignProblem, GroupSpec, Paradigm, TruthScenario
from regretalloc.regret import PARADIGMS, expected_regret, worst_case

DIGITS = 50
TINY = 1e-300
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
    if PARADIGMS[paradigm].pooled:
        factor = mpmath.fsum(1 / x for x in h) / mpmath.fsum(1 / x for x in w)
        return factor * C0 * mpmath.sqrt(2 * mpmath.fsum(x * v for x, v in zip(h, s)) / total)
    se = [mpmath.sqrt(2 * v / n) for v, n in zip(s, counts)]
    if PARADIGMS[paradigm].worst_off:
        return C0 * max(se)
    return C0 * mpmath.fsum(x * e for x, e in zip(w, se))


def exact_expected_regret(paradigm, weights, var_control, var_treated, counts, tau):
    """The sign rule's expected regret: |tau_g| Phi_c(|tau_g|/se_g) per group,
    weighted and summed or maxed; pooled, the aggregate effect times the
    chance that the sign of the sampling-weighted estimate is wrong."""
    w, s, h, total = exact_terms(weights, var_control, var_treated, counts)
    t = [mpmath.mpf(x) for x in tau]
    if PARADIGMS[paradigm].pooled:
        aggregate = mpmath.fsum(x * y for x, y in zip(w, t))
        z = mpmath.fsum(x * y for x, y in zip(h, t)) / mpmath.sqrt(
            2 * mpmath.fsum(x * v for x, v in zip(h, s)) / total
        )
        return aggregate * sf(z) if aggregate > 0 else -aggregate * sf(-z)
    terms = [abs(y) * sf(abs(y) / mpmath.sqrt(2 * v / n)) for y, v, n in zip(t, s, counts)]
    if PARADIGMS[paradigm].worst_off:
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
    inputs = data.draw(instances(matched=PARADIGMS[paradigm].pooled))
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
        if error is not None and PARADIGMS[paradigm].pooled:
            tolerance += pooled_rounding_bound(*inputs)
    assert error is None or error <= tolerance, (got, inputs)
