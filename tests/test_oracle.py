"""A randomized 50-digit oracle for the closed forms in ``regret``.

Hypothesis draws problems with G = 1-6 groups, arm variances 1e-8 to 1e2,
even counts 2 to 2e6 (every group sampled; the budget is their total) and
effects |tau| 1e-6 to 10 of either sign.  mpmath evaluates each formula of
the ``regret`` module docstring at 50 digits on the same float inputs, and
``worst_case`` and ``expected_regret`` must agree with it under all three
paradigms.  For the pooled worst case the weights are the sampling
fractions, so that they match within ``KAPPA_TOL`` and Hj is finite.

``adversarial_tau_separate`` is checked the same way, with the H it attains.
The paper's derivation of Hj lives here, at 50 digits, and no longer in
the library: the pooled adversary's stationary effect profile and the
expected regret along it, as functions of the standardized pooled mean t.
Its multipliers are stationary; at matched weights the path peaks at t*
with value Hj, and the profile rounded to floats attains it through
``expected_regret``; where the fractions miss the weights (K != 0) the path
is unbounded and ``worst_case`` is inf.  One fixed case puts a group's
variance sum at 1e308, where 2.0 * S overflows but every result is in float
range.  ``required_sample_size`` is checked against its formula on random
power specs.

Only exact values above 1e-300 are compared: below that the float result
may lose digits to underflow, and it must only stay below 1e-300 too.
"""

import math
import sys

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regretalloc.casestudy import PowerSpec, required_sample_size
from regretalloc.model import (
    Allocation,
    DesignProblem,
    GroupSpec,
    Paradigm,
    TruthScenario,
)
from regretalloc.regret import (
    KAPPA_TOL,
    adversarial_tau_separate,
    expected_regret,
    worst_case,
)

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


def exact_pooled_factors(weights, counts):
    """(K, F): the mismatch statistic sum_g w_g/h_g - G * F and
    F = (sum_g 1/w_g)^-1 * (sum_g 1/h_g), at the working precision."""
    h = [mpmath.mpf(n) / sum(counts) for n in counts]
    factor = mpmath.fsum(1 / x for x in h) / mpmath.fsum(1 / mpmath.mpf(x) for x in weights)
    return mpmath.fsum(mpmath.mpf(x) / y for x, y in zip(weights, h)) - len(counts) * factor, factor


def exact_joint_expression(weights, var_control, var_treated, counts, t):
    """The paper's pooled-decision regret along the adversary's stationary
    path, at standardized pooled mean t: se * (K * Phi_c(t)^2 / phi(t) +
    F * t * Phi_c(t)), with se the pooled standard error.  At K = 0 its
    supremum over t is Hj, at t*; at K != 0 it is unbounded as t -> -inf."""
    _, s, h, total = exact_terms(weights, var_control, var_treated, counts)
    kappa, factor = exact_pooled_factors(weights, counts)
    t = mpmath.mpf(t)
    se = mpmath.sqrt(2 * mpmath.fsum(x * v for x, v in zip(h, s)) / total)
    return se * (kappa * sf(t) ** 2 / mpmath.npdf(t) + factor * t * sf(t))


def profile_scale(weights, var_control, var_treated, counts):
    """sqrt(2 * sum_g h_g^2 S_g / total), the stationary profile's
    standardization, and sqrt(sum_g h_g^2 S_g / sum_g h_g S_g), the factor
    by which the pooled statistic the profile induces exceeds t."""
    _, s, h, total = exact_terms(weights, var_control, var_treated, counts)
    squares = mpmath.fsum(x * x * v for x, v in zip(h, s))
    return mpmath.sqrt(2 * squares / total), mpmath.sqrt(
        squares / mpmath.fsum(x * v for x, v in zip(h, s))
    )


def exact_joint_profile(weights, var_control, var_treated, counts, t):
    """The stationary effect profile at t: tau_g = scale / h_g * (r + (t/w_g -
    G*r/w_g) / sum_g' 1/w_g'), with r = Phi_c(t)/phi(t) and ``profile_scale``'s
    scale."""
    w, _, h, _ = exact_terms(weights, var_control, var_treated, counts)
    scale, _ = profile_scale(weights, var_control, var_treated, counts)
    t = mpmath.mpf(t)
    ratio = sf(t) / mpmath.npdf(t)
    inv_w = mpmath.fsum(1 / x for x in w)
    G = len(counts)
    return [scale / x * (ratio + (t / y - G * ratio / y) / inv_w) for x, y in zip(h, w)]


# ``adversarial_tau_separate``, relative: its profile against the 50-digit
# t_star and the H it attains, each within a few ulps (the profile read
# 5.8e-13 while ``stats`` stopped its bisection at a 1e-12 bracket).
# The pooled profile, rounded to floats at matched weights: the expected
# regret it gives against Hj read 5.8e-16 at most over 6,000 draws (2 runs
# of 3,000).  Over 1,000 draws the pooled path's peak lay within 3.3e-16 of
# t_star, and its value within 6.1e-16 of ``worst_case``'s Hj.
SEPARATE_PROFILE_TOL = 2e-15
POOLED_PROFILE_TOL = 2e-15
PEAK_TOL = 1e-14


@settings(max_examples=20)
@given(inputs=instances(matched=True))
def test_the_pooled_path_peaks_at_t_star_with_value_hj(inputs):
    got = worst_case(*library_inputs(*inputs)[:2], Paradigm.JOINT_UTILITARIAN).value
    with mpmath.workdps(DIGITS):
        path = lambda t: exact_joint_expression(*inputs[:4], t)  # noqa: E731
        peak = mpmath.findroot(lambda t: mpmath.diff(path, t), T_STAR)
        assert abs(peak - T_STAR) <= PEAK_TOL, peak
        assert mpmath.diff(path, peak, 2) < 0
        assert relative_error(got, path(peak)) <= WORST_CASE_TOL, (got, inputs)


@settings(max_examples=30)
@given(inputs=instances(matched=True))
def test_the_pooled_profile_attains_hj(inputs):
    weights, var_control, var_treated, counts, _ = inputs
    with mpmath.workdps(DIGITS):
        _, rescaling = profile_scale(*inputs[:4])
        tau = [float(x) for x in exact_joint_profile(*inputs[:4], T_STAR / rescaling)]
        exact = exact_worst_case(Paradigm.JOINT_UTILITARIAN, *inputs[:4])
    problem, allocation, truth = library_inputs(weights, var_control, var_treated, counts, tau)
    got = expected_regret(problem, allocation, truth, Paradigm.JOINT_UTILITARIAN).value
    with mpmath.workdps(DIGITS):
        assert relative_error(got, exact) <= POOLED_PROFILE_TOL, (got, inputs)


@settings(max_examples=30)
@given(inputs=instances())
def test_the_pooled_path_diverges_where_the_fractions_miss_the_weights(inputs):
    weights, _, _, counts, _ = inputs
    h = [n / sum(counts) for n in counts]
    assume(max(abs(x / w - 1.0) for x, w in zip(h, weights)) > KAPPA_TOL)
    with mpmath.workdps(DIGITS):
        # K = 0 with mismatched fractions (equal weights, for one) leaves
        # only the linear F * t term; test_regret pins Hj = inf there.
        assume(exact_pooled_factors(weights, counts)[0] != 0)
        sizes = [abs(exact_joint_expression(*inputs[:4], t)) for t in (-10, -20, -40, -80)]
        # The K term grows as exp(t^2 / 2); F * t * Phi_c(t) only doubles.
        assert all(later > 1e10 * earlier for earlier, later in zip(sizes, sizes[1:])), sizes
    assert worst_case(*library_inputs(*inputs)[:2], Paradigm.JOINT_UTILITARIAN).value == math.inf


@settings(max_examples=30)
@given(inputs=instances(), t=st.floats(min_value=-37.5, max_value=37.5))
def test_the_pooled_profile_is_stationary(inputs, t):
    G = len(inputs[3])
    with mpmath.workdps(DIGITS):
        w, _, h, _ = exact_terms(*inputs[:4])
        scale, _ = profile_scale(*inputs[:4])
        multipliers = [x * y / scale for x, y in zip(h, exact_joint_profile(*inputs[:4], t))]
        # Each bound is relative to the size of the parts that cancel: a
        # multiplier's are at most G * Phi_c(t)/phi(t) + |t| in all.
        density, tail = mpmath.npdf(t), sf(mpmath.mpf(t))
        tolerance = mpmath.mpf(10) ** (10 - DIGITS)
        # The standardized multipliers sum back to t ...
        size = 2 * (G * tail / density + abs(t))
        assert abs(mpmath.fsum(multipliers) - t) <= tolerance * size
        # ... and every group implies the same Lagrange value.
        lagrange = [x * m * density - x * tail for x, m in zip(w, multipliers)]
        size = (G + 2) * tail + abs(t) * density
        assert max(lagrange) - min(lagrange) <= tolerance * size


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


def exact_required_sample_size(weights, var_control, var_treated, effect, power, size):
    """N = 2 * ceil(r / 2), r = 2 * (sum_g w_g v0_g + sum_g w_g v1_g) *
    (z_power - z_size)^2 / effect^2, with z = sqrt(2) * erfinv(2p - 1); and
    r / 2 itself."""
    w = [mpmath.mpf(x) for x in weights]
    pooled = mpmath.fsum(x * mpmath.mpf(v) for x, v in zip(w, var_control)) + mpmath.fsum(
        x * mpmath.mpf(v) for x, v in zip(w, var_treated)
    )
    z = [mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1) for p in (power, size)]
    half = pooled * (z[0] - z[1]) ** 2 / mpmath.mpf(effect) ** 2
    return 2 * int(mpmath.ceil(half)), half


@settings(max_examples=100)
@given(data=st.data())
def test_required_sample_size_matches_the_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=6))

    def log_uniform(low, high, size=n):
        exponents = st.floats(min_value=math.log10(low), max_value=math.log10(high))
        return [10.0**e for e in data.draw(st.lists(exponents, min_size=size, max_size=size))]

    weight = st.floats(0.0, 1.0)
    weights = data.draw(st.lists(weight, min_size=n, max_size=n))
    var_control, var_treated = log_uniform(1e-6, 10.0), log_uniform(1e-6, 10.0)
    effect = data.draw(st.sampled_from((-1.0, 1.0))) * log_uniform(1e-4, 1.0, 1)[0]
    power = data.draw(st.floats(min_value=0.5, max_value=0.99))
    size = data.draw(st.floats(min_value=0.01, max_value=0.2))
    got = required_sample_size(PowerSpec(effect, power, size, var_control, var_treated), weights)
    with mpmath.workdps(DIGITS):
        exact, half = exact_required_sample_size(
            weights, var_control, var_treated, effect, power, size
        )
        nearest = mpmath.nint(half)
        if abs(half - nearest) <= 1e-12 * half:  # the float r may round to either side
            assert got in (2 * int(nearest), 2 * int(nearest) + 2), (got, half)
        else:
            assert got == exact, (got, half)
