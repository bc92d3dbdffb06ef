"""Closed-form regret evaluation for stratified treat/no-treat decisions.

Worst-case regret (adversarial treatment effects, noise levels fixed by the
design problem):

* separate decisions, weighted utility:
      H(n)  = c0 * sum_g w_g * sqrt(2*(s0_g^2+s1_g^2)/n_g)
* one pooled decision, weighted utility: finite only when the realized
  sampling fractions n_g/total match the population weights, in which case
      Hj(n) = F * c0 * sqrt(2 * sum_g h_g*(s0_g^2+s1_g^2) / total),
  with h_g = n_g/total and F = (sum 1/w)^-1 * (sum 1/h); any mismatch lets
  the adversary run the regret to infinity.
* separate decisions, worst-off group:
      He(n) = c0 * max_g sqrt(2*(s0_g^2+s1_g^2)/n_g)

Expected regret under a concrete scenario uses the exact error probability
of the sign decision rule: a group decided from a mean-difference estimate
with standard error ``se`` is wrong with probability Phi_c(|tau|/se).

Zero-count convention: a group with no samples has an infinitely noisy
estimate, so its decision is a fair coin and its expected regret
contribution is |tau|/2.  (Worst-case regret over unbounded adversaries is
infinite for such groups; expected regret under a fixed scenario is not.)

Zero-standard-error convention: a standard error that underflows to 0 (a
variance near the float minimum over a large count) means an exact estimate,
so the sign rule decides on the true mean, as ``simulate.decide`` does on an
estimator-level draw.  Each such group contributes 0; a pooled decision
costs |sum_g w_g tau_g| when the sign rule on the sampling-weighted mean
(>= 0 means treat) disagrees with the sign of that sum, and 0 otherwise.

What differs between paradigms is data on each ``Paradigm`` member: whether
the decision is pooled, and whether per-group regrets combine by a weighted
sum or by the worst-off max (``combine``, the builtin ``sum`` or ``max``).
``worst_case``, ``expected_regret``, ``allocate``, ``simulate`` and ``cli``
read it instead of branching on the paradigm.

Infinities are explicit ``math.inf`` states, never overflow artifacts, and
are absorbing in comparisons.  A standard error sqrt(2*S/n) is computed as
sqrt(S / (n * 0.5)), the same rounded quotient, where 2.0 * S overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erfc, sqrt

from .model import (
    Allocation,
    DesignProblem,
    Paradigm,
    TruthScenario,
    ValidationError,
    _as_float,
    _as_real,
    _items,
    check_allocation,
    check_paradigm,
    check_scenario,
)
from .stats import _SQRT2, normal_pdf, normal_sf, threshold_constants

_C0, _T_STAR = threshold_constants().c0, threshold_constants().t_star

# A pooled decision is treated as weight-matched when the proportionality
# mismatch statistic K is below this fraction of sum_g w_g/h_g.  Even-floor
# rounding of an exactly proportional selection perturbs K by O(1/total),
# around 1e-5 for the bundled case study; genuinely non-proportional
# selections sit orders of magnitude above this threshold.
KAPPA_TOL = 1e-4


@dataclass(frozen=True)
class RegretSummary:
    """A regret value, its paradigm, and optional per-group contributions.

    For separate-utilitarian summaries the value is the sum of the per-group
    entries; for separate-egalitarian it is their maximum.
    """

    paradigm: Paradigm
    value: float
    per_group: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.paradigm, Paradigm):
            raise ValidationError(f"paradigm must be a Paradigm, got {self.paradigm!r}")
        value = _as_float(self.value)  # NaN for None, True, "0.5", 10**400
        if not value >= 0.0:
            raise ValidationError(f"regret must be a nonnegative real or inf, got {self.value!r}")
        object.__setattr__(self, "value", value)
        if self.per_group is not None:
            try:
                per_group = tuple([_as_real(v) for v in _items(self.per_group)])
            except (TypeError, OverflowError):  # 1.5, "x", b"ab", (None,), (True,), (10**400,)
                raise ValidationError(
                    f"per_group must be a sequence of real numbers in float range, "
                    f"got {self.per_group!r}"
                ) from None
            object.__setattr__(self, "per_group", per_group)

    @classmethod
    def _from_floats(
        cls, paradigm: Paradigm, value: float, per_group: tuple[float, ...] | None = None
    ) -> "RegretSummary":
        """The kernels' constructor: ``per_group`` is a tuple the kernel just
        built from floats (the problem's weights and variance sums, stored at
        build, and the scenario's fields), so only ``value`` is checked."""
        _check_regret(value)
        summary = object.__new__(cls)
        # Frozen: fill the fields directly, as DesignProblem does at build.
        summary.__dict__.update({"paradigm": paradigm, "value": value, "per_group": per_group})
        return summary


def _check_regret(value: float) -> None:
    if not value >= 0.0:  # NaN too
        raise ValidationError(f"regret must be a nonnegative real or inf, got {value}")


def _pooled_standard_error(h, var_sums, total: int) -> float:
    """sqrt(2 * sum_g h_g*(s0_g^2+s1_g^2) / total): the standard error of the
    pooled mean difference under sampling fractions ``h``; ``total`` > 0.
    An unsampled group adds nothing, even where its sum overflowed (0 * inf
    would be NaN)."""
    return sqrt(sum([hg * s for hg, s in zip(h, var_sums) if hg]) / (total * 0.5))


def worst_case_terms(weights, var_sums, counts) -> list[float]:
    """Unvalidated kernel: w_g * c0 * sqrt(2*(s0_g^2+s1_g^2)/n_g) per group,
    inf where n_g = 0.  Summed under population weights they give H; their
    max under unit weights gives He."""
    return [
        w * _C0 * sqrt(s / (n * 0.5)) if n else math.inf
        for w, s, n in zip(weights, var_sums, counts)
    ]


def sampling_fractions(allocation: Allocation) -> tuple[float, ...]:
    """h_g = n_g / total sampled; requires a nonempty allocation."""
    if not isinstance(allocation, Allocation):
        raise ValidationError(f"allocation must be an Allocation, got {allocation!r}")
    total = allocation.total
    if total <= 0:
        raise ValidationError("pooled quantities need at least one sampled participant")
    return tuple([n / total for n in allocation.counts])


def joint_mismatch(problem: DesignProblem, allocation: Allocation) -> float:
    """K = sum_g w_g/h_g - G * (sum_g 1/w_g)^-1 * (sum_g 1/h_g).

    Zero exactly when the sampling fractions are weight-proportional; the
    pooled-decision worst case is finite only on that set.  Infinite when a
    group is unsampled.
    """
    check_allocation(problem, allocation)
    if 0 in allocation.counts:
        return math.inf
    return _mismatch_terms(problem, sampling_fractions(allocation))[0]


def _mismatch_terms(problem: DesignProblem, h) -> tuple[float, float, float]:
    """(K, sum_g w_g/h_g, F) for the problem's weights w and fractions h."""
    inv_w = problem._inv_weight_sum
    inv_h = sum([1.0 / x for x in h])
    scale = sum([wg / hg for wg, hg in zip(problem.weights, h)])
    return scale - problem.n_groups * inv_h / inv_w, scale, inv_h / inv_w


def worst_case(problem: DesignProblem, allocation: Allocation, paradigm: Paradigm) -> RegretSummary:
    """Worst-case regret under ``paradigm``: H, Hj or He, as the module
    docstring gives them.  H and Hj are infinite as soon as a group is
    unsampled; Hj also when the mismatch statistic K exceeds ``KAPPA_TOL``
    relative to sum_g w_g/h_g."""
    check_paradigm(paradigm)
    check_allocation(problem, allocation)
    if not paradigm.pooled:
        per_group = tuple(
            worst_case_terms(paradigm.group_weights(problem), problem.var_sums, allocation.counts)
        )
        return RegretSummary._from_floats(paradigm, paradigm.combine(per_group), per_group)
    if 0 in allocation.counts:
        return RegretSummary._from_floats(paradigm, math.inf)
    h = sampling_fractions(allocation)
    kappa, scale, factor = _mismatch_terms(problem, h)
    if abs(kappa) > KAPPA_TOL * scale:
        return RegretSummary._from_floats(paradigm, math.inf)
    value = factor * _C0 * _pooled_standard_error(h, problem.var_sums, allocation.total)
    return RegretSummary._from_floats(paradigm, value)


# perfbench (layers.py) calls these three names; they are not exported.
def worst_case_separate(problem, allocation):
    return worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN)
def worst_case_joint(problem, allocation):
    return worst_case(problem, allocation, Paradigm.JOINT_UTILITARIAN)
def worst_case_egalitarian(problem, allocation):
    return worst_case(problem, allocation, Paradigm.SEPARATE_EGALITARIAN)


def expected_regret(
    problem: DesignProblem,
    allocation: Allocation,
    truth: TruthScenario,
    paradigm: Paradigm,
) -> RegretSummary:
    """Expected regret of the sign decision rule under a concrete scenario.

    Standard errors come from the scenario's own variances (the truth may be
    noisier or quieter than the design assumptions).  Groups with tau = 0
    contribute zero under every paradigm; unsampled groups follow the
    fair-coin convention, and a zero standard error the exact-estimate one.
    """
    check_allocation(problem, allocation)
    check_scenario(problem, truth)
    check_paradigm(paradigm)

    if paradigm.pooled:
        aggregate = sum([w * t for w, t in zip(problem.weights, truth.tau)])
        if aggregate == 0.0:
            return RegretSummary._from_floats(paradigm, 0.0)
        if allocation.total == 0:
            # Nothing sampled anywhere: the pooled decision is a fair coin.
            return RegretSummary._from_floats(paradigm, abs(aggregate) / 2.0)
        h = sampling_fractions(allocation)
        tau_bar = sum([hg * t for hg, t in zip(h, truth.tau)])
        se = _pooled_standard_error(h, truth.var_sums, allocation.total)
        # Wrong decision: fail to treat when the aggregate effect is positive,
        # or treat when it is negative.
        if not se:
            value = abs(aggregate) if (tau_bar >= 0.0) != (aggregate > 0.0) else 0.0
        else:
            value = abs(aggregate) * normal_sf(tau_bar / se if aggregate > 0.0 else -tau_bar / se)
        return RegretSummary._from_floats(paradigm, value)

    # w * |tau| * P(wrong sign): Phi_c(|tau|/se), 1/2 unsampled, 0 when se = 0.
    per_group = tuple([
        w * (t * ((0.5 * erfc(t / se / _SQRT2) if (se := sqrt(s / (n * 0.5))) else 0.0)
                  if n else 0.5))
        for w, t, s, n in zip(
            paradigm.group_weights(problem), map(abs, truth.tau), truth.var_sums, allocation.counts
        )
    ])
    return RegretSummary._from_floats(paradigm, paradigm.combine(per_group), per_group)


def _check_all_sampled(problem: DesignProblem, allocation: Allocation) -> None:
    check_allocation(problem, allocation)
    if 0 in allocation.counts:
        raise ValidationError("adversarial profiles are undefined for unsampled groups")


def _check_t_dagger(t_dagger) -> float:
    """``t_dagger`` as a finite Python float (a numpy float32 keeps 7 digits)."""
    value = _as_float(t_dagger)
    if not math.isfinite(value):
        raise ValidationError(f"t_dagger must be a finite real number, got {t_dagger!r}")
    return value


def _design_scenario(problem: DesignProblem, tau: tuple[float, ...]) -> TruthScenario:
    """Effects ``tau`` (floats) on zero baselines with the design's own variances."""
    zeros = (0.0,) * problem.n_groups
    return TruthScenario._from_floats(tau, zeros, problem.var_control, problem.var_treated)


def adversarial_tau_separate(problem: DesignProblem, allocation: Allocation) -> TruthScenario:
    """The least-favorable effect profile for per-group sign decisions:
    tau_g = t_star * sqrt(2*(s0_g^2+s1_g^2)/n_g).

    Requires every group sampled.  Plugging the result into
    ``expected_regret`` under the separate-utilitarian paradigm recovers
    ``worst_case`` under it exactly.  Signs are immaterial by symmetry; the
    positive profile is returned.
    """
    _check_all_sampled(problem, allocation)
    return _design_scenario(
        problem,
        tuple([_T_STAR * sqrt(s / (n * 0.5)) for s, n in zip(problem.var_sums, allocation.counts)]),
    )


def joint_adversarial_tau(
    problem: DesignProblem, allocation: Allocation, t_dagger: float
) -> TruthScenario:
    """The stationary effect profile of the pooled-decision adversary at a
    given value ``t_dagger`` of the standardized pooled mean.

    tau_g = sqrt(2*sum_g' h_g'^2 * S_g') / (h_g * sqrt(total))
            * { Phi_c(t)/phi(t) + (t/w_g - G*Phi_c(t)/(w_g*phi(t))) / sum_g' 1/w_g' }

    The profile satisfies the stationarity system: the implied per-group
    multipliers share a single Lagrange value, and the standardized
    multipliers sum to ``t_dagger``.  (The statistic actually induced by the
    profile is a rescaled t_dagger because the per-group standardization
    uses sum h^2*S while the pooled statistic uses sum h*S.)
    """
    _check_all_sampled(problem, allocation)
    t_dagger = _check_t_dagger(t_dagger)
    h = sampling_fractions(allocation)
    w = problem.weights
    total = allocation.total
    G = problem.n_groups
    dens = normal_pdf(t_dagger)
    ratio = normal_sf(t_dagger) / dens if dens else math.inf
    inv_w = problem._inv_weight_sum
    scale = math.sqrt(2.0 * sum(hg * hg * s for hg, s in zip(h, problem.var_sums)))
    tau = tuple(
        scale
        / (hg * math.sqrt(total))
        * (ratio + (t_dagger / wg - G * ratio / wg) / inv_w)
        for hg, wg in zip(h, w)
    )
    # Deep in the left tail Phi_c/phi, or its multiple G/w_g, leaves float range.
    if not all(map(math.isfinite, tau)):
        raise ValidationError(
            f"t_dagger={t_dagger} is so extreme the normal density underflows; "
            "the stationary profile is unbounded there"
        )
    return _design_scenario(problem, tau)


def joint_regret_expression(
    problem: DesignProblem, allocation: Allocation, t_dagger: float
) -> float:
    """Expected pooled-decision regret along the stationary adversarial path,
    as a function of ``t_dagger``:

    sqrt(2*sum h*S / total) * { K * Phi_c(t)^2/phi(t) + F * t*Phi_c(t) }

    with K the proportionality mismatch and F = (sum 1/w)^-1 (sum 1/h).
    For K = 0 the supremum over t is the finite pooled worst case; for
    K > 0 the expression diverges as t -> -infinity.
    """
    _check_all_sampled(problem, allocation)
    t_dagger = _check_t_dagger(t_dagger)
    h = sampling_fractions(allocation)
    kappa, _, factor = _mismatch_terms(problem, h)
    sf = normal_sf(t_dagger)
    dens = normal_pdf(t_dagger)
    scale = _pooled_standard_error(h, problem.var_sums, allocation.total)
    if kappa == 0.0:
        mismatch_term = 0.0
    elif dens == 0.0:
        # Density underflow deep in a tail: K*Phi_c^2/phi tends to 0 on the
        # right, and on the left it has blown past float range.
        mismatch_term = math.copysign(math.inf, kappa) if t_dagger < 0.0 else 0.0
    else:
        # Divide before the second factor: past t ~ 26.5 sf * sf underflows.
        mismatch_term = kappa * sf / dens * sf
    return scale * (mismatch_term + factor * t_dagger * sf)

