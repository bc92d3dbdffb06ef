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

What differs between paradigms lives in one table, ``PARADIGMS``: the
worst-case evaluator, whether the decision is pooled, and whether per-group
regrets combine by a weighted sum or by the worst-off max.  ``allocate``,
``simulate`` and ``cli`` read it instead of branching on the paradigm.

Infinities are explicit ``math.inf`` states, never overflow artifacts, and
are absorbing in comparisons.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

from .model import (
    Allocation,
    DesignProblem,
    Paradigm,
    TruthScenario,
    ValidationError,
    check_allocation,
    check_scenario,
    validate_problem,
)
from .stats import normal_cdf, normal_pdf, normal_sf, threshold_constants

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
        _check_regret(self.value)
        if self.per_group is not None:
            object.__setattr__(self, "per_group", tuple(float(v) for v in self.per_group))

    @classmethod
    def _from_floats(
        cls, paradigm: Paradigm, value: float, per_group: tuple[float, ...] | None = None
    ) -> "RegretSummary":
        """The kernels' constructor: ``per_group`` is a tuple the kernel just
        built from floats (the problem's cached weights and variance sums and
        the scenario's fields are floats), so only ``value`` is checked."""
        _check_regret(value)
        summary = object.__new__(cls)
        # Frozen: fill the fields the way the cached properties are stored.
        summary.__dict__.update(paradigm=paradigm, value=value, per_group=per_group)
        return summary

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def _check_regret(value: float) -> None:
    if math.isnan(value) or value < 0.0:
        raise ValidationError(f"regret must be a nonnegative real or inf, got {value}")


def _standard_error(var_sum: float, count: int) -> float:
    """sqrt(2*(s0^2+s1^2)/n) with an explicit infinite limit at n = 0."""
    if count == 0:
        return math.inf
    return math.sqrt(2.0 * var_sum / count)


def _pooled_standard_error(h, var_sums, total: int) -> float:
    """sqrt(2 * sum_g h_g*(s0_g^2+s1_g^2) / total): the standard error of the
    pooled mean difference under sampling fractions ``h``."""
    return _standard_error(sum(hg * s for hg, s in zip(h, var_sums)), total)


def _wrong_sign_probability(tau: float, se: float) -> float:
    """P(sign decision disagrees with sign(tau)); 1/2 at infinite noise."""
    if math.isinf(se):
        return 0.5
    return normal_sf(abs(tau) / se)


def worst_case_terms(weights, var_sums, counts) -> list[float]:
    """Unvalidated kernel: w_g * c0 * sqrt(2*(s0_g^2+s1_g^2)/n_g) per group,
    inf where n_g = 0.  Summed under population weights they give H; their
    max under unit weights gives He."""
    c0 = threshold_constants().c0
    return [
        w * c0 * math.sqrt(2.0 * s / n) if n else math.inf
        for w, s, n in zip(weights, var_sums, counts)
    ]


def _per_group_worst_case(
    problem: DesignProblem, allocation: Allocation, paradigm: Paradigm
) -> RegretSummary:
    validate_problem(problem)
    check_allocation(problem, allocation)
    rule = PARADIGMS[paradigm]
    per_group = tuple(
        worst_case_terms(rule.group_weights(problem), problem.var_sums, allocation.counts)
    )
    return RegretSummary._from_floats(paradigm, rule.combine(per_group), per_group)


def worst_case_separate(problem: DesignProblem, allocation: Allocation) -> RegretSummary:
    """H(n): worst-case regret with per-group decisions, weighted utility.
    Infinite as soon as any group is unsampled."""
    return _per_group_worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN)


def worst_case_egalitarian(problem: DesignProblem, allocation: Allocation) -> RegretSummary:
    """He(n): worst-case regret of the worst-off group (unweighted)."""
    return _per_group_worst_case(problem, allocation, Paradigm.SEPARATE_EGALITARIAN)


def sampling_fractions(allocation: Allocation) -> tuple[float, ...]:
    """h_g = n_g / total sampled; requires a nonempty allocation."""
    total = allocation.total
    if total <= 0:
        raise ValidationError("pooled quantities need at least one sampled participant")
    return tuple(n / total for n in allocation.counts)


def joint_mismatch(problem: DesignProblem, allocation: Allocation) -> float:
    """K = sum_g w_g/h_g - G * (sum_g 1/w_g)^-1 * (sum_g 1/h_g).

    Zero exactly when the sampling fractions are weight-proportional; the
    pooled-decision worst case is finite only on that set.  Infinite when a
    group is unsampled.
    """
    validate_problem(problem)
    check_allocation(problem, allocation)
    if any(n == 0 for n in allocation.counts):
        return math.inf
    return _mismatch_terms(problem.weights, sampling_fractions(allocation))[0]


def _mismatch_terms(w, h) -> tuple[float, float, float]:
    """(K, sum_g w_g/h_g, F) for weights w and sampling fractions h."""
    inv_w = sum(1.0 / x for x in w)
    inv_h = sum(1.0 / x for x in h)
    scale = sum(wg / hg for wg, hg in zip(w, h))
    return scale - len(w) * inv_h / inv_w, scale, inv_h / inv_w


def worst_case_joint(problem: DesignProblem, allocation: Allocation) -> RegretSummary:
    """Hj(n): worst-case regret of the pooled sign decision.

    Returns infinity when any group is unsampled or when the mismatch
    statistic K exceeds ``KAPPA_TOL`` relative to sum_g w_g/h_g; otherwise
    evaluates F * c0 * sqrt(2 * sum_g h_g*(s0_g^2+s1_g^2) / total).
    """
    validate_problem(problem)
    check_allocation(problem, allocation)
    if allocation.total <= 0:
        raise ValidationError("pooled worst case needs at least one sampled participant")
    if any(n == 0 for n in allocation.counts):
        return RegretSummary._from_floats(Paradigm.JOINT_UTILITARIAN, math.inf)
    h = sampling_fractions(allocation)
    kappa, scale, factor = _mismatch_terms(problem.weights, h)
    if abs(kappa) > KAPPA_TOL * scale:
        return RegretSummary._from_floats(Paradigm.JOINT_UTILITARIAN, math.inf)
    c0 = threshold_constants().c0
    value = factor * c0 * _pooled_standard_error(h, problem.var_sums, allocation.total)
    return RegretSummary._from_floats(Paradigm.JOINT_UTILITARIAN, value)


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
    fair-coin convention.
    """
    validate_problem(problem)
    check_allocation(problem, allocation)
    check_scenario(problem, truth)
    rule = paradigm_rule(paradigm)

    if rule.pooled:
        aggregate = sum(w * t for w, t in zip(problem.weights, truth.tau))
        if aggregate == 0.0:
            return RegretSummary._from_floats(paradigm, 0.0)
        if allocation.total == 0:
            # Nothing sampled anywhere: the pooled decision is a fair coin.
            return RegretSummary._from_floats(paradigm, abs(aggregate) / 2.0)
        h = sampling_fractions(allocation)
        tau_bar = sum(hg * t for hg, t in zip(h, truth.tau))
        stat = tau_bar / _pooled_standard_error(h, truth.var_sums, allocation.total)
        # Wrong decision: fail to treat when the aggregate effect is positive,
        # or treat when it is negative.
        if aggregate > 0.0:
            value = aggregate * normal_sf(stat)
        else:
            value = -aggregate * normal_cdf(stat)
        return RegretSummary._from_floats(paradigm, value)

    per_group = tuple(
        w * (abs(t) * _wrong_sign_probability(t, _standard_error(s, n)))
        for w, t, s, n in zip(
            rule.group_weights(problem), truth.tau, truth.var_sums, allocation.counts
        )
    )
    return RegretSummary._from_floats(paradigm, rule.combine(per_group), per_group)


def _check_all_sampled(problem: DesignProblem, allocation: Allocation) -> None:
    validate_problem(problem)
    check_allocation(problem, allocation)
    if any(n == 0 for n in allocation.counts):
        raise ValidationError("adversarial profiles are undefined for unsampled groups")


def _check_t_dagger(t_dagger) -> None:
    if not isinstance(t_dagger, numbers.Real) or not math.isfinite(t_dagger):
        raise ValidationError(f"t_dagger must be a finite real number, got {t_dagger!r}")


def _design_scenario(problem: DesignProblem, tau: tuple[float, ...]) -> TruthScenario:
    """Effects ``tau`` on zero baselines with the design's own variances."""
    return TruthScenario(
        tau=tau,
        baseline=(0.0,) * problem.n_groups,
        var_control=tuple(g.var_control for g in problem.groups),
        var_treated=tuple(g.var_treated for g in problem.groups),
    )


def adversarial_tau_separate(problem: DesignProblem, allocation: Allocation) -> TruthScenario:
    """The least-favorable effect profile for per-group sign decisions:
    tau_g = t_star * sqrt(2*(s0_g^2+s1_g^2)/n_g).

    Requires every group sampled.  Plugging the result into
    ``expected_regret`` under the separate-utilitarian paradigm recovers
    ``worst_case_separate`` exactly.  Signs are immaterial by symmetry; the
    positive profile is returned.
    """
    _check_all_sampled(problem, allocation)
    t_star = threshold_constants().t_star
    return _design_scenario(
        problem,
        tuple(t_star * _standard_error(s, n) for s, n in zip(problem.var_sums, allocation.counts)),
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
    _check_t_dagger(t_dagger)
    h = sampling_fractions(allocation)
    w = problem.weights
    total = allocation.total
    G = problem.n_groups
    sf = normal_sf(t_dagger)
    dens = normal_pdf(t_dagger)
    if dens == 0.0:
        raise ValidationError(
            f"t_dagger={t_dagger} is so extreme the normal density underflows; "
            "the stationary profile is unbounded there"
        )
    inv_w = sum(1.0 / x for x in w)
    scale = math.sqrt(2.0 * sum(hg * hg * s for hg, s in zip(h, problem.var_sums)))
    tau = tuple(
        scale
        / (hg * math.sqrt(total))
        * (sf / dens + (t_dagger / wg - G * sf / (wg * dens)) / inv_w)
        for hg, wg in zip(h, w)
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
    _check_t_dagger(t_dagger)
    h = sampling_fractions(allocation)
    kappa, _, factor = _mismatch_terms(problem.weights, h)
    sf = normal_sf(t_dagger)
    dens = normal_pdf(t_dagger)
    scale = _pooled_standard_error(h, problem.var_sums, allocation.total)
    if kappa == 0.0:
        mismatch_term = 0.0
    elif dens == 0.0:
        # Density underflow deep in the tail: the mismatch term has already
        # blown past float range; report the limit explicitly.
        mismatch_term = math.copysign(math.inf, kappa)
    else:
        mismatch_term = kappa * sf * sf / dens
    return scale * (mismatch_term + factor * t_dagger * sf)


def worst_case(problem: DesignProblem, allocation: Allocation, paradigm: Paradigm) -> RegretSummary:
    """Dispatch the worst-case evaluation by paradigm."""
    return paradigm_rule(paradigm).worst_case(problem, allocation)


# ---------------------------------------------------------------------------
# The paradigm table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParadigmRule:
    """What differs between paradigms.  ``flag`` names the paradigm in CLI
    options and CSV columns.  ``pooled``: one decision, from the pooled
    estimate, covers every group.  ``worst_off``: per-group regrets are
    unweighted and combine by their max (in Monte Carlo, the max of the
    per-group means); otherwise they combine by a population-weighted sum
    per replication.  ``worst_case(problem, allocation)`` is the closed-form
    worst case."""

    flag: str
    pooled: bool
    worst_off: bool
    worst_case: Callable[[DesignProblem, Allocation], RegretSummary]

    def combine(self, per_group) -> float:
        return max(per_group) if self.worst_off else sum(per_group)

    def group_weights(self, problem: DesignProblem) -> tuple[float, ...]:
        return (1.0,) * problem.n_groups if self.worst_off else problem.weights


# Entries are in Paradigm order, which is the column order of every report.
PARADIGMS: dict[Paradigm, ParadigmRule] = {
    Paradigm.SEPARATE_UTILITARIAN: ParadigmRule(
        "separate", pooled=False, worst_off=False, worst_case=worst_case_separate,
    ),
    Paradigm.JOINT_UTILITARIAN: ParadigmRule(
        "joint", pooled=True, worst_off=False, worst_case=worst_case_joint,
    ),
    Paradigm.SEPARATE_EGALITARIAN: ParadigmRule(
        "egalitarian", pooled=False, worst_off=True, worst_case=worst_case_egalitarian,
    ),
}


def paradigm_rule(paradigm: Paradigm) -> ParadigmRule:
    """The table entry for ``paradigm``; ValidationError for a non-member."""
    try:
        return PARADIGMS[paradigm]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown paradigm {paradigm!r}") from None
