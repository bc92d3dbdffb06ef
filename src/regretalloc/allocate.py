"""Sample-selection rules for stratified 1:1 randomized designs.

Each scheme is one entry of the ``SCHEMES`` table: a raw per-group share and
a redistribution policy.  The four schemes, each optimal (or classical) for
a different objective:

* ``minimax``      -- shares proportional to (s0^2+s1^2)^(1/3) * w^(2/3);
  minimizes the worst-case expected regret when every group gets its own
  treat/no-treat decision under population-weighted utility.
* ``proportional`` -- shares proportional to the population weight w;
  minimax when a single pooled decision covers all groups.
* ``egalitarian``  -- shares proportional to s0^2+s1^2; minimizes the
  worst-off group's worst-case regret.
* ``neyman``       -- shares proportional to w * sqrt(s0^2+s1^2); the
  classical variance-minimizing reference rule, included for comparisons.

One path serves every scheme: normalize the raw shares to exhaust the
budget, round each down to an even integer (``2*floor(x/2)``), optionally
redistribute, and warn about unsampled groups.  Rounding can strand up to
``2*(G-1)`` participants; by default they stay unassigned, matching the
closed-form selection rules literally.  ``redistribute=True`` hands the
leftover pairs back out: greedily by marginal reduction of the targeted
worst case (via ``regret.worst_case_terms``) for minimax and egalitarian,
by largest remainder for proportional and Neyman.  The ``continuous_*`` and
``*_allocation`` functions are one-line wrappers over that path.

All functions are pure; inputs are validated via ``model.validate_problem``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .model import Allocation, DesignProblem, Paradigm, ValidationError, validate_problem
from .regret import paradigm_rule, worst_case_terms

# Snap tolerance: continuous shares within this of an even integer are taken
# as exactly even, so float noise cannot drop a pair (e.g. 0.2*200 -> 40).
# Relative to the share, but capped at _SNAP_CAP: uncapped, it reaches a whole
# unit once shares pass 1e9 and rounds them up past their value.
_EVEN_SNAP = 1e-9
_SNAP_CAP = 1e-6


class DegenerateAllocationWarning(UserWarning):
    """Some group's rounded count is zero; its worst-case regret is infinite."""


@dataclass(frozen=True)
class ContinuousAllocation:
    """Relaxed shares: positive reals summing exactly to the budget."""

    shares: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shares", tuple(float(s) for s in self.shares))

    @property
    def total(self) -> float:
        return sum(self.shares)


@dataclass(frozen=True)
class Scheme:
    """``raw_share(weight, var_sum)``: a group's unnormalized share.
    ``greedy_target``: the paradigm whose worst case redistribution lowers
    greedily; None redistributes by largest remainder."""

    raw_share: Callable[[float, float], float]
    greedy_target: Paradigm | None


SCHEMES: dict[str, Scheme] = {
    "minimax": Scheme(
        lambda w, s: s ** (1.0 / 3.0) * w ** (2.0 / 3.0), Paradigm.SEPARATE_UTILITARIAN
    ),
    "proportional": Scheme(lambda w, s: w, None),
    "egalitarian": Scheme(lambda w, s: s, Paradigm.SEPARATE_EGALITARIAN),
    "neyman": Scheme(lambda w, s: w * math.sqrt(s), None),
}


def _scheme(name: str) -> Scheme:
    try:
        return SCHEMES[name]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown allocation scheme {name!r}; expected one of {sorted(SCHEMES)}"
        ) from None


def _shares(problem: DesignProblem, scheme: str) -> tuple[float, ...]:
    """Budget-exhausting relaxation of a scheme, as Python floats:
    share_g = raw_share_g * N / sum of raw shares."""
    raw_share = _scheme(scheme).raw_share
    validate_problem(problem)
    raw = [raw_share(g.weight, g.var_sum) for g in problem.groups]
    total = sum(raw)
    # Exact (Fraction or int) inputs stay exact up to this one rounding.
    shares = tuple(float(problem.budget * w / total) for w in raw)
    if not math.isfinite(sum(shares)):
        raise ValidationError(f"{scheme} shares overflow: variances too large for float range")
    return shares


def _floor_even(x: float) -> int:
    """2*floor(x/2), or the even integer above it when ``x`` is within the
    snap tolerance below that integer."""
    down = 2 * math.floor(x / 2.0)
    gap = down + 2 - x
    if gap <= _SNAP_CAP and gap <= _EVEN_SNAP * max(1.0, abs(x)):
        return down + 2
    return down


def round_to_even_floor(shares: ContinuousAllocation) -> Allocation:
    """Round every share down to an even integer: n_g = 2*floor(share_g/2).

    Guarantees share_g - 2 < n_g <= share_g (up to the even-snap tolerance),
    so no group loses more than one treated/control pair to rounding.
    """
    return Allocation(counts=tuple(_floor_even(s) for s in shares.shares))


def _greedy_redistribute(problem: DesignProblem, counts: list[int], target: Paradigm) -> list[int]:
    """Assign leftover pairs one at a time to the group whose extra pair
    lowers the worst-case regret under ``target`` the most.  O(G) term
    updates per pair: a candidate swaps in its term at two more (``grown``),
    and a pick recomputes one term."""
    rule = paradigm_rule(target)
    weights, var_sums = rule.group_weights(problem), problem.var_sums
    terms = worst_case_terms(weights, var_sums, counts)
    grown = worst_case_terms(weights, var_sums, [n + 2 for n in counts])
    leftover = problem.budget - sum(counts)
    while leftover >= 2:
        best_g, best_val = None, rule.combine(terms)
        for g in range(len(counts)):
            kept, terms[g] = terms[g], grown[g]
            val = rule.combine(terms)
            terms[g] = kept
            if val < best_val:
                best_g, best_val = g, val
        if best_g is None:
            # Flat objective (e.g. several unsampled groups keep it infinite):
            # fill empty groups first, then fall back to the largest group.
            empty = [g for g, n in enumerate(counts) if n == 0]
            candidates = empty if empty else range(len(counts))
            best_g = max(candidates, key=lambda g: problem.groups[g].weight)
        counts[best_g] += 2
        terms[best_g] = grown[best_g]
        grown[best_g] = worst_case_terms(
            (weights[best_g],), (var_sums[best_g],), (counts[best_g] + 2,)
        )[0]
        leftover -= 2
    return counts


def _largest_remainder_redistribute(
    problem: DesignProblem, counts: list[int], shares: tuple[float, ...]
) -> list[int]:
    leftover = problem.budget - sum(counts)
    order = sorted(range(len(counts)), key=lambda g: shares[g] - counts[g], reverse=True)
    i = 0
    while leftover >= 2:
        counts[order[i % len(order)]] += 2
        leftover -= 2
        i += 1
    return counts


def _allocate(problem: DesignProblem, scheme: str, redistribute: bool) -> Allocation:
    """The one allocation path.  Every public entry point calls this
    directly, so the warning's stacklevel=3 names the code that called the
    entry point.  The result is built unchecked (``Allocation._from_counts``):
    ``_floor_even`` of a finite float share >= 0 is an even int >= 0, and
    redistribution only adds 2 to a count."""
    shares = _shares(problem, scheme)
    counts = [_floor_even(s) for s in shares]
    if redistribute:
        target = SCHEMES[scheme].greedy_target
        if target is None:
            counts = _largest_remainder_redistribute(problem, counts, shares)
        else:
            counts = _greedy_redistribute(problem, counts, target)
    allocation = Allocation._from_counts(tuple(counts))
    if allocation.total > problem.budget:
        # Past about 1e10 the float shares themselves can sum above the budget.
        raise ValidationError(f"{scheme} shares too large to round within budget {problem.budget}")
    zero_groups = [g for g, n in enumerate(counts) if n == 0]
    if zero_groups:
        warnings.warn(
            f"{scheme} allocation assigns zero samples to group(s) {zero_groups}; "
            "worst-case regret is infinite for unsampled groups",
            DegenerateAllocationWarning,
            stacklevel=3,
        )
    return allocation


def allocate(problem: DesignProblem, scheme: str, redistribute: bool = False) -> Allocation:
    """Even-floored allocation of a named scheme, optionally redistributing
    leftover pairs; raises ValidationError for unknown names."""
    return _allocate(problem, scheme, redistribute)


def continuous_minimax(problem: DesignProblem) -> ContinuousAllocation:
    """share_g proportional to (s0_g^2+s1_g^2)^(1/3) * w_g^(2/3)."""
    return ContinuousAllocation(_shares(problem, "minimax"))


def continuous_proportional(problem: DesignProblem) -> ContinuousAllocation:
    """share_g = w_g * N."""
    return ContinuousAllocation(_shares(problem, "proportional"))


def continuous_egalitarian(problem: DesignProblem) -> ContinuousAllocation:
    """share_g proportional to s0_g^2 + s1_g^2 (equal standard errors)."""
    return ContinuousAllocation(_shares(problem, "egalitarian"))


def continuous_neyman(problem: DesignProblem) -> ContinuousAllocation:
    """share_g proportional to w_g * sqrt(s0_g^2 + s1_g^2)."""
    return ContinuousAllocation(_shares(problem, "neyman"))


def minimax_allocation(problem: DesignProblem, redistribute: bool = False) -> Allocation:
    """Even-floored minimax selection (redistribution lowers H)."""
    return _allocate(problem, "minimax", redistribute)


def proportional_allocation(problem: DesignProblem, redistribute: bool = False) -> Allocation:
    """Even floor of n_g = w_g * N (redistribution by largest remainder)."""
    return _allocate(problem, "proportional", redistribute)


def egalitarian_allocation(problem: DesignProblem, redistribute: bool = False) -> Allocation:
    """Even-floored variance-proportional selection (redistribution lowers He)."""
    return _allocate(problem, "egalitarian", redistribute)


def neyman_allocation(problem: DesignProblem, redistribute: bool = False) -> Allocation:
    """Even-floored classical Neyman reference allocation (largest remainder)."""
    return _allocate(problem, "neyman", redistribute)
