"""Sample-selection rules for stratified 1:1 randomized designs.

Each scheme is one entry of the ``SCHEMES`` table: the raw shares of a
problem's groups, from one call, and a redistribution policy.  The four
schemes, each optimal (or classical) for a different objective:

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
``2G - 2`` participants at an even budget and ``2G - 1`` at an odd one; by
default they stay unassigned, matching the closed-form selection rules
literally.  ``redistribute=True`` is greedy marginal allocation with
single-pair exchanges (Fox 1966; Ibaraki & Katoh 1988): each leftover pair
goes to the group of largest gain, then a pair moves to that group from
the group that loses least by giving one back, while the gain exceeds the
loss; ties go to the first group.  The gain is ``shares - counts`` for
proportional and Neyman (largest remainder; no exchange fires), one pair's
drop in the group's H term for minimax, and the group's He term for
egalitarian; each term is ``regret.worst_case_terms``' expression, computed
in place in the same order, so it keeps its bits.  The last two reach the
exact even-integer minimum of H or He.

All functions are pure; a ``DesignProblem`` is checked when it is built, and
``model.validate_problem`` checks that a problem is one.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Sequence

from .model import Allocation, DesignProblem, Paradigm, ValidationError, validate_problem
from .regret import _C0

# Snap tolerance: continuous shares within this of an even integer are taken
# as exactly even, so float noise cannot drop a pair (e.g. 0.2*200 -> 40).
# Relative to the share, but capped at _SNAP_CAP: uncapped, it reaches a whole
# unit once shares pass 1e9 and rounds them up past their value.
_EVEN_SNAP = 1e-9
_SNAP_CAP = 1e-6


class DegenerateAllocationWarning(UserWarning):
    """Some group's rounded count is zero; its worst-case regret is infinite."""


class Scheme:
    """``raw_shares(weights, var_sums)``: every group's unnormalized share,
    from one call per problem.  ``greedy_target``: the paradigm whose worst
    case redistribution minimizes; None redistributes by largest remainder."""

    def __init__(self, raw_shares: Callable[..., Sequence[float]], greedy_target: Paradigm | None):
        self.raw_shares, self.greedy_target = raw_shares, greedy_target


SCHEMES: dict[str, Scheme] = {
    "minimax": Scheme(
        lambda ws, ss: [s ** (1.0 / 3.0) * w ** (2.0 / 3.0) for w, s in zip(ws, ss)],
        Paradigm.SEPARATE_UTILITARIAN,
    ),
    "proportional": Scheme(lambda ws, ss: ws, None),
    "egalitarian": Scheme(lambda ws, ss: ss, Paradigm.SEPARATE_EGALITARIAN),
    "neyman": Scheme(lambda ws, ss: [w * math.sqrt(s) for w, s in zip(ws, ss)], None),
}


def _scheme(name: str) -> Scheme:
    try:
        return SCHEMES[name]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown allocation scheme {name!r}; expected one of {sorted(SCHEMES)}"
        ) from None


def shares(problem: DesignProblem, scheme: str) -> tuple[float, ...]:
    """Budget-exhausting relaxation of a scheme, as Python floats:
    share_g = raw_share_g * N / sum of raw shares."""
    raw_shares = _scheme(scheme).raw_shares
    validate_problem(problem)
    raw = raw_shares(problem.weights, problem.var_sums)
    total = sum(raw)
    relaxed = tuple([problem.budget * w / total for w in raw])
    if not math.isfinite(sum(relaxed)):
        raise ValidationError(f"{scheme} shares overflow: variances too large for float range")
    return relaxed


def _floor_even(x: float) -> int:
    """2*floor(x/2), or the even integer above it when ``x`` is within the
    snap tolerance below that integer."""
    down = 2 * math.floor(x / 2.0)
    gap = down + 2 - x
    if gap <= _SNAP_CAP and gap <= _EVEN_SNAP * max(1.0, abs(x)):
        return down + 2
    return down


def _redistribute(
    problem: DesignProblem, counts: list[int], relaxed: tuple[float, ...], target: Paradigm | None
) -> list[int]:
    """Hand out the leftover pairs, then trade them (see the module
    docstring); a group's cost is what its last pair gained."""
    pairs = (problem.budget - sum(counts)) // 2
    if target is None:
        def gain(g: int, n: int) -> float:
            return relaxed[g] - n if n >= 0 else math.inf
    else:
        scale = [w * _C0 for w in target.group_weights(problem)]
        var_sums, worst_off = problem.var_sums, target.worst_off

        def gain(g: int, n: int) -> float:
            if n <= 0:
                return math.inf
            term = scale[g] * math.sqrt(var_sums[g] / (n * 0.5))
            # One pair's drop in the term, without cancelling term(n) - term(n+2).
            return term if worst_off else term * 2 / ((n + 2) * (1 + math.sqrt(n / (n + 2))))

    gains = [gain(g, n) for g, n in enumerate(counts)]
    costs = [gain(g, n - 2) for g, n in enumerate(counts)]
    while pairs >= 0:
        j = gains.index(max(gains))
        if pairs:
            pairs -= 1
        else:
            i = costs.index(min(costs))
            if not costs[i] < gains[j]:
                break
            counts[i] -= 2
            gains[i], costs[i] = costs[i], gain(i, counts[i] - 2)
        counts[j] += 2
        gains[j], costs[j] = gain(j, counts[j]), gains[j]
    return counts


def allocate(problem: DesignProblem, scheme: str, redistribute: bool = False) -> Allocation:
    """Even-floored allocation of a named scheme, optionally redistributing
    leftover pairs; raises ValidationError for unknown names.  The result is
    built unchecked (``Allocation._from_counts``): ``_floor_even`` of a finite
    float share >= 0 is an even int >= 0, and a redistribution move adds 2 to
    a count or takes 2 only from a count of at least 2."""
    if not isinstance(redistribute, bool):
        raise ValidationError(f"redistribute must be a bool, got {redistribute!r}")
    relaxed = shares(problem, scheme)
    counts = [_floor_even(s) for s in relaxed]
    if redistribute:
        counts = _redistribute(problem, counts, relaxed, SCHEMES[scheme].greedy_target)
    allocation = Allocation._from_counts(tuple(counts))
    if allocation.total > problem.budget:
        # Past about 1e10 the float shares themselves can sum above the budget.
        raise ValidationError(f"{scheme} shares too large to round within budget {problem.budget}")
    if 0 in counts:
        zero_groups = [g for g, n in enumerate(counts) if n == 0]
        warnings.warn(
            f"{scheme} allocation assigns zero samples to group(s) {zero_groups}; "
            "worst-case regret is infinite for unsampled groups",
            DegenerateAllocationWarning,
            stacklevel=2,
        )
    return allocation


# perfbench (layers.py, workloads.py) calls this name; it is not exported.
def minimax_allocation(problem: DesignProblem, redistribute: bool = False) -> Allocation:
    """Even-floored minimax selection (redistribution lowers H)."""
    return allocate(problem, "minimax", redistribute)
