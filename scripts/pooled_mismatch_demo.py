#!/usr/bin/env python3
"""Show why only weight-proportional sampling survives a pooled decision.

For each case-study allocation this prints the expected regret along the
adversary's stationary path as the standardized pooled mean t moves left.
Weight-matched sampling keeps the path bounded (its supremum is the finite
pooled worst case, attained near t ~ 0.75); any mismatch lets the path grow
without bound as t -> -infinity, which is exactly the infinite worst case
reported for those allocations.

    python scripts/pooled_mismatch_demo.py
"""

import argparse
import sys
import warnings

from regretalloc import (
    DegenerateAllocationWarning,
    Paradigm,
    allocate,
    joint_mismatch,
    joint_regret_expression,
    threshold_constants,
    worst_case,
)
from regretalloc.cli import _cases

T_GRID = (0.75, 0.0, -2.0, -4.0, -6.0, -8.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    args = parser.parse_args()
    case = _cases(args)[0]
    problem = case.problem

    print(f"t_star = {threshold_constants().t_star:.4f} "
          f"(bounded paths peak near here)\n")
    header = f"{'scheme':<14}{'counts':<14}{'K':>10}{'worst':>10}" + "".join(
        f"{f'E[R](t={t:g})':>14}" for t in T_GRID
    )
    print(header)
    print("-" * len(header))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAllocationWarning)
        rows = [(s, allocate(problem, s)) for s in
                ("proportional", "minimax", "egalitarian", "neyman")]
    for name, allocation in rows:
        kappa = joint_mismatch(problem, allocation)
        worst = worst_case(problem, allocation, Paradigm.JOINT_UTILITARIAN).value
        cells = "".join(
            f"{joint_regret_expression(problem, allocation, t) * 1e4:>14.4g}"
            for t in T_GRID
        )
        worst_cell = "inf" if worst == float("inf") else f"{worst * 1e4:.3f}"
        print(f"{name:<14}{' '.join(map(str, allocation.counts)):<14}"
              f"{kappa:>10.2e}{worst_cell:>10}{cells}")
    print(
        "\n(regret cells scaled by 1e4; K is the proportionality mismatch."
        "\n Negative cells mark t where the stationary branch gains the"
        "\n adversary nothing; the worst case is the supremum over t.)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
