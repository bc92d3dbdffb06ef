#!/usr/bin/env python3
"""Cross-validate the closed-form expected regret against the Monte Carlo
engine for every case-study allocation and paradigm.

Prints one line per (case, allocation, paradigm) with the closed form, the
Monte Carlo mean +/- standard error, and the z-score of the difference.
Allocations are the ones ``regretalloc reproduce`` tabulates, labelled as
in its CSV output; paradigms in ``Paradigm`` order.  Everything is
seeded, so reruns are identical.

    python scripts/mc_crosscheck.py --reps 1000000 --seed 7
"""

import argparse
import sys

from regretalloc import Paradigm, SimConfig, expected_regret, monte_carlo_regret
from regretalloc.cli import _case_allocations, _cases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--reps", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--level", choices=["trial", "estimator"], default="estimator")
    args = parser.parse_args()
    sim = SimConfig(replications=args.reps, master_seed=args.seed)

    worst_z = 0.0
    for case in _cases(args):
        problem = case.problem
        for name, alloc in _case_allocations(case, redistribute=False):
            for paradigm in Paradigm:
                closed = expected_regret(problem, alloc, case.truth, paradigm).value
                est = monte_carlo_regret(problem, alloc, case.truth, paradigm,
                                         sim, level=args.level)
                z = abs(est.mean - closed) / est.std_error if est.std_error > 0 else 0.0
                worst_z = max(worst_z, z)
                print(f"beta={case.beta:<6} {name:<18} {paradigm.flag:<12} "
                      f"closed={closed:.6e}  mc={est.mean:.6e} +/- {est.std_error:.1e}  z={z:5.2f}")
    print(f"\nworst |z| = {worst_z:.2f} over all cells "
          f"({'OK' if worst_z < 4 else 'INVESTIGATE'})")
    return 0 if worst_z < 4 else 1


if __name__ == "__main__":
    sys.exit(main())
