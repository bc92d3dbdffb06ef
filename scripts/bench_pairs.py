#!/usr/bin/env python3
"""Compare two checkouts on one workload in alternated pairs of benchmark runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S --first-seed K

Pair i (from 0) runs ``perfbench/run.py --workload W --seed K+i --seconds S
--trace 0`` once in each checkout, the parent first in even pairs and the
change first in odd ones, so that a drift of the machine falls on both
sides alike.  Each run's metrics come from its last stdout line; a run that
fails or is not ``correct`` stops the comparison with exit status 1.

It then prints one row per end-to-end metric that the parent's
BENCHMARK.json declares: each side's median and quartiles, the change in
the median, and in how many pairs the change led (a tie counts for
neither).  The last column is the rule for claiming a gain: the change led
in at least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's interquartile range.  Then every run's
value, per metric and side, in pair order.  Quartiles are
``statistics.quantiles(..., n=4, method="inclusive")``, within the runs'
range, as numpy's default percentile gives them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


class PairsError(Exception):
    """A benchmark run failed, or did not pass its own checks."""


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """Each metric's value in one untraced ``perfbench/run.py`` run in ``checkout``."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise PairsError(
            f"{checkout} seed {seed}: exited {done.returncode} without a result: "
            f"{done.stderr.strip()}"
        ) from None
    if result.get("correct") is not True:
        raise PairsError(
            f"{checkout} seed {seed}: {result.get('failed')} of {result.get('attempted')} "
            "checked ops failed"
        )
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def collect(parent, change, workload, pairs, seconds, first_seed, run=run_perfbench):
    """(parent runs, change runs), one metrics dict per pair each, in pair
    order; the two checkouts may be one directory, to measure its noise."""
    checkouts, runs = (parent, change), ([], [])
    for i in range(pairs):
        seed = first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        first = checkouts[order[0]]
        print(f"pair {i + 1}/{pairs}, seed {seed}: {first} first", file=sys.stderr, flush=True)
        for side in order:
            runs[side].append(run(checkouts[side], workload, seed, seconds))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(better: str, parent: list[float], change: list[float]) -> dict:
    """The comparison of one metric's paired runs, where ``better`` is
    "lower" or "higher": each side's quartiles, how many pairs the change
    led, and whether the rule for claiming a gain holds."""
    sign = -1.0 if better == "lower" else 1.0
    led = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    claimable = led * 10 >= 9 * len(parent) and sign * (c_median - p_median) > p_q3 - p_q1
    return {
        "parent": (p_q1, p_median, p_q3), "change": (c_q1, c_median, c_q3),
        "led": led, "pairs": len(parent), "claimable": claimable,
    }


def rows(specs: list[dict], parent_runs: list[dict], change_runs: list[dict]) -> list[str]:
    """The table ``main`` prints, one row per metric in ``specs`` (BENCHMARK.json's
    ``end_to_end`` list)."""
    lines = [
        f"{'metric':<15} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
        f"{'change':>8}  {'led':>5}  claim"
    ]
    for spec in specs:
        name = spec["name"]
        v = verdict(
            spec["better"], [r[name] for r in parent_runs], [r[name] for r in change_runs]
        )
        sides = [f"{m:.6g} [{q1:.6g}, {q3:.6g}]" for q1, m, q3 in (v["parent"], v["change"])]
        old, new = v["parent"][1], v["change"][1]
        change = f"{(new - old) / old:+8.1%}" if old else f"{'-':>8}"
        led = f"{v['led']}/{v['pairs']}"
        claim = "yes" if v["claimable"] else "no"
        lines.append(f"{name:<15} {sides[0]:>32} {sides[1]:>32} {change}  {led:>5}  {claim}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    specs = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        parent_runs, change_runs = collect(
            args.parent, args.change, args.workload, args.pairs, args.seconds, args.first_seed
        )
    except PairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    print("\n".join(rows(specs, parent_runs, change_runs)))
    for spec in specs:  # every run, in pair order
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            print(f"{spec['name']} {side}: " + " ".join(f"{r[spec['name']]:.6g}" for r in runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
