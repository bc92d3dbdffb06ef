"""Command-line front end: batch calculator over scenario config files.

Subcommands
-----------
allocate    compute one allocation scheme and its three worst-case regrets
evaluate    closed-form worst-case and expected regret for an allocation,
            optionally cross-checked by seeded Monte Carlo
reproduce   write the full case-study reference tables as CSV files
power       report the power-based total sample size under both documented
            quantile conventions

Data goes to stdout or the output files; diagnostics go to stderr.  Exit
status is 0 on success, 2 for configuration/usage problems, 1 otherwise.
Regret values are written unscaled in CSV output; the human-readable report
applies the 1e-4 display scaling noted in each table title.  Monte Carlo
columns are produced by the estimator-level engine (distributionally exact
and fast at case-study sample sizes) with a fixed seed, so repeated runs
are byte-identical.

Only ``--reps`` loads the Monte Carlo engine, and with it numpy; every other
command and ``import regretalloc.cli`` stay closed form and numpy-free.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import warnings
from pathlib import Path

from . import regret as regret_mod
from .allocate import SCHEMES, DegenerateAllocationWarning
from .allocate import allocate as build_allocation
from .casestudy import (
    CaseStudyCase,
    ConfigError,
    PowerSpec,
    build_case_study,
    default_config,
    load_config,
    required_sample_size,
)
from .model import Allocation, Paradigm, ValidationError
from .stats import threshold_constants

_REGRET_SCALE = 1e4


class ReportTable:
    """A rectangular table with a title and an optional scaling note."""

    def __init__(self, title: str, headers: list[str], rows: list | None = None, note: str = ""):
        self.title, self.headers, self.note = title, headers, note
        self.rows: list[list[str]] = [] if rows is None else rows

    def add_row(self, cells: list[str]) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row arity {len(cells)} does not match header arity {len(self.headers)}"
            )
        self.rows.append(cells)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines = [self.title]
        if self.note:
            lines.append(f"({self.note})")
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def write_csv(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.headers)
            writer.writerows(self.rows)


def _fmt_raw(value: float) -> str:
    """Locale-independent cell for CSV output; infinity as the token 'inf'."""
    return format(value, ".12g")


def _fmt_scaled(value: float) -> str:
    return format(value * _REGRET_SCALE, ".4g")


def _fmt_counts(allocation: Allocation) -> str:
    return " ".join(str(n) for n in allocation.counts)


def _case_allocations(case: CaseStudyCase, redistribute: bool) -> list[tuple[str, Allocation]]:
    """The standard comparison set: every one-group-only extreme plus the
    four named schemes."""
    problem = case.problem
    rows: list[tuple[str, Allocation]] = []
    full = 2 * (problem.budget // 2)
    for g, spec in enumerate(problem.groups):
        counts = [0] * problem.n_groups
        counts[g] = full
        rows.append((f"only {spec.label}", Allocation(counts=tuple(counts))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAllocationWarning)
        for scheme in SCHEMES:
            rows.append((scheme, build_allocation(problem, scheme, redistribute=redistribute)))
    return rows


def _worst_cases(case: CaseStudyCase, allocation: Allocation) -> list[float]:
    """Worst-case regret under every paradigm, in table order."""
    return [regret_mod.worst_case(case.problem, allocation, p).value for p in Paradigm]


def _expected(case: CaseStudyCase, allocation: Allocation) -> list[float]:
    """Expected regret under every paradigm, in table order."""
    return [
        regret_mod.expected_regret(case.problem, allocation, case.truth, p).value
        for p in Paradigm
    ]


def monte_carlo_regret(
    args: argparse.Namespace, case: CaseStudyCase, allocation: Allocation, paradigm
):
    """Estimator-level Monte Carlo (mean, standard error) at ``--reps``/``--seed``.
    The engine is imported on the first call, so closed-form commands never
    load numpy."""
    from .simulate import SimConfig
    from .simulate import monte_carlo_regret as run

    estimate = run(
        case.problem, allocation, case.truth, paradigm,
        SimConfig(replications=args.reps, master_seed=args.seed), level="estimator",
    )
    return estimate.mean, estimate.std_error


def _power_table(cases, vs_budget: bool) -> ReportTable:
    """Required total sample size under both documented quantile conventions
    (the configured power quantile, then 80%), optionally against the budget."""
    headers = ["beta", "power_quantile", "size_quantile", "required_n"]
    if vs_budget:
        table = ReportTable(
            "required total sample size", headers + ["vs budget"],
            note=f"budget in config: {cases[0].problem.budget}",
        )
    else:
        table = ReportTable("power conventions", headers)
    for case in cases:
        power = case.power
        for pq in (power.power_quantile, 0.80):
            spec = PowerSpec(
                power.detectable_effect, pq, power.size_quantile, power.var_control,
                power.var_treated,
            )
            n = required_sample_size(spec, case.problem.weights)
            row = [_fmt_raw(case.beta), _fmt_raw(pq), _fmt_raw(spec.size_quantile), str(n)]
            if vs_budget:
                budget = case.problem.budget
                row.append(f"{(n - budget) / budget:+.2%}")
            table.add_row(row)
    return table


def _cases(args: argparse.Namespace) -> tuple[CaseStudyCase, ...]:
    """The cases of the ``--config`` file, or of the bundled scenario."""
    return build_case_study(default_config() if args.config is None else load_config(args.config))


def _parse_allocation(text: str) -> Allocation:
    """Comma-separated counts; the regret calls check them against each case."""
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"--allocation expects comma-separated integers, got {text!r}")
    return Allocation(counts=counts)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_allocate(args: argparse.Namespace, out) -> int:
    cases = _cases(args)
    table = ReportTable(
        title=f"{args.scheme} allocation",
        headers=["beta", "counts", "total", *(f"worst {p.flag}" for p in Paradigm)],
        note="regret columns scaled by 1e4",
    )
    for case in cases:
        allocation = build_allocation(case.problem, args.scheme, redistribute=args.redistribute)
        table.add_row(
            [_fmt_raw(case.beta), _fmt_counts(allocation), str(allocation.total)]
            + [_fmt_scaled(v) for v in _worst_cases(case, allocation)]
        )
    print(table.render(), file=out)
    return 0


def cmd_evaluate(args: argparse.Namespace, out) -> int:
    if args.allocation is not None and args.redistribute:
        raise ValidationError("--redistribute applies to --scheme, not to an explicit --allocation")
    explicit = None if args.allocation is None else _parse_allocation(args.allocation)
    cases = _cases(args)
    headers = ["beta", "counts", "paradigm", "worst case", "expected"]
    if args.reps:
        headers += ["mc mean", "mc se"]
    table = ReportTable(
        title="regret evaluation",
        headers=headers,
        note="regret columns scaled by 1e4",
    )
    for case in cases:
        if explicit is None:
            allocation = build_allocation(case.problem, args.scheme, redistribute=args.redistribute)
        else:
            allocation = explicit
        cells = zip(_worst_cases(case, allocation), _expected(case, allocation))
        for paradigm, (worst, expected) in zip(Paradigm, cells):
            if args.paradigm not in ("all", paradigm.flag):
                continue
            row = [_fmt_raw(case.beta), _fmt_counts(allocation), paradigm.flag]
            row += [_fmt_scaled(worst), _fmt_scaled(expected)]
            if args.reps:
                row += [_fmt_scaled(v) for v in monte_carlo_regret(args, case, allocation, paradigm)]
            table.add_row(row)
    print(table.render(), file=out)
    return 0


_DISCREPANCIES_TEXT = """\
Known conventions and deviations in these tables
================================================

1. Allocation rounding.  Continuous shares are rounded down to even integers
   (2*floor(share/2)), which can leave up to 2*(G-1) participants unassigned.
   An alternative redistribution convention hands leftover pairs back out and
   shifts individual group counts by up to 2; published figures for the same
   scenario may therefore differ from these tables by +/-2 per group.

2. Total sample size.  The power calculation is reported under two quantile
   conventions, (power 90%, size 5%) and (power 80%, size 5%), because the
   choice is ambiguous in common practice.  The bundled budget of 9320 sits
   within 2% of the 90%/5% convention; the residual gap traces to rounding
   of the detectable effect (0.6 of the pooled baseline incidence is 0.6036%,
   not the round 0.60% used here).  See power_conventions in this directory's
   CSV output and the `power` subcommand.

3. Pooled-decision expected regret for mixed allocations.  For allocations
   that sample several groups, table5's joint column is this package's
   closed form (exact for the pooled sign rule under the stated Gaussian
   model) and is cross-validated by the package's own Monte Carlo engine.
   No independent external figure exists for those cells; single-group rows
   are reproducible and agree with the closed form.

4. Unsampled groups.  A group with no samples is decided by a fair coin
   (the limit of an infinitely noisy estimate), so its expected-regret
   contribution is |tau|/2; its worst-case regret is infinite.
"""


def cmd_reproduce(args: argparse.Namespace, out) -> int:
    cases = _cases(args)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory {out_dir} is not writable: {exc}", file=sys.stderr)
        return 1

    table1 = ReportTable("design noise", ["beta", "group", "label", "noise"])
    table4 = ReportTable("evaluation scenario", ["beta", "group", "label", "tau", "noise"])
    row_keys = ["beta", "scheme", "counts", "total"]
    table2 = ReportTable(
        "worst-case expected regret", row_keys + [f"worst_{p.flag}" for p in Paradigm]
    )
    headers5 = row_keys + [f"expected_{p.flag}" for p in Paradigm]
    if args.reps:
        headers5 += [c for p in Paradigm for c in (f"mc_{p.flag}", f"mc_{p.flag}_se")]
    table5 = ReportTable("expected regret under the reported rates", headers5)

    for case in cases:
        beta_cell = _fmt_raw(case.beta)
        for g, spec in enumerate(case.problem.groups):
            keys = [beta_cell, str(g + 1), spec.label]
            table1.add_row(keys + [_fmt_raw(math.sqrt(case.problem.var_sums[g]))])
            noise = _fmt_raw(math.sqrt(case.truth.var_sums[g]))
            table4.add_row(keys + [_fmt_raw(case.truth.tau[g]), noise])
        for name, allocation in _case_allocations(case, args.redistribute):
            keys = [beta_cell, name, _fmt_counts(allocation), str(allocation.total)]
            table2.add_row(keys + [_fmt_raw(v) for v in _worst_cases(case, allocation)])
            row5 = keys + [_fmt_raw(v) for v in _expected(case, allocation)]
            if args.reps:
                for paradigm in Paradigm:
                    row5 += [_fmt_raw(v) for v in monte_carlo_regret(args, case, allocation, paradigm)]
            table5.add_row(row5)

    constants = threshold_constants()
    constants_table = ReportTable("constants", ["name", "value"])
    constants_table.add_row(["t_star", _fmt_raw(constants.t_star)])
    constants_table.add_row(["c0", _fmt_raw(constants.c0)])

    table1.write_csv(out_dir / "table1.csv")
    table2.write_csv(out_dir / "table2.csv")
    table4.write_csv(out_dir / "table4.csv")
    table5.write_csv(out_dir / "table5.csv")
    constants_table.write_csv(out_dir / "constants.csv")
    _power_table(cases, vs_budget=False).write_csv(out_dir / "power_conventions.csv")
    (out_dir / "discrepancies.txt").write_text(_DISCREPANCIES_TEXT, encoding="utf-8")
    print(f"wrote case-study tables to {out_dir}", file=out)
    return 0


def cmd_power(args: argparse.Namespace, out) -> int:
    print(_power_table(_cases(args), vs_budget=True).render(), file=out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretalloc",
        description="Minimax-regret sample allocation for stratified randomized trials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="scenario config file (JSON); defaults to the bundled scenario")

    p_alloc = sub.add_parser("allocate", help="compute an allocation and its worst-case regrets")
    add_config(p_alloc)
    p_alloc.add_argument("--scheme", required=True, choices=sorted(SCHEMES))
    p_alloc.add_argument(
        "--redistribute", action="store_true",
        help="spend leftover pairs; minimax and egalitarian reach the exact even-integer optimum",
    )
    p_alloc.set_defaults(func=cmd_allocate)

    p_eval = sub.add_parser("evaluate", help="closed-form and Monte Carlo regret for an allocation")
    add_config(p_eval)
    src = p_eval.add_mutually_exclusive_group(required=True)
    src.add_argument("--scheme", choices=sorted(SCHEMES))
    src.add_argument("--allocation", help="explicit comma-separated per-group counts, e.g. 6100,3218")
    p_eval.add_argument("--paradigm", choices=[*(p.flag for p in Paradigm), "all"], default="all")
    p_eval.add_argument("--reps", type=int, default=0, help="Monte Carlo replications (0 disables)")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--redistribute", action="store_true")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("reproduce", help="write the case-study tables as CSV")
    add_config(p_rep)
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--reps", type=int, default=0, help="append Monte Carlo columns to table5")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--redistribute", action="store_true")
    p_rep.set_defaults(func=cmd_reproduce)

    p_pow = sub.add_parser("power", help="power-based total sample size, both conventions")
    add_config(p_pow)
    p_pow.set_defaults(func=cmd_power)

    return parser


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
