"""Seeded Monte Carlo engine for stratified 1:1 trials.

Generates Gaussian trial data (control arm N(b - tau/2, s0^2), treated arm
N(b + tau/2, s1^2)) and averages realized regret to cross-validate the
closed forms in :mod:`regretalloc.regret`.  ``run_trial`` and the
``dm_*`` estimators give one trial's estimates; the engine draws an (R, G)
matrix of them per chunk and applies the same ``decide`` and the same
regret kernel (behind ``realized_regret``) over the replication axis.  Every
per-paradigm choice (a pooled or a per-group decision, a weighted sum or a
worst-off max) is read from the paradigm table ``regret.PARADIGMS``; a
value that is not a Paradigm raises ValidationError there.

Reproducibility contract
------------------------
Replications are processed in fixed chunks of ``CHUNK_SIZE``.  Chunk ``c``
draws from a counter-based Philox generator keyed by ``(master_seed, c)``,
with the seed taken mod 2**64 (-1 is 2**64 - 1), and per-chunk partial sums
are reduced in chunk-index order.  Estimates are therefore bit-identical
for a given ``(inputs, master_seed)`` regardless of execution order or the
number of worker threads.  Within a chunk, outcome draws are group-major
(all replications of group 0, then group 1, ...), followed by the fair
coins of ``decide``: one block per unsampled group, or under the joint
paradigm one block when no group is sampled.  At the ``trial`` level each
group's outcomes are drawn in row tiles of about ``_TILE_BYTES``: all
treated tiles, then all control tiles, each tile reduced to its row means
before the next is drawn.  This consumes the stream exactly as one
whole-chunk draw per arm would, so estimates do not depend on the tile
size, and peak memory is O(tile + one row) per worker, independent of the
replication count.

The worst-off paradigm targets the worst-off group's *expected* regret, so
its Monte Carlo estimate is the maximum of the per-group replication means
(with the attaining group's standard error), not the mean of the
per-replication maxima.

Standard errors describe only the replications actually observed.  In
scenarios that mix frequent small regrets with rare large ones (tiny
wrong-decision probability but a huge effect behind it), the estimate is
biased low until the replication count comfortably exceeds the inverse of
the rare event's probability; pick ``replications`` accordingly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    Allocation,
    DesignProblem,
    Paradigm,
    TruthScenario,
    ValidationError,
    _as_int,
    _check_counts,
    _check_scenario_values,
    check_allocation,
    check_scenario,
    validate_problem,
)
from .regret import _standard_error, paradigm_rule

CHUNK_SIZE = 8192
_SEED_MASK = (1 << 64) - 1
# Target size of one trial-level outcome tile; a row wider than this is drawn
# alone.
_TILE_BYTES = 1 << 21


@dataclass(frozen=True)
class SimConfig:
    """Replication count and master seed for a Monte Carlo run."""

    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        for name in ("replications", "master_seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.replications < 1:
            raise ValidationError(
                f"replications must be at least 1, got {self.replications}"
            )


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean of realized regret with its standard error."""

    mean: float
    std_error: float
    replications: int


@dataclass(frozen=True)
class TrialData:
    """Observed outcomes and 0/1 assignments, one array pair per group."""

    outcomes: tuple[np.ndarray, ...]
    assignments: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for g, (y, w) in enumerate(zip(self.outcomes, self.assignments)):
            if y.shape != w.shape:
                raise ValidationError(f"group {g}: outcomes and assignments differ in length")
            n = len(w)
            if n % 2 != 0 or int(w.sum()) * 2 != n:
                raise ValidationError(f"group {g}: treatment is not 1:1 balanced")

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(y) for y in self.outcomes)


def _philox_rng(master_seed: int, stream: int) -> np.random.Generator:
    key = np.array([master_seed & _SEED_MASK, stream & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _arms(truth: TruthScenario, g: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """(mean, sd) of group ``g``'s treated arm, then of its control arm; every
    draw takes the treated arm first."""
    return (
        (truth.baseline[g] + truth.tau[g] / 2.0, math.sqrt(truth.var_treated[g])),
        (truth.baseline[g] - truth.tau[g] / 2.0, math.sqrt(truth.var_control[g])),
    )


def run_trial(truth: TruthScenario, allocation: Allocation, seed: int) -> TrialData:
    """Draw one trial: n_g/2 control and n_g/2 treated outcomes per group.

    Identical seeds give bit-identical data; ``seed`` is an integer taken
    mod 2**64, as ``SimConfig.master_seed`` is.  The first n_g/2 units of
    each group are the treated ones; outcomes are i.i.d. within arms, so the
    ordering is distributionally irrelevant.  The allocation and the
    scenario get the per-instance checks of ``check_allocation`` and
    ``check_scenario`` (ValidationError), with the allocation's length as
    the group count.
    """
    _check_counts(allocation)
    _check_scenario_values(truth, len(allocation.counts))
    rng = _philox_rng(_as_int("seed", seed), 0)
    outcomes: list[np.ndarray] = []
    assignments: list[np.ndarray] = []
    for g, n in enumerate(allocation.counts):
        half = n // 2
        treated, control = (rng.normal(loc, sd, size=half) for loc, sd in _arms(truth, g))
        outcomes.append(np.concatenate([treated, control]))
        assignments.append(
            np.concatenate([np.ones(half, dtype=np.int64), np.zeros(half, dtype=np.int64)])
        )
    return TrialData(outcomes=tuple(outcomes), assignments=tuple(assignments))


def dm_group_estimates(data: TrialData) -> tuple[float, ...]:
    """Per-group mean-difference estimates; NaN flags an unsampled group."""
    return tuple(
        2.0 / n * diff if n else math.nan
        for n, diff in zip(data.group_sizes, _arm_differences(data))
    )


def dm_pooled_estimate(data: TrialData) -> float:
    """Pooled mean difference over all sampled units:
    (2/total) * (sum of treated outcomes - sum of control outcomes).

    Equals the n-weighted average of the per-group estimates.
    """
    total = sum(data.group_sizes)
    if total == 0:
        raise ValidationError("pooled estimate needs at least one sampled participant")
    return 2.0 / total * sum(_arm_differences(data))


def _arm_differences(data: TrialData) -> list[float]:
    """Per group: sum of treated outcomes minus sum of control outcomes."""
    return [
        float(y[w == 1].sum()) - float(y[w == 0].sum())
        for y, w in zip(data.outcomes, data.assignments)
    ]


def decide(
    paradigm: Paradigm,
    group_estimates=None,
    pooled_estimate=None,
    rng: np.random.Generator | None = None,
):
    """Sign decision rule: treat iff the relevant estimate is >= 0.

    Separate paradigms threshold each group's estimate; the joint paradigm
    thresholds the pooled estimate.  A NaN estimate (nobody sampled: in that
    group, or pooled, anywhere) is decided by a fair coin when ``rng`` is
    supplied (matching the infinitely-noisy-estimate convention of the
    closed forms), one ``rng.integers`` block per NaN column in column order,
    and defaults to treat otherwise.  A tuple or float in gives a tuple or
    int out; a leading replication axis gives an int64 array of that shape.
    """
    rule = paradigm_rule(paradigm)
    if rule.pooled and pooled_estimate is None:
        raise ValidationError("joint decisions need the pooled estimate")
    if not rule.pooled and group_estimates is None:
        raise ValidationError("separate decisions need the per-group estimates")
    values = np.asarray(pooled_estimate if rule.pooled else group_estimates, dtype=float)
    rows = values.reshape(-1, 1) if rule.pooled else np.atleast_2d(values)
    chosen = (rows >= 0.0).astype(np.int64)
    absent = np.isnan(rows)
    for g in np.flatnonzero(absent.any(axis=0)):
        coins = rng.integers(0, 2, size=int(absent[:, g].sum())) if rng is not None else 1
        chosen[absent[:, g], g] = coins
    if values.ndim == int(not rule.pooled):
        return chosen.item() if rule.pooled else tuple(chosen[0].tolist())
    return chosen.reshape(values.shape)


def _regret_columns(
    truth: TruthScenario, problem: DesignProblem, decisions, paradigm: Paradigm
) -> np.ndarray:
    """Regret effect * (best - chosen) of each replication row of
    ``decisions``, the effect being tau_g per group or w . tau pooled:
    (R, G) per group for worst-off, else one (R, 1) weighted-sum column."""
    rule = paradigm_rule(paradigm)
    tau = np.asarray(truth.tau)
    weights = np.array(problem.weights)
    effects = np.array([weights @ tau]) if rule.pooled else tau
    trial = () if rule.pooled else tau.shape
    if np.shape(decisions) not in (trial, np.shape(decisions)[:1] + trial):
        raise ValidationError(f"decisions of shape {np.shape(decisions)} for {len(tau)} groups")
    chosen = np.reshape(decisions, (-1, len(effects)))
    regrets = effects * ((effects > 0.0).astype(np.int64) - chosen)
    _check_nonnegative(regrets)
    if rule.pooled or rule.worst_off:
        return regrets
    return (regrets @ weights)[:, None]


def realized_regret(
    truth: TruthScenario,
    problem: DesignProblem,
    decisions,
    paradigm: Paradigm,
):
    """Regret of concrete decisions against the oracle decision.

    Weighted utility: sum_g w_g * tau_g * (best_g - chosen_g); pooled:
    (sum_g w_g tau_g) * (best - chosen); egalitarian: the worst group's
    tau_g * (best_g - chosen_g).  Always nonnegative.  One trial's decisions
    give a float; a leading replication axis gives one per replication; any
    other shape raises ValidationError.
    """
    # One weighted-sum or pooled column, or one per group for worst-off: either
    # way the row max is the realized regret.
    regrets = _regret_columns(truth, problem, decisions, paradigm).max(axis=1)
    if np.ndim(decisions) == int(not paradigm_rule(paradigm).pooled):
        return float(regrets[0])
    return regrets


def _tiled_row_means(
    rng: np.random.Generator, loc: float, scale: float, size: int, half: int
) -> np.ndarray:
    """Row means of a (size, half) N(loc, scale^2) draw, made in row tiles.

    Tiles are drawn in row order, so the stream is consumed exactly as one
    (size, half) draw would consume it, and each row's mean is reduced over
    the same contiguous values: the result is bit-identical to the untiled
    draw while holding at most one tile (or one row) of outcomes.
    """
    rows = max(1, _TILE_BYTES // (8 * half))
    means = np.empty(size)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        means[start:stop] = rng.normal(loc, scale, size=(stop - start, half)).mean(axis=1)
    return means


def _chunk_estimates(
    truth: TruthScenario,
    allocation: Allocation,
    rng: np.random.Generator,
    size: int,
    level: str,
) -> np.ndarray:
    """(size, G) matrix of per-replication group estimates; NaN where n=0.

    ``level='trial'`` draws every outcome, tile by tile, and forms the mean
    differences;
    ``level='estimator'`` draws the estimates from their exact sampling
    distribution N(tau_g, 2*(s0^2+s1^2)/n_g).  The two levels are
    distributionally identical.
    """
    estimates = np.full((size, len(allocation.counts)), np.nan)
    for g, n in enumerate(allocation.counts):
        if n == 0:
            continue
        if level == "trial":
            treated, control = (
                _tiled_row_means(rng, loc, sd, size, n // 2) for loc, sd in _arms(truth, g)
            )
            estimates[:, g] = treated - control
        else:
            se = _standard_error(truth.var_sums[g], n)
            estimates[:, g] = rng.normal(truth.tau[g], se, size=size)
    return estimates


def _pooled_estimates(estimates: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """Per-replication pooled estimate: the count-weighted mean of the sampled
    groups' estimates, NaN when nobody is sampled."""
    counts = np.asarray(counts, dtype=float)
    sampled = counts > 0
    if not sampled.any():
        return np.full(len(estimates), np.nan)
    return estimates[:, sampled] @ (counts[sampled] / counts.sum())


def _check_nonnegative(regrets: np.ndarray) -> None:
    # Written as a raise, not an assert, so that it also holds under -O.
    if not regrets.min() >= 0.0:
        raise ValidationError("realized regret went negative or NaN")


def _chunk_stats(
    problem: DesignProblem,
    allocation: Allocation,
    truth: TruthScenario,
    paradigm: Paradigm,
    master_seed: int,
    chunk_index: int,
    size: int,
    level: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-chunk (sum, sum-of-squares) of realized regret: ``decide`` and the
    regret kernel over the chunk's rows.  Shape (1,), or (G,) for worst-off.
    """
    rng = _philox_rng(master_seed, chunk_index)
    estimates = _chunk_estimates(truth, allocation, rng, size, level)
    pooled = _pooled_estimates(estimates, allocation.counts)
    chosen = decide(paradigm, estimates, pooled, rng)
    regrets = _regret_columns(truth, problem, chosen, paradigm)
    return regrets.sum(axis=0), (regrets * regrets).sum(axis=0)


def _mean_and_se(total: float, total_sq: float, reps: int) -> tuple[float, float]:
    mean = total / reps
    if reps < 2:
        return mean, 0.0
    var = max((total_sq - reps * mean * mean) / (reps - 1), 0.0)
    return mean, math.sqrt(var / reps)


def monte_carlo_regret(
    problem: DesignProblem,
    allocation: Allocation,
    truth: TruthScenario,
    paradigm: Paradigm,
    config: SimConfig,
    level: str = "trial",
    workers: int | None = None,
) -> MonteCarloEstimate:
    """Estimate expected regret by averaging over seeded replications.

    ``level`` selects between full trial-data simulation and the exact
    estimator-level shortcut; ``workers`` runs chunks on a thread pool.
    Results are bit-identical across worker counts and levels' own reruns.
    """
    validate_problem(problem)
    check_allocation(problem, allocation)
    check_scenario(problem, truth)
    paradigm_rule(paradigm)  # rejects a non-Paradigm before any draw
    if level not in ("trial", "estimator"):
        raise ValidationError(f"unknown simulation level {level!r}")
    if workers is not None:
        workers = _as_int("workers", workers)
    reps = config.replications
    sizes = [min(CHUNK_SIZE, reps - start) for start in range(0, reps, CHUNK_SIZE)]

    def job(c: int) -> tuple[np.ndarray, np.ndarray]:
        return _chunk_stats(
            problem, allocation, truth, paradigm,
            config.master_seed, c, sizes[c], level,
        )

    if workers is not None and workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(job, range(len(sizes))))
    else:
        partials = [job(c) for c in range(len(sizes))]

    # Fixed-order reduction over chunk index keeps aggregation deterministic
    # no matter which worker finished first.
    sums = np.sum([p[0] for p in partials], axis=0)
    sums_sq = np.sum([p[1] for p in partials], axis=0)
    # One weighted-sum column, or the worst-off group's per-group mean.
    worst = int(np.argmax(sums / reps))
    mean, se = _mean_and_se(float(sums[worst]), float(sums_sq[worst]), reps)
    return MonteCarloEstimate(mean=mean, std_error=se, replications=reps)
