"""Seeded Monte Carlo engine for stratified 1:1 trials.

Generates Gaussian trial data (control arm N(b - tau/2, s0^2), treated arm
N(b + tau/2, s1^2)) and averages realized regret to cross-validate the
closed forms in :mod:`regretalloc.regret`.  The engine draws an (R, G)
matrix of per-group mean-difference estimates per chunk and applies
``decide`` and the regret kernel behind ``realized_regret`` over the
replication axis.  Every per-paradigm choice (a pooled or a per-group
decision, a weighted sum or a worst-off max) is read from the ``Paradigm``
member itself; a value that is not a Paradigm raises ValidationError
(``model.check_paradigm``).

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

import numpy as np

from .model import (
    Allocation,
    DesignProblem,
    Paradigm,
    TruthScenario,
    ValidationError,
    _Value,
    _as_float,
    _as_int,
    _as_real,
    check_allocation,
    check_paradigm,
    check_scenario,
)
from .regret import sampling_fractions

CHUNK_SIZE = 8192
_SEED_MASK = (1 << 64) - 1
# Target size of one trial-level outcome tile; a row wider than this is drawn
# alone.
_TILE_BYTES = 1 << 21


class SimConfig(_Value):
    """Replication count and master seed for a Monte Carlo run."""

    replications: int
    master_seed: int

    def __init__(self, replications, master_seed) -> None:
        self.__dict__.update(
            replications=_as_int("replications", replications, 1),
            master_seed=_as_int("master_seed", master_seed),
        )


class MonteCarloEstimate(_Value):
    """Sample mean of realized regret with its standard error (nonnegative
    and finite) over ``replications`` >= 1; ValidationError naming the field
    when built otherwise."""

    mean: float
    std_error: float
    replications: int

    def __init__(self, mean, std_error, replications) -> None:
        for name, value in (("mean", mean), ("std_error", std_error)):
            as_float = _as_float(value)
            if not 0.0 <= as_float < math.inf:  # NaN too
                raise ValidationError(f"{name} must be nonnegative and finite, got {value!r}")
            self.__dict__[name] = as_float
        self.__dict__["replications"] = _as_int("replications", replications, 1)


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
    Strings, booleans, None and other non-numbers (also inside an object
    array), and a bare scalar given as per-group estimates, raise ValidationError.
    """
    pooled = check_paradigm(paradigm).pooled
    if pooled and pooled_estimate is None:
        raise ValidationError("joint decisions need the pooled estimate")
    if not pooled and group_estimates is None:
        raise ValidationError("separate decisions need the per-group estimates")
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be a numpy Generator, got {rng!r}")
    estimates = pooled_estimate if pooled else group_estimates
    try:
        values = estimates
        # A float conversion would parse "12", read True as 1 and None as NaN
        # (an unsampled group): all but a numeric array is checked per value.
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
            items = np.asarray(values, dtype=object)
            values = np.array([_as_real(v) for v in items.flat]).reshape(items.shape)
        values = values.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # "ab", a dict, ragged rows, 10**400
        raise ValidationError(
            f"estimates must be real numbers in float range, got {estimates!r}"
        ) from None
    if values.ndim == 0 and not pooled:
        raise ValidationError(f"separate decisions need one estimate per group, got {estimates!r}")
    rows = values.reshape(-1, 1) if pooled else np.atleast_2d(values)
    chosen = (rows >= 0.0).astype(np.int64)
    absent = np.isnan(rows)
    for g in np.flatnonzero(absent.any(axis=0)):
        coins = rng.integers(0, 2, size=int(absent[:, g].sum())) if rng is not None else 1
        chosen[absent[:, g], g] = coins
    if values.ndim == int(not pooled):
        return chosen.item() if pooled else tuple(chosen[0].tolist())
    return chosen.reshape(values.shape)


def _regret_columns(
    truth: TruthScenario, problem: DesignProblem, decisions, paradigm: Paradigm
) -> np.ndarray:
    """Regret effect * (best - chosen) of each replication row of
    ``decisions``, the effect being tau_g per group or w . tau pooled:
    (R, G) per group for worst-off, else one (R, 1) weighted-sum column."""
    pooled = check_paradigm(paradigm).pooled
    tau = np.asarray(truth.tau)
    weights = np.array(problem.weights)
    effects = np.array([weights @ tau]) if pooled else tau
    trial = () if pooled else tau.shape
    if np.shape(decisions) not in (trial, np.shape(decisions)[:1] + trial):
        raise ValidationError(f"decisions of shape {np.shape(decisions)} for {len(tau)} groups")
    chosen = np.reshape(decisions, (-1, len(effects)))
    regrets = effects * ((effects > 0.0).astype(np.int64) - chosen)
    _check_nonnegative(regrets)
    if pooled or paradigm.worst_off:
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
    other shape, a decision other than 0 or 1, or a scenario that fails
    ``check_scenario`` raises ValidationError.
    """
    check_scenario(problem, truth)
    try:
        binary = np.isin(decisions, (0, 1)).all()
    except ValueError:  # ragged rows
        binary = False
    if not binary:
        raise ValidationError(f"decisions must be 0 or 1, got {decisions!r}")
    # One weighted-sum or pooled column, or one per group for worst-off: either
    # way the row max is the realized regret.
    regrets = _regret_columns(truth, problem, decisions, paradigm).max(axis=1)
    if np.ndim(decisions) == int(not paradigm.pooled):
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
    # Every tile is drawn into one buffer, not a fresh array per tile.
    # scale * z + loc is what ``rng.normal`` computes per value.
    tile = np.empty((min(rows, size), half))
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        draws = rng.standard_normal(out=tile[: stop - start])
        draws *= scale
        draws += loc
        draws.mean(axis=1, out=means[start:stop])
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
            se = math.sqrt(truth.var_sums[g] / (n * 0.5))
            estimates[:, g] = rng.normal(truth.tau[g], se, size=size)
    return estimates


def _pooled_estimates(estimates: np.ndarray, allocation: Allocation) -> np.ndarray:
    """Per-replication pooled estimate: the sampled groups' estimates weighted
    by ``sampling_fractions``, as in the closed forms; NaN when nobody is
    sampled."""
    if allocation.total == 0:
        return np.full(len(estimates), np.nan)
    h = np.array(sampling_fractions(allocation))
    sampled = h > 0.0
    return estimates[:, sampled] @ h[sampled]


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
    pooled = _pooled_estimates(estimates, allocation)
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
    check_allocation(problem, allocation)
    check_scenario(problem, truth)
    check_paradigm(paradigm)  # before any draw
    if not isinstance(config, SimConfig):
        raise ValidationError(f"config must be a SimConfig, got {config!r}")
    if not isinstance(level, str) or level not in ("trial", "estimator"):
        raise ValidationError(f"unknown simulation level {level!r}")
    if workers is not None:
        workers = _as_int("workers", workers, 1)
    reps = config.replications
    chunks = -(-reps // CHUNK_SIZE)

    def job(c: int) -> tuple[np.ndarray, np.ndarray]:
        return _chunk_stats(
            problem, allocation, truth, paradigm,
            config.master_seed, c, min(CHUNK_SIZE, reps - c * CHUNK_SIZE), level,
        )

    if workers is not None and workers > 1 and chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(job, range(chunks)))
    else:
        partials = [job(c) for c in range(chunks)]

    # Fixed-order reduction over chunk index keeps aggregation deterministic
    # no matter which worker finished first.  The order is numpy's, not a
    # left fold: np.sum over the stacked (k, 1) partials of a weighted-sum
    # column sums pairwise once k >= 8, while the worst-off (k, G) partials
    # are added row by row.  A left fold would move the last bits of the
    # separate and joint estimates from 8 chunks on.
    sums = np.sum([p[0] for p in partials], axis=0)
    sums_sq = np.sum([p[1] for p in partials], axis=0)
    # One weighted-sum column, or the worst-off group's per-group mean.
    worst = int(np.argmax(sums / reps))
    mean, se = _mean_and_se(float(sums[worst]), float(sums_sq[worst]), reps)
    return MonteCarloEstimate(mean=mean, std_error=se, replications=reps)
