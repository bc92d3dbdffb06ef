"""Machine-speed reference kernels.

The benchmark runs on shared cores whose speed drifts by a quarter or more
over seconds to minutes, and that drift moves every wall time by the same
factor.  Each timed op is therefore paired with a reference run right
beside it: benchmark-owned work of the same character that no change to
``src/`` can make faster.  That is interpreted Python for the closed-form
sweep, numpy Philox draws into large arrays for the trial-level engine,
and an interpreter start that imports numpy for ops that are mostly
interpreter start and imports.  The reference's time over its nominal time is the machine's
current slowdown; dividing an op's time by it gives the op's time on the
nominal machine.  Raw times and slowdowns are kept in the report beside the
scaled values.

The nominal times are roughly what the references take on the 2-core Intel
Xeon sandbox (Python 3.11, numpy 2.4) the benchmark was defined on.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from common import BenchError, run_child

PY_NOMINAL_S = 50e-6
PY_CALLS = 100
NP_NOMINAL_S = 0.030
NP_CALLS = 5
NP_ROWS, NP_COLS = 512, 3050
SPAWN_NOMINAL_S = 0.12
SPAWN_ARGV = [sys.executable, "-c", "import numpy"]


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def py_kernel() -> float:
    """Dataclass construction, calls, attribute access and float math, the
    mix the closed-form layers and module imports spend their time on."""
    items = [_Pair(i * 0.5 + 1.0, i + 2.0) for i in range(32)]
    acc = 0.0
    for _ in range(4):
        acc += sum(math.sqrt(2.0 * p.a / p.b) for p in items)
        acc += max(0.5 * math.erfc(p.a / p.b) for p in items)
    return acc


def np_kernel(stream: int = 0) -> float:
    """Philox normal draws into a 12 MB array and row means, as one trial
    level Monte Carlo chunk does at a smaller size."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=[7, stream]))
    return float(rng.normal(0.0, 1.0, size=(NP_ROWS, NP_COLS)).mean(axis=1).sum())


def py_slowdown(calls: int = PY_CALLS) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        py_kernel()
    return (time.perf_counter() - start) / (calls * PY_NOMINAL_S)


def np_slowdown(threads: int) -> float:
    """Slowdown of ``threads`` concurrent numpy kernels, matching the
    Monte Carlo engine's worker count."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        start = time.perf_counter()
        for _ in range(NP_CALLS):
            list(pool.map(np_kernel, range(threads)))
        return (time.perf_counter() - start) / (NP_CALLS * NP_NOMINAL_S)


def spawn_slowdown() -> float:
    run = run_child(SPAWN_ARGV)
    if run.returncode != 0:
        raise BenchError(f"reference interpreter failed:\n{run.stderr[-2000:]}")
    return run.wall_s / SPAWN_NOMINAL_S


def spawn_and_py_slowdown() -> tuple[float, float]:
    return spawn_slowdown(), py_slowdown()


class Paced:
    """Runs ops between slowdown probes.  An op's slowdown is the mean of
    the probes just before and just after it; each probe serves the op on
    either side of it.  A probe returns one slowdown or a tuple of them."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.last = None

    def run(self, op):
        """Returns (op(), slowdown)."""
        before = self.probe() if self.last is None else self.last
        result = op()
        self.last = after = self.probe()
        if isinstance(after, tuple):
            return result, tuple((a + b) / 2.0 for a, b in zip(before, after))
        return result, (before + after) / 2.0
