"""Plumbing shared by the benchmark's parent and child processes: paths,
child-process launching with per-child peak memory, small statistics and
the environment record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
CHILD = BENCH / "child.py"

MODULES = ("model", "stats", "allocate", "regret", "simulate", "casestudy", "cli")
# Replications per Monte Carlo call made by ``reproduce --reps``.
CLI_REPS = 200_000

# numpy's BLAS would otherwise start threads of its own; the client process
# may use no more threads than the two that ``workers=2`` asks for.
_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Same entry point as the ``regretalloc`` console script in pyproject.toml,
# run from the checkout's ``src`` without installing the package.
CLI_LAUNCHER = (
    "import sys; sys.argv[0] = 'regretalloc'; "
    "from regretalloc.cli import console_main; console_main()"
)


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(_THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def use_src() -> None:
    """Make the checkout's package importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    def result(self) -> dict:
        """The JSON object a benchmark child prints as its last stdout line."""
        if self.returncode != 0:
            raise BenchError(f"child exited with {self.returncode}:\n{self.stderr[-2000:]}")
        return json.loads(self.stdout.strip().splitlines()[-1])


def fresh_dir(name: str) -> Path:
    """An empty scratch directory under WORK."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_child(argv: list[str], timeout: float = 170.0) -> ChildRun:
    """Run one process to completion and return its wall time and its own
    peak RSS (``wait4`` reports the rusage of exactly that child)."""
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(
            returncode=proc.returncode,
            wall_s=wall,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def run_bench_child(role: str, spec: dict, timeout: float = 170.0) -> tuple[dict, ChildRun]:
    run = run_child([sys.executable, str(CHILD), role, json.dumps(spec)], timeout=timeout)
    return run.result(), run


def time_to_ready(argv: list[str], timeout: float = 60.0) -> float:
    """Seconds from spawning ``argv`` until it prints its first line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate()
    finally:
        killer.cancel()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up probe failed ({proc.returncode}):\n{err.decode()[-2000:]}")
    return ready


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "regretalloc").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    """Machine and software facts recorded beside every result."""
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        loadavg = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        loadavg = list(os.getloadavg())
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }
