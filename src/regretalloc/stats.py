"""Standard-normal special functions, scalar root finding, and the threshold
constants that scale every worst-case regret bound.

The decision problem for a single stratum reduces to maximizing t * Phi_c(t)
over t >= 0, where Phi_c is the standard-normal survival function.  The
maximizer ``t_star`` (~0.7518) and the maximum ``c0 = t_star * Phi_c(t_star)``
(~0.16997) are universal constants of the model; they are solved numerically
rather than hard-coded, so their provenance stays testable.

All functions are pure and safe for concurrent use.  The constants are
solved once at import; ``threshold_constants`` returns that frozen object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Bracket for the root of t*pdf(t) - sf(t); the root is unique and ~0.75.
_THRESHOLD_BRACKET = (0.5, 1.0)
# A bracket with a NaN end meets neither stopping test of ``bisect_root``;
# this step cap is what ends it.
_BISECT_MAX_ITER = 200


def normal_pdf(x: float) -> float:
    """Standard-normal density phi(x)."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def normal_cdf(x: float) -> float:
    """Standard-normal CDF Phi(x), absolute error below 1e-12."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_sf(x: float) -> float:
    """Survival function Phi_c(x) = 1 - Phi(x).

    Evaluated through erfc directly so the far right tail keeps full relative
    accuracy instead of cancelling against 1.
    """
    return 0.5 * math.erfc(x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse CDF: the z with Phi(z) = p, accurate to |Phi(z) - p| <= 1e-10.

    Raises ValueError outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {p}")
    z = NormalDist().inv_cdf(p)
    # One Newton polish; skipped where the density has underflowed.
    dens = normal_pdf(z)
    if dens > 1e-300:
        z -= (normal_cdf(z) - p) / dens
    return z


def bisect_root(f: Callable[[float], float], lo: float, hi: float, tolerance: float) -> float:
    """Bracketed bisection: a root of ``f`` in [lo, hi] to within ``tolerance``.

    ``f(lo)`` and ``f(hi)`` must differ in sign.  Deterministic and
    derivative-free; converges unconditionally on a sign-change bracket.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tolerance or mid in (lo, hi):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ThresholdConstants:
    """The maximizer t_star of t * Phi_c(t) and the maximum value c0."""

    t_star: float
    c0: float


def solve_threshold_constants(tolerance: float = 1e-12) -> ThresholdConstants:
    """Solve t * phi(t) = Phi_c(t) on [0.5, 1.0] and return (t_star, c0).

    The stationarity equation has a single root near 0.75; c0 is built from
    the root as t_star * Phi_c(t_star), which rounds to 0.17.
    """
    t_star = bisect_root(
        lambda t: t * normal_pdf(t) - normal_sf(t),
        *_THRESHOLD_BRACKET,
        tolerance=tolerance,
    )
    return ThresholdConstants(t_star=t_star, c0=t_star * normal_sf(t_star))


# The import lock runs this exactly once per process.
_CONSTANTS = solve_threshold_constants()


def threshold_constants() -> ThresholdConstants:
    """The constants :func:`solve_threshold_constants` solved at import."""
    return _CONSTANTS
