"""Standard-normal special functions and the threshold constants that scale
every worst-case regret bound.

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

from .model import _Value

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Bracket for the root of t*pdf(t) - sf(t); the root is unique and ~0.75.
_THRESHOLD_BRACKET = (0.5, 1.0)


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
    """Inverse CDF: the z with Phi(z) = p, within about an ulp of the exact
    quantile.  Raises ValueError outside (0, 1).  The C kernel of
    ``NormalDist().inv_cdf`` gives its bits without loading ``statistics``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {p}")
    try:  # a plain import; called each time, ``from ... import`` is several times slower
        import _statistics
    except ImportError:  # an interpreter without the C kernel
        import statistics
        return statistics.NormalDist().inv_cdf(p)
    return _statistics._normal_dist_inv_cdf(p, 0.0, 1.0)


class ThresholdConstants(_Value):
    """The maximizer t_star of t * Phi_c(t) and the maximum value c0."""

    t_star: float
    c0: float

    def __init__(self, t_star, c0) -> None:
        self.__dict__.update(t_star=t_star, c0=c0)


def solve_threshold_constants() -> ThresholdConstants:
    """Solve t * phi(t) = Phi_c(t) on [0.5, 1.0] by bisection down to two
    adjacent floats and return (t_star, c0).

    The stationarity equation has a single root near 0.75; c0 is built from
    the root as t_star * Phi_c(t_star), which rounds to 0.17.
    """
    # Bisection: f(t) = t*phi(t) - Phi_c(t) is negative at the bracket's low
    # end and positive at its high end.  Halving each end is exact, and each
    # step stops or moves one end strictly inward, so the loop ends.
    lo, hi = _THRESHOLD_BRACKET
    t_star = 0.5 * lo + 0.5 * hi
    while t_star not in (lo, hi):
        if t_star * normal_pdf(t_star) < normal_sf(t_star):
            lo = t_star
        else:
            hi = t_star
        t_star = 0.5 * lo + 0.5 * hi
    return ThresholdConstants(t_star=t_star, c0=t_star * normal_sf(t_star))


# The import lock runs this exactly once per process.
_CONSTANTS = solve_threshold_constants()


def threshold_constants() -> ThresholdConstants:
    """The constants :func:`solve_threshold_constants` solved at import."""
    return _CONSTANTS
