"""Minimax-regret sample allocation for stratified randomized experiments.

Given a participant budget, population shares, and per-arm outcome
variances, this package computes the sample allocations that are worst-case
optimal under three decision paradigms (per-group decisions with weighted
utility, one pooled decision, and the worst-off-group objective), evaluates
worst-case and scenario-specific expected regret in closed form, and
cross-validates everything with a seeded Monte Carlo trial simulator.

``import regretalloc`` loads only the closed forms (``model``, ``stats``,
``regret`` and ``allocate``).  The Monte Carlo engine
(``regretalloc.simulate``), the one module that uses numpy, and the case
study (``regretalloc.casestudy``, with ``json``) are loaded on first use:
their names exported here (``SimConfig``, ``monte_carlo_regret``,
``default_config``, ``ConfigError`` and the others) are resolved on first
access and are the very objects in those modules.  ``normal_quantile``
loads the standard library's ``statistics`` on its first call.
"""

from importlib import import_module as _import_module

from .allocate import DegenerateAllocationWarning, allocate, shares
from .model import (
    Allocation,
    DesignProblem,
    GroupSpec,
    Paradigm,
    TruthScenario,
    ValidationError,
    check_allocation,
    check_scenario,
    validate_problem,
)
from .regret import (
    RegretSummary,
    adversarial_tau_separate,
    expected_regret,
    joint_mismatch,
    worst_case,
)
from .stats import (
    ThresholdConstants,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    normal_sf,
    solve_threshold_constants,
    threshold_constants,
)

__version__ = "0.1.0"

# Names served on first access (PEP 562), by the module that defines them,
# so that closed-form users never pay for numpy (``simulate``) or for the
# case study and ``json`` (``casestudy``, which is also served as itself).
_LAZY_EXPORTS = {
    **dict.fromkeys(
        ("MonteCarloEstimate", "SimConfig", "decide", "monte_carlo_regret", "realized_regret"),
        "simulate",
    ),
    **dict.fromkeys(
        (
            "CaseStudyCase", "ConfigError", "IncidenceSpec", "PowerSpec", "ScenarioConfig",
            "build_case_study", "casestudy", "composite_moments", "default_config",
            "load_config", "parse_config", "required_sample_size",
        ),
        "casestudy",
    ),
}


def __getattr__(name: str):
    source = _LAZY_EXPORTS.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{source}")
    if name != source:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_EXPORTS})
