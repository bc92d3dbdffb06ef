"""Minimax-regret sample allocation for stratified randomized experiments.

Given a participant budget, population shares, and per-arm outcome
variances, this package computes the sample allocations that are worst-case
optimal under three decision paradigms (per-group decisions with weighted
utility, one pooled decision, and the worst-off-group objective), evaluates
worst-case and scenario-specific expected regret in closed form, and
cross-validates everything with a seeded Monte Carlo trial simulator.

Only the Monte Carlo engine (``regretalloc.simulate``) uses numpy, and it is
loaded on first use: ``import regretalloc`` and every closed-form function
leave numpy unimported.  The simulate names exported here (``SimConfig``,
``monte_carlo_regret`` and the others) are resolved on first access and are
the very objects in ``regretalloc.simulate``.
"""

from importlib import import_module as _import_module

from .allocate import DegenerateAllocationWarning, allocate, shares
from .casestudy import (
    CaseStudyCase,
    ConfigError,
    IncidenceSpec,
    PowerSpec,
    ScenarioConfig,
    build_case_study,
    composite_moments,
    default_config,
    load_config,
    parse_config,
    required_sample_size,
)
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
    joint_adversarial_tau,
    joint_mismatch,
    joint_regret_expression,
    worst_case,
    worst_case_egalitarian,
    worst_case_joint,
    worst_case_separate,
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

# Public names of ``simulate``, the one module that needs numpy, served on
# first access (PEP 562) so that closed-form users never pay for that import.
_SIMULATE_EXPORTS = frozenset(
    (
        "MonteCarloEstimate",
        "SimConfig",
        "decide",
        "monte_carlo_regret",
        "realized_regret",
    )
)


def __getattr__(name: str):
    if name not in _SIMULATE_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.simulate"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SIMULATE_EXPORTS})
