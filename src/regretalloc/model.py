"""Domain types shared across the package: stratified design problems,
per-group sample allocations, and concrete data-generating scenarios.

Conventions
-----------
* Group weights are population shares and must sum to 1; inputs are expected
  to arrive already normalized (validation rejects anything else).
* Outcomes are unit-agnostic: only relative magnitudes of effects and
  standard deviations matter, and regret scales linearly with the outcome
  unit.  The bundled case study stores rates as fractions, never percents.
* Allocations hold even, nonnegative per-group counts so treatment and
  control can be perfectly balanced within each stratum.  ``Allocation``
  checks this when it is built, so an odd or negative one never exists.

All types are immutable values; they carry no behavior beyond validation and
may be shared freely across threads.

Problems and scenarios are validated once per instance.  ``validate_problem``,
and the part of ``check_scenario`` that depends on the scenario alone,
record a pass on the frozen instance (in its ``__dict__``, outside the
dataclass fields, like the cached ``weights``), so later calls skip those
checks; equality, hashing and repr do not see the record.  Only success is
recorded: an invalid input raises the same ``ValidationError`` on every
call.  ``check_allocation`` and ``check_scenario`` start by validating their
problem; the checks that pair an allocation or a scenario with it (group
count, total within budget) run every time.  ``Allocation.total`` and
``TruthScenario.var_sums`` are stored the same way when the instance is
built, so reading them computes nothing.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

WEIGHT_SUM_TOL = 1e-9
# Allocators scale float shares by the budget; past 2**53 a float no longer
# holds every integer (and past ~1.8e308 none at all).
MAX_BUDGET = 2**53


class ValidationError(ValueError):
    """An input violates a documented structural invariant."""


def _as_int(name: str, value) -> int:
    """``value`` as a Python int; numpy integers (numbers.Integral, so no numpy
    import) convert, while bools and 1.5, 2.0, None, "3" raise ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _record_pass(instance) -> None:
    # A frozen dataclass refuses setattr; the record shadows the class-level
    # ``_checked = False`` from the instance ``__dict__``.
    instance.__dict__["_checked"] = True


@dataclass(frozen=True)
class GroupSpec:
    """One stratum: population share and per-arm outcome variances."""

    label: str
    weight: float
    var_control: float
    var_treated: float

    @property
    def var_sum(self) -> float:
        """Variance of the treated-minus-control contrast per unit pair."""
        return self.var_control + self.var_treated


@dataclass(frozen=True)
class DesignProblem:
    """A total participant budget plus the ordered list of strata."""

    budget: int
    groups: tuple[GroupSpec, ...]

    _checked = False  # not a field: set by ``validate_problem`` on success

    def __post_init__(self) -> None:
        try:
            groups = tuple(self.groups)
        except TypeError:  # None, a bare GroupSpec
            raise ValidationError(
                f"problem field groups must be a sequence of GroupSpec, got {self.groups!r}"
            ) from None
        object.__setattr__(self, "groups", groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    # Cached per instance (in ``__dict__``, outside the dataclass fields, so
    # equality, hashing and repr are unchanged); the groups never change.
    # Stored as Python floats, so the regret kernels' per-group terms are
    # floats too; a numpy float64 converts without changing its value.
    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(float(g.weight) for g in self.groups)

    @cached_property
    def var_sums(self) -> tuple[float, ...]:
        return tuple(float(g.var_sum) for g in self.groups)


@dataclass(frozen=True)
class Allocation:
    """Even, nonnegative per-group sample counts (ValidationError when built
    otherwise); the sum, ``total``, may undershoot the budget."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        coerced = []
        try:
            counts = iter(self.counts)
        except TypeError:  # None, a bare count
            raise ValidationError(f"allocation counts must be a sequence, got {self.counts!r}") from None
        for c in counts:
            # Booleans are not counts: Python's, and numpy's (dtype kind "b",
            # duck-typed so that this module needs no numpy).  A plain int
            # skips the lookups.
            is_bool = type(c) is not int and (
                isinstance(c, bool) or getattr(getattr(c, "dtype", None), "kind", None) == "b"
            )
            try:
                n = None if is_bool else int(c)
            except (TypeError, ValueError, OverflowError):  # None, NaN, +-inf
                n = None
            if n is None or n != c:
                # Also catches continuous shares passed where counts belong.
                raise ValidationError(f"allocation counts must be integers, got {c!r}")
            coerced.append(n)
        # A second pass, so that a non-integer anywhere is reported first.
        for g, n in enumerate(coerced):
            if n < 0:
                raise ValidationError(f"group {g}: count {n} is negative")
            if n % 2 != 0:
                raise ValidationError(f"group {g}: count {n} is odd; strata must balance 1:1")
        self.__dict__.update(counts=tuple(coerced), total=sum(coerced))

    @classmethod
    def _from_counts(cls, counts: tuple[int, ...]) -> "Allocation":
        """The allocators' constructor: ``counts`` is a tuple of even Python
        ints >= 0 that the allocator just built, so none is checked again."""
        allocation = object.__new__(cls)
        allocation.__dict__.update(counts=counts, total=sum(counts))
        return allocation


@dataclass(frozen=True)
class TruthScenario:
    """A concrete data-generating process: per-group treatment effects,
    nuisance baselines, and per-arm variances."""

    tau: tuple[float, ...]
    baseline: tuple[float, ...]
    var_control: tuple[float, ...]
    var_treated: tuple[float, ...]

    _checked = False  # not a field: set by ``check_scenario`` on success

    def __post_init__(self) -> None:
        for name in ("tau", "baseline", "var_control", "var_treated"):
            values = getattr(self, name)
            try:
                if isinstance(values, (str, bytes)):  # would split per character
                    raise TypeError
                coerced = tuple(float(v) for v in values)
            except (TypeError, ValueError, OverflowError):  # None, "x", a bare scalar
                raise ValidationError(
                    f"scenario field {name} must be a sequence of real numbers, got {values!r}"
                ) from None
            object.__setattr__(self, name, coerced)
        self.__dict__["var_sums"] = _var_sums(self.var_control, self.var_treated)

    @classmethod
    def _from_floats(cls, tau, baseline, var_control, var_treated) -> "TruthScenario":
        """The regret kernels' constructor: each field is already a tuple of
        Python floats, so none is coerced again; ``check_scenario`` checks
        the values on first use."""
        truth = object.__new__(cls)
        truth.__dict__.update(
            tau=tau, baseline=baseline, var_control=var_control, var_treated=var_treated,
            var_sums=_var_sums(var_control, var_treated),
        )
        return truth

    def negated(self) -> "TruthScenario":
        """The sign-flipped scenario; expected regret is invariant to this."""
        return TruthScenario(
            tau=tuple(-t for t in self.tau),
            baseline=self.baseline,
            var_control=self.var_control,
            var_treated=self.var_treated,
        )


def _var_sums(var_control, var_treated) -> tuple[float, ...]:
    """Per group, the variance of the treated-minus-control contrast."""
    return tuple(c + t for c, t in zip(var_control, var_treated))


class Paradigm(enum.Enum):
    """How decisions are made and how group utilities are aggregated."""

    SEPARATE_UTILITARIAN = "separate-utilitarian"
    JOINT_UTILITARIAN = "joint-utilitarian"
    SEPARATE_EGALITARIAN = "separate-egalitarian"


def validate_problem(problem: DesignProblem) -> DesignProblem:
    """Check all structural invariants and return the problem unchanged.

    Raises ValidationError naming the offending group index for per-group
    violations, or the budget.  The checks run once per instance: a pass is
    recorded on the frozen problem and later calls return at once.  A
    failure is never recorded, so an invalid problem raises the same error
    on every call.
    """
    if not isinstance(problem, DesignProblem):
        raise ValidationError(f"problem must be a DesignProblem, got {problem!r}")
    if problem._checked:
        return problem
    groups = problem.groups
    if len(groups) < 1:
        raise ValidationError("a design problem needs at least one group")
    for g, spec in enumerate(groups):
        if not isinstance(spec, GroupSpec):
            raise ValidationError(f"group {g}: expected a GroupSpec, got {spec!r}")
        for name, value in (
            ("weight", spec.weight),
            ("control-arm variance", spec.var_control),
            ("treated-arm variance", spec.var_treated),
        ):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"group {g}: {name} must be a real number, got {value!r}")
            try:  # the kernels see float(value): 10**400 overflows, 1/10**400 is 0.0
                as_float = float(value)
            except OverflowError:
                as_float = math.inf
            if not (as_float > 0.0) or not math.isfinite(as_float):
                raise ValidationError(
                    f"group {g}: {name} must be positive and finite as a float, got {value}"
                )
    total_weight = sum(g.weight for g in groups)
    if abs(total_weight - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(
            f"group weights must sum to 1 within {WEIGHT_SUM_TOL:g}; got {total_weight!r}"
        )
    # Counts are integers, so a fractional or NaN budget has no meaning.
    budget = _as_int("budget", problem.budget)
    if budget < 2 * len(groups):
        raise ValidationError(
            f"budget {budget} cannot give each of {len(groups)} groups "
            "one treated/control pair"
        )
    if budget > MAX_BUDGET:
        raise ValidationError(f"budget {budget} exceeds 2**53, the float-exact limit")
    _record_pass(problem)
    return problem


def check_allocation(problem: DesignProblem, allocation: Allocation) -> Allocation:
    """Check an allocation against a problem: the problem is valid, and the
    allocation has one count per group and a total within the budget.  Usable
    independently of any allocator; an ``Allocation`` is even and
    nonnegative from the moment it is built."""
    validate_problem(problem)
    if not isinstance(allocation, Allocation):
        raise ValidationError(f"allocation must be an Allocation, got {allocation!r}")
    counts = allocation.counts
    if len(counts) != problem.n_groups:
        raise ValidationError(
            f"allocation has {len(counts)} entries for {problem.n_groups} groups"
        )
    if allocation.total > problem.budget:
        raise ValidationError(
            f"allocation total {allocation.total} exceeds budget {problem.budget}"
        )
    return allocation


def check_scenario(problem: DesignProblem, truth: TruthScenario) -> TruthScenario:
    """Check a truth scenario against a problem: the problem is valid, and
    the scenario has a matching group count, finite values and positive
    variances.  The value checks run once per scenario; the group count,
    which depends on the problem, is compared on every call."""
    validate_problem(problem)
    _check_scenario_values(truth, problem.n_groups)
    return truth


def _check_scenario_values(truth: TruthScenario, G: int) -> None:
    """Every field has ``G`` entries, and (once per scenario) the values are
    finite and the variances positive."""
    if not isinstance(truth, TruthScenario):
        raise ValidationError(f"truth must be a TruthScenario, got {truth!r}")
    checked = truth._checked
    for name, values in (
        ("tau", truth.tau),
        ("baseline", truth.baseline),
        ("var_control", truth.var_control),
        ("var_treated", truth.var_treated),
    ):
        if len(values) != G:
            raise ValidationError(f"scenario field {name} has {len(values)} entries for {G} groups")
        if not checked and not all(map(math.isfinite, values)):
            raise ValidationError(f"scenario field {name} must be finite, got {values}")
    if not checked:
        # min() runs in C; the groups are walked only to name the first bad
        # one.  G = 0 (an empty allocation in ``run_trial``) has nothing to check.
        if G and (min(truth.var_control) <= 0.0 or min(truth.var_treated) <= 0.0):
            for g in range(G):
                if truth.var_control[g] <= 0.0 or truth.var_treated[g] <= 0.0:
                    raise ValidationError(f"group {g}: scenario variances must be positive")
        _record_pass(truth)
