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
may be shared freely across threads.  The package's value types hold their
value semantics, written once, in ``_Value``: field names (and
``__match_args__``), equality, hash, repr and frozen fields.  Each has an
``__init__`` with the signature ``@dataclass`` would generate, storing
through ``__dict__``.  No class is processed by ``@dataclass`` at import,
which would load ``dataclasses`` and ``inspect`` on every start; each makes
its ``__dataclass_fields__`` on first access, for ``dataclasses.fields``,
``replace``, ``astuple`` and ``is_dataclass``.

Every value is checked when it is built and stores the Python ``int`` or
``float`` it checked (a ``DesignProblem`` its ``budget``), so that all later
arithmetic reads one set of numbers; only the weight-sum check reads the
caller's weights, in their own precision.  What a value derives is stored
then too, in ``__dict__`` outside the dataclass fields, unseen by equality,
hashing and repr:

* a ``DesignProblem``: ``n_groups``, the float ``weights``, ``var_control``,
  ``var_treated`` and ``var_sums``, and ``_inv_weight_sum``, sum_g 1/w_g;
* an ``Allocation``: ``total``, also from the allocators' ``_from_counts``;
* a ``TruthScenario``: ``var_sums``, ``_length``, the common length of its
  fields (None when they differ), and ``_fault``.  The public constructor
  derives them; ``_on_problem``, the adversarial profile's, takes the
  variances and sums from a checked ``DesignProblem`` and checks only ``tau``.

A ``TruthScenario`` with a non-finite value or a non-positive variance can be
built, but stores that fault, and every check raises it.  The validators
then check only types and how two values pair, and write to nothing.
"""

from __future__ import annotations

import enum
import math
import numbers

WEIGHT_SUM_TOL = 1e-9
# Allocators scale float shares by the budget; past 2**53 a float no longer
# holds every integer (and past ~1.8e308 none at all).
MAX_BUDGET = 2**53
_SCENARIO_FIELDS = ("tau", "baseline", "var_control", "var_treated")


class ValidationError(ValueError):
    """An input violates a documented structural invariant."""


def _is_bool(value) -> bool:
    """A boolean, Python's or numpy's (dtype kind "b", duck-typed so that this
    module needs no numpy): never a count or a real number here."""
    return isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", None) == "b"


def _as_real(value) -> float:
    """``float(value)`` for a Python or numpy real number other than a bool;
    else TypeError (strings and bytes too), or OverflowError past float range."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise TypeError
    return float(value)


def _as_float(value) -> float:
    """``_as_real(value)``, or NaN where that raises (None, True, "0.5",
    10**400), for a caller whose finiteness check then rejects it."""
    try:
        return _as_real(value)
    except (TypeError, OverflowError):
        return math.nan


def _items(values) -> tuple:
    """``values`` as a tuple; TypeError if it is not iterable (None, a bare
    number), or is a str or bytes, which would read per character or byte."""
    if isinstance(values, (str, bytes)):
        raise TypeError
    return tuple(values)


def _as_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a Python int of at least ``minimum``, if given; numpy
    integers (numbers.Integral, so no numpy import) convert, while bools and
    1.5, 2.0, None, "3" raise ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {value}")
    return value


class _DataclassFields:
    """``__dataclass_fields__`` of a value type, made on first access by
    ``dataclass(init=False, eq=False, repr=False)``, which stores the class's
    own attribute over this one.  ``_Value`` itself is no dataclass."""

    def __get__(self, instance, owner):
        if owner is _Value:
            raise AttributeError("__dataclass_fields__")
        import dataclasses
        dataclasses.dataclass(init=False, eq=False, repr=False)(owner)
        return owner.__dict__["__dataclass_fields__"]


class _Value:
    """Equality, hashing and repr over the fields, as ``@dataclass(frozen=True)``
    generates them: equal only to the same class with an equal field tuple
    (else NotImplemented), hashed as that tuple, printed as ``QualName(f=v!r, ...)``.
    A subclass's fields are the names of its own annotations, in order."""

    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        values = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __replace__(self, **changes):  # copy.replace, as @dataclass gives it on 3.13
        import dataclasses
        return dataclasses.replace(self, **changes)


class GroupSpec(_Value):
    """One stratum: population share and per-arm outcome variances."""

    label: str
    weight: float
    var_control: float
    var_treated: float

    def __init__(self, label, weight, var_control, var_treated) -> None:
        self.__dict__.update(
            label=label, weight=weight, var_control=var_control, var_treated=var_treated
        )

    @property
    def var_sum(self) -> float:
        """Variance of the treated-minus-control contrast per unit pair."""
        return self.var_control + self.var_treated


class DesignProblem(_Value):
    """A total participant budget plus the ordered list of strata
    (ValidationError naming the group or the budget when built otherwise)."""

    budget: int
    groups: tuple[GroupSpec, ...]

    def __init__(self, budget, groups) -> None:
        try:
            groups = tuple(groups)
        except TypeError:  # None, a bare GroupSpec
            raise ValidationError(
                f"problem field groups must be a sequence of GroupSpec, got {groups!r}"
            ) from None
        if len(groups) < 1:
            raise ValidationError("a design problem needs at least one group")
        floats = []  # each group's weight and arm variances, in turn
        for g, spec in enumerate(groups):
            if not isinstance(spec, GroupSpec):
                raise ValidationError(f"group {g}: expected a GroupSpec, got {spec!r}")
            for name, value in (
                ("weight", spec.weight),
                ("control-arm variance", spec.var_control),
                ("treated-arm variance", spec.var_treated),
            ):
                try:  # the kernels see float(value): 10**400 overflows, 1/10**400 is 0.0
                    as_float = _as_real(value)
                except TypeError:
                    raise ValidationError(
                        f"group {g}: {name} must be a real number, got {value!r}"
                    ) from None
                except OverflowError:
                    as_float = math.inf
                if not (as_float > 0.0) or not math.isfinite(as_float):
                    raise ValidationError(
                        f"group {g}: {name} must be positive and finite as a float, got {value}"
                    )
                floats.append(as_float)
        # In the caller's precision: float32 weights that sum to 1 in float32
        # need not in float64.
        total_weight = sum(g.weight for g in groups)
        if abs(total_weight - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(
                f"group weights must sum to 1 within {WEIGHT_SUM_TOL:g}; got {total_weight!r}"
            )
        # Counts are integers, so a fractional or NaN budget has no meaning.
        budget = _as_int("budget", budget)
        if budget < 2 * len(groups):
            raise ValidationError(
                f"budget {budget} cannot give each of {len(groups)} groups "
                "one treated/control pair"
            )
        if budget > MAX_BUDGET:
            raise ValidationError(f"budget {budget} exceeds 2**53, the float-exact limit")
        # Every later computation reads these Python numbers, never the
        # caller's objects; a numpy float64 converts without changing its value.
        weights, var_control, var_treated = (tuple(floats[k::3]) for k in range(3))
        self.__dict__.update(
            budget=budget,
            groups=groups,
            n_groups=len(groups),
            weights=weights,
            _inv_weight_sum=sum([1.0 / w for w in weights]),
            var_control=var_control,
            var_treated=var_treated,
            var_sums=tuple([c + t for c, t in zip(var_control, var_treated)]),
        )


class Allocation(_Value):
    """Even, nonnegative per-group sample counts (ValidationError when built
    otherwise); the sum, ``total``, may undershoot the budget."""

    counts: tuple[int, ...]

    def __init__(self, counts) -> None:
        coerced = []
        try:
            items = _items(counts)
        except TypeError:  # None, a bare count, a str
            raise ValidationError(f"allocation counts must be a sequence, got {counts!r}") from None
        for c in items:
            try:  # a plain int skips the bool lookups
                n = None if type(c) is not int and _is_bool(c) else int(c)
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


class TruthScenario(_Value):
    """A concrete data-generating process: per-group treatment effects,
    nuisance baselines, and per-arm variances."""

    tau: tuple[float, ...]
    baseline: tuple[float, ...]
    var_control: tuple[float, ...]
    var_treated: tuple[float, ...]

    def __init__(self, tau, baseline, var_control, var_treated) -> None:
        for name, values in zip(_SCENARIO_FIELDS, (tau, baseline, var_control, var_treated)):
            try:
                coerced = tuple(_as_real(v) for v in _items(values))
            except (TypeError, OverflowError):  # None, "x", a bare scalar, 10**400
                raise ValidationError(
                    f"scenario field {name} must be a sequence of real numbers, got {values!r}"
                ) from None
            self.__dict__[name] = coerced
        self._seal()

    @classmethod
    def _on_problem(cls, tau: tuple[float, ...], problem: DesignProblem) -> "TruthScenario":
        """The adversarial profile's constructor: ``tau``, Python floats, on
        zero baselines with the problem's checked variances and sums; only a
        non-finite ``tau`` (a sum that overflowed) is sealed, for its fault."""
        truth = object.__new__(cls)
        truth.__dict__.update(
            tau=tau, baseline=(0.0,) * problem.n_groups, var_control=problem.var_control,
            var_treated=problem.var_treated, var_sums=problem.var_sums,
            _length=problem.n_groups, _fault=None,
        )
        if not math.isfinite(sum(tau)):
            truth._seal()
        return truth

    def _seal(self) -> None:
        """Store ``var_sums``, ``_length`` and ``_fault``: the message every
        check raises for a non-finite value or a non-positive variance, else
        None.  With no class-level ``_fault``, no unsealed scenario passes."""
        vc, vt = self.var_control, self.var_treated
        length = len(vc) if len(self.tau) == len(self.baseline) == len(vc) == len(vt) else None
        fault = None
        # C-level passes; the fields and groups are walked only to name the
        # first bad one.  A sum is finite only if every value is; all() then
        # settles a sum that overflowed.
        values = self.tau + self.baseline + vc + vt
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            name = next(n for n in _SCENARIO_FIELDS if not all(map(math.isfinite, getattr(self, n))))
            fault = f"scenario field {name} must be finite, got {getattr(self, name)}"
        elif min(vc + vt, default=1.0) <= 0.0:
            # Fields of unequal length may name no group: every check rejects their counts.
            bad = [g for g, (c, t) in enumerate(zip(vc, vt)) if c <= 0.0 or t <= 0.0]
            fault = f"group {bad[0]}: scenario variances must be positive" if bad else None
        self.__dict__.update(
            var_sums=tuple([c + t for c, t in zip(vc, vt)]), _length=length, _fault=fault
        )


class Paradigm(enum.Enum):
    """How decisions are made and how group utilities are aggregated; each
    member carries what differs between paradigms.  ``flag`` names the
    paradigm in CLI options and CSV columns.  ``pooled``: one decision, from
    the pooled estimate, covers every group.  ``worst_off``: per-group
    regrets are unweighted and combine by their max (in Monte Carlo, the max
    of the per-group means); otherwise they combine by a population-weighted
    sum per replication.  ``combine`` is the builtin that folds per-group
    regrets into one: ``sum``, or ``max`` where ``worst_off``.  Members are
    in the column order of every report."""

    SEPARATE_UTILITARIAN = ("separate-utilitarian", "separate", False, False)
    JOINT_UTILITARIAN = ("joint-utilitarian", "joint", True, False)
    SEPARATE_EGALITARIAN = ("separate-egalitarian", "egalitarian", False, True)

    def __new__(cls, value: str, flag: str, pooled: bool, worst_off: bool) -> "Paradigm":
        member = object.__new__(cls)
        member._value_ = value
        member.flag, member.pooled, member.worst_off = flag, pooled, worst_off
        member.combine = max if worst_off else sum
        return member

    def group_weights(self, problem: DesignProblem) -> tuple[float, ...]:
        return (1.0,) * problem.n_groups if self.worst_off else problem.weights


def validate_problem(problem: DesignProblem) -> DesignProblem:
    """The problem unchanged if it is a ``DesignProblem`` (checked when it
    was built), else ValidationError."""
    if not isinstance(problem, DesignProblem):
        raise ValidationError(f"problem must be a DesignProblem, got {problem!r}")
    return problem


def check_allocation(problem: DesignProblem, allocation: Allocation) -> Allocation:
    """Check an allocation against a problem: both have their types, and the
    allocation has one count per group and a total within the budget.  Usable
    independently of any allocator; an ``Allocation`` is even and
    nonnegative from the moment it is built."""
    if not isinstance(problem, DesignProblem):
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


def check_paradigm(paradigm: Paradigm) -> Paradigm:
    """The paradigm unchanged if it is a ``Paradigm`` member, else ValidationError."""
    if not isinstance(paradigm, Paradigm):
        raise ValidationError(f"unknown paradigm {paradigm!r}")
    return paradigm


def check_scenario(problem: DesignProblem, truth: TruthScenario) -> TruthScenario:
    """Check a truth scenario against a problem: both have their types, the
    scenario has a matching group count, and it was built without a fault
    (a non-finite value or a non-positive variance)."""
    if not isinstance(problem, DesignProblem):
        validate_problem(problem)
    if not isinstance(truth, TruthScenario):
        raise ValidationError(f"truth must be a TruthScenario, got {truth!r}")
    G = problem.n_groups
    if truth._length != G:  # the fields are walked only to name the first bad one
        for name in _SCENARIO_FIELDS:
            n = len(getattr(truth, name))
            if n != G:
                raise ValidationError(f"scenario field {name} has {n} entries for {G} groups")
    if truth._fault is not None:
        raise ValidationError(truth._fault)
    return truth
