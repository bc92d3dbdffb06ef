"""COVID-19 vaccine trial case study: composite efficacy/safety outcomes,
conservative design noise, power-based budget, and the scenario pipeline.

The bundled scenario studies a two-group stratified trial (adults under 65,
adults 65 and over) with a composite outcome

    y = severe_covid + beta * severe_adverse_reaction,

where ``beta`` trades efficacy against safety.  Group shares follow the US
population split (0.83 / 0.17).  Two betas are bundled: 0.005 (treatment
benefits both groups under the reported rates) and 0.025 (treatment only
benefits the older group).

Design-time noise is ``composite_moments`` at the worse observed rate of
each component: control's severe-COVID rate and treated's adverse-reaction
rate, put on both arms, so the two arms' composite variances are identical.
Evaluation scenarios take ``composite_moments`` at the trial's reported
rates instead.

All rates are stored as fractions; percent formatting happens only at
presentation time.  The bundled scenario is the file ``covid_trial.json``
in this package's directory; ``default_config`` reads it with
``load_config``, the same path a user's scenario file takes.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence

from .model import (
    DesignProblem, GroupSpec, TruthScenario, ValidationError, _Value, _as_float, _as_int, _items,
)
from .stats import normal_quantile


class ConfigError(ValueError):
    """A scenario configuration violates the documented schema."""


def _as_finite(
    value: object, path: str, expected: str = "a finite number", accept=None
) -> float:
    """A real number (``model._as_real``) as a finite float for which
    ``accept``, if given, holds; ConfigError naming ``path`` for anything
    else, including NaN, +-Infinity and integers beyond float range."""
    v = _as_float(value)
    if math.isfinite(v) and (accept is None or accept(v)):
        return v
    raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def _as_probability(value: object, path: str) -> float:
    return _as_finite(value, path, "a probability in [0, 1]", lambda v: 0.0 <= v <= 1.0)


def _as_nonnegative(value: object, path: str) -> float:
    return _as_finite(value, path, "a finite nonnegative number", lambda v: v >= 0)


def _as_nonzero(value: object, path: str) -> float:
    return _as_finite(value, path, "a finite nonzero number", lambda v: v != 0)


def _as_quantile(value: object, path: str) -> float:
    v = _as_finite(value, path)
    if not 0.0 < v < 1.0:
        raise ConfigError(f"{path} must lie strictly in (0, 1), got {v}")
    return v


def _as_tuple(values: object, name: str, check) -> tuple[float, ...]:
    """``check(value, "name[g]")`` applied to each entry of ``values``
    (``model._items``: a str or bytes is no list)."""
    try:
        items = _items(values)
    except TypeError:
        raise ConfigError(f"{name}: expected a list of numbers, got {values!r}") from None
    return tuple(check(v, f"{name}[{g}]") for g, v in enumerate(items))


_RATE_FIELDS = ("covid_treated", "covid_control", "ar_treated", "ar_control")


class IncidenceSpec(_Value):
    """Per-group incidence probabilities for both outcome components, plus
    the efficacy/safety tradeoff weight."""

    covid_treated: tuple[float, ...]
    covid_control: tuple[float, ...]
    ar_treated: tuple[float, ...]
    ar_control: tuple[float, ...]
    beta: float

    def __init__(self, covid_treated, covid_control, ar_treated, ar_control, beta) -> None:
        rates = (covid_treated, covid_control, ar_treated, ar_control)
        for name, values in zip(_RATE_FIELDS, rates):
            self.__dict__[name] = _as_tuple(values, name, _as_probability)
        if len({len(getattr(self, name)) for name in _RATE_FIELDS}) != 1:
            raise ConfigError("incidence lists must all have one entry per group")
        self.__dict__["beta"] = _as_nonnegative(beta, "beta")


class PowerSpec(_Value):
    """Inputs for the power-based total sample size: detectable effect,
    size/power quantile levels, and per-group per-arm variances to pool."""

    detectable_effect: float
    power_quantile: float
    size_quantile: float
    var_control: tuple[float, ...]
    var_treated: tuple[float, ...]

    def __init__(
        self, detectable_effect, power_quantile, size_quantile, var_control, var_treated
    ) -> None:
        self.__dict__.update(  # checked in field order
            detectable_effect=_as_nonzero(detectable_effect, "detectable effect"),
            power_quantile=_as_quantile(power_quantile, "power_quantile"),
            size_quantile=_as_quantile(size_quantile, "size_quantile"),
            var_control=_as_tuple(var_control, "var_control", _as_nonnegative),
            var_treated=_as_tuple(var_treated, "var_treated", _as_nonnegative),
        )
        if len(self.var_control) != len(self.var_treated):
            raise ConfigError("var_control and var_treated differ in length")


def _bernoulli_var(p: float) -> float:
    return p * (1.0 - p)


def composite_moments(spec: IncidenceSpec) -> TruthScenario:
    """Gaussian moments of the composite outcome under independence.

    Per group and arm: mean = p_covid + beta*p_ar and
    variance = p_covid*(1-p_covid) + beta^2 * p_ar*(1-p_ar); the treatment
    effect is the treated-minus-control mean and the baseline their average.
    """
    if not isinstance(spec, IncidenceSpec):
        raise ConfigError(f"spec must be an IncidenceSpec, got {spec!r}")
    beta = spec.beta
    beta_sq = beta * beta
    tau, baseline, var0, var1 = [], [], [], []
    for g in range(len(spec.covid_treated)):
        mean_treated = spec.covid_treated[g] + beta * spec.ar_treated[g]
        mean_control = spec.covid_control[g] + beta * spec.ar_control[g]
        tau.append(mean_treated - mean_control)
        baseline.append((mean_treated + mean_control) / 2.0)
        var1.append(_bernoulli_var(spec.covid_treated[g]) + beta_sq * _bernoulli_var(spec.ar_treated[g]))
        var0.append(_bernoulli_var(spec.covid_control[g]) + beta_sq * _bernoulli_var(spec.ar_control[g]))
    return TruthScenario(
        tau=tuple(tau),
        baseline=tuple(baseline),
        var_control=tuple(var0),
        var_treated=tuple(var1),
    )


def required_sample_size(spec: PowerSpec, weights: Sequence[float]) -> int:
    """Total sample size for the two-sided-free one-sided test
    N = 2*(s0^2+s1^2) * (z_power - z_size)^2 / effect^2, with per-arm
    variances pooled by the population weights, rounded up to an even total.

    The quantile levels are caller-configurable because the two documented
    conventions (80% vs 90% power quantile) give materially different sizes;
    both are reported by the CLI rather than silently chosen.
    """
    if not isinstance(spec, PowerSpec):
        raise ConfigError(f"spec must be a PowerSpec, got {spec!r}")
    weights = _as_tuple(weights, "weights", _as_probability)
    if len(weights) != len(spec.var_control):
        raise ConfigError("weights and variance lists differ in length")
    pooled_control = sum(w * v for w, v in zip(weights, spec.var_control))
    pooled_treated = sum(w * v for w, v in zip(weights, spec.var_treated))
    contrast_var = 2.0 * (pooled_control + pooled_treated)
    z_power = normal_quantile(spec.power_quantile)
    z_size = normal_quantile(spec.size_quantile)
    spread = contrast_var * (z_power - z_size) ** 2
    if not math.isfinite(spread):
        raise ConfigError("variances var_control and var_treated pool beyond float range")
    try:
        size = 2 * math.ceil(spread / spec.detectable_effect**2 / 2.0)
    except (OverflowError, ZeroDivisionError):  # effect**2 or the size out of float range
        raise ConfigError(
            f"detectable effect {spec.detectable_effect!r} gives no finite sample size"
        ) from None
    # Each w * v can underflow to 0 where the exact product, and so N, is positive.
    if size == 0 and spec.power_quantile != spec.size_quantile:
        groups = zip(weights, spec.var_control, spec.var_treated)
        return 2 * any(w > 0 and v0 + v1 > 0 for w, v0, v1 in groups)
    return size


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

def _as_label(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _per_group(values: object, n_groups: int, field: str, check) -> tuple:
    """``check(value, "groups[g].field")`` applied to each of ``n_groups``
    entries of ``values``."""
    try:
        items = _items(values)
        if len(items) != n_groups:
            raise TypeError
    except TypeError:
        raise ConfigError(
            f"groups[*].{field}: expected one entry per weight ({n_groups}), got {values!r}"
        ) from None
    return tuple(check(v, f"groups[{g}].{field}") for g, v in enumerate(items))


class ScenarioConfig(_Value):
    """A validated scenario configuration.  Each field is checked when the
    config is built, parsed or by hand, and a fault raises ConfigError
    naming the field by its path in the config file."""

    weights: tuple[float, ...]
    budget: int
    labels: tuple[str, ...]
    design_covid_control: tuple[float, ...]
    design_ar_treated: tuple[float, ...]
    reported: dict[str, tuple[float, ...]]
    beta_cases: tuple[float, ...]
    detectable_effect: float
    power_quantile: float
    size_quantile: float

    def __init__(
        self, weights, budget, labels, design_covid_control, design_ar_treated, reported,
        beta_cases, detectable_effect, power_quantile, size_quantile,
    ) -> None:
        weights = _as_tuple(weights, "weights", _as_probability)
        beta_cases = _as_tuple(beta_cases, "beta_cases", _as_nonnegative)
        for name, values in (("weights", weights), ("beta_cases", beta_cases)):
            if not values:
                raise ConfigError(f"{name}: expected a nonempty list")
        G = len(weights)
        try:
            checked_budget = _as_int("budget", budget)
        except ValidationError:
            checked_budget = 0
        if checked_budget < 2 * G:  # DesignProblem needs a treated/control pair per group
            raise ConfigError(f"budget: expected a positive integer >= {2 * G}, got {budget!r}")
        if not isinstance(reported, dict) or set(reported) != set(_RATE_FIELDS):
            raise ConfigError(
                f"groups[*].reported: expected a dict with keys {sorted(_RATE_FIELDS)}, "
                f"got {reported!r}"
            )
        self.__dict__.update(
            weights=weights,
            budget=checked_budget,
            labels=_per_group(labels, G, "label", _as_label),
            design_covid_control=_per_group(
                design_covid_control, G, "design.covid_control", _as_probability
            ),
            design_ar_treated=_per_group(
                design_ar_treated, G, "design.ar_treated", _as_probability
            ),
            reported={
                key: _per_group(reported[key], G, f"reported.{key}", _as_probability)
                for key in _RATE_FIELDS
            },
            beta_cases=beta_cases,
            detectable_effect=_as_nonzero(detectable_effect, "power.detectable_effect"),
            power_quantile=_as_quantile(power_quantile, "power.power_quantile"),
            size_quantile=_as_quantile(size_quantile, "power.size_quantile"),
        )


def _require_keys(obj: object, keys: set[str], path: str) -> None:
    """``obj`` must be an object with exactly ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - keys
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = keys - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing key(s) {sorted(missing)}")


def parse_config(obj: dict[str, object]) -> ScenarioConfig:
    """Validate a JSON-compatible scenario document; unknown keys rejected,
    violations reported with their field path.  This checks the document's
    shape (objects, key sets and lists); ``ScenarioConfig`` checks the
    values."""
    _require_keys(obj, {"weights", "budget", "groups", "beta_cases", "power"}, "config")
    weights = obj["weights"]
    if not isinstance(weights, list) or not weights:
        raise ConfigError("weights: expected a nonempty list")
    groups = obj["groups"]
    if not isinstance(groups, list) or len(groups) != len(weights):
        raise ConfigError(
            f"groups: expected a list with one entry per weight ({len(weights)})"
        )
    for g, entry in enumerate(groups):
        path = f"groups[{g}]"
        _require_keys(entry, {"label", "design", "reported"}, path)
        _require_keys(entry["design"], {"covid_control", "ar_treated"}, f"{path}.design")
        _require_keys(entry["reported"], set(_RATE_FIELDS), f"{path}.reported")
    if not isinstance(obj["beta_cases"], list) or not obj["beta_cases"]:
        raise ConfigError("beta_cases: expected a nonempty list")
    power = obj["power"]
    _require_keys(power, {"detectable_effect", "power_quantile", "size_quantile"}, "power")
    return ScenarioConfig(
        weights=tuple(weights),
        budget=obj["budget"],
        labels=tuple(entry["label"] for entry in groups),
        design_covid_control=tuple(entry["design"]["covid_control"] for entry in groups),
        design_ar_treated=tuple(entry["design"]["ar_treated"] for entry in groups),
        reported={key: tuple(entry["reported"][key] for entry in groups) for key in _RATE_FIELDS},
        beta_cases=tuple(obj["beta_cases"]),
        detectable_effect=power["detectable_effect"],
        power_quantile=power["power_quantile"],
        size_quantile=power["size_quantile"],
    )


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file.  A path that is missing, names a
    directory or holds a NUL byte, and text that is not UTF-8 JSON, nests
    too deeply or holds an integer past Python's int/str digit limit,
    become ConfigError naming ``path``; so does a ``path`` that is not a
    str or path object (an int would be opened, then closed, as a file
    descriptor)."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"config path must be a str or path object, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # a NUL in the path, or an integer too long to convert
        raise ConfigError(f"{path}: cannot be read ({exc})") from exc
    return parse_config(obj)


class CaseStudyCase(_Value):
    """One tradeoff case: a design problem built from the design rates and
    the evaluation scenario built from the reported incidence rates."""

    beta: float
    problem: DesignProblem
    truth: TruthScenario
    power: PowerSpec

    def __init__(self, beta, problem, truth, power) -> None:
        self.__dict__.update(beta=beta, problem=problem, truth=truth, power=power)


def build_case_study(config: ScenarioConfig) -> tuple[CaseStudyCase, ...]:
    """Assemble one problem/truth pair per tradeoff weight in the config.

    The design problem uses the fixed budget and the composite variances at
    the design rates; the truth scenario uses the reported rates.  Each case
    also carries a PowerSpec over its own design variances so sample sizes
    under both quantile conventions can be reported.  What ``DesignProblem``
    refuses in the config is raised as a ConfigError with its message.
    """
    if not isinstance(config, ScenarioConfig):
        raise ConfigError(f"config must be a ScenarioConfig, got {config!r}")
    cc, ar = config.design_covid_control, config.design_ar_treated
    cases = []
    for beta in config.beta_cases:
        # The paper's conservative noise: control's COVID and treated's reaction rate on both arms.
        design = composite_moments(IncidenceSpec(cc, cc, ar, ar, beta))
        groups = map(GroupSpec, config.labels, config.weights, design.var_control, design.var_treated)
        try:
            problem = DesignProblem(budget=config.budget, groups=tuple(groups))
        except ValidationError as exc:  # weights off the simplex, a zero variance, budget > 2**53
            raise ConfigError(str(exc)) from None
        truth = composite_moments(IncidenceSpec(**config.reported, beta=beta))
        power = PowerSpec(
            detectable_effect=config.detectable_effect,
            power_quantile=config.power_quantile,
            size_quantile=config.size_quantile,
            var_control=design.var_control,
            var_treated=design.var_treated,
        )
        cases.append(CaseStudyCase(beta=beta, problem=problem, truth=truth, power=power))
    return tuple(cases)


_BUNDLED_CONFIG = os.path.join(os.path.dirname(__file__), "covid_trial.json")


def default_config() -> ScenarioConfig:
    """The bundled two-group COVID-19 vaccine scenario: ``covid_trial.json``
    in this package's directory, read by ``load_config``."""
    return load_config(_BUNDLED_CONFIG)
