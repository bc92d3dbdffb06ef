"""COVID-19 vaccine trial case study: composite efficacy/safety outcomes,
conservative design noise, power-based budget, and the scenario pipeline.

The bundled scenario studies a two-group stratified trial (adults under 65,
adults 65 and over) with a composite outcome

    y = severe_covid + beta * severe_adverse_reaction,

where ``beta`` trades efficacy against safety.  Group shares follow the US
population split (0.83 / 0.17).  Two betas are bundled: 0.005 (treatment
benefits both groups under the reported rates) and 0.025 (treatment only
benefits the older group).

Design-time noise is a conservative Bernoulli approximation: the treated
arm's severe-COVID incidence is assumed equal to the control arm's, and the
control arm's adverse-reaction incidence equal to the treated arm's, which
makes the two arms' composite variances identical.  Evaluation scenarios
instead use the trial's reported incidence rates, converted to Gaussian
moments under independence of the two components.

All rates are stored as fractions; percent formatting happens only at
presentation time.  The bundled scenario is the file ``covid_trial.json``
in this package's directory; ``default_config`` reads it with
``load_config``, the same path a user's scenario file takes.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Any, Sequence

from .model import DesignProblem, GroupSpec, TruthScenario, validate_problem
from .stats import normal_quantile


class ConfigError(ValueError):
    """A scenario configuration violates the documented schema."""


def _as_finite(
    value: Any, path: str, expected: str = "a finite number", accept=None
) -> float:
    """A real number (not a bool) as a finite float for which ``accept``, if
    given, holds; ConfigError naming ``path`` for anything else, including
    NaN, +-Infinity and integers beyond float range.  JSON numbers and
    Python or numpy scalars all pass through here."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:
            v = math.inf
        if math.isfinite(v) and (accept is None or accept(v)):
            return v
    raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def _as_probability(value: Any, path: str) -> float:
    v = _as_finite(value, path)
    if not 0.0 <= v <= 1.0:
        raise ConfigError(f"{path}: expected a probability in [0, 1], got {v}")
    return v


def _as_nonnegative(value: Any, path: str) -> float:
    return _as_finite(value, path, "a finite nonnegative number", lambda v: v >= 0)


def _as_nonzero(value: Any, path: str) -> float:
    return _as_finite(value, path, "a finite nonzero number", lambda v: v != 0)


def _as_tuple(values: Any, name: str, check) -> tuple[float, ...]:
    """``check(value, "name[g]")`` applied to each entry of ``values``."""
    try:
        items = tuple(values)
    except TypeError:
        raise ConfigError(f"{name}: expected a list of numbers, got {values!r}") from None
    return tuple(check(v, f"{name}[{g}]") for g, v in enumerate(items))


_RATE_FIELDS = ("covid_treated", "covid_control", "ar_treated", "ar_control")


@dataclass(frozen=True)
class IncidenceSpec:
    """Per-group incidence probabilities for both outcome components, plus
    the efficacy/safety tradeoff weight."""

    covid_treated: tuple[float, ...]
    covid_control: tuple[float, ...]
    ar_treated: tuple[float, ...]
    ar_control: tuple[float, ...]
    beta: float

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            object.__setattr__(self, name, _as_tuple(getattr(self, name), name, _as_probability))
        if len({len(getattr(self, name)) for name in _RATE_FIELDS}) != 1:
            raise ConfigError("incidence lists must all have one entry per group")
        object.__setattr__(self, "beta", _as_nonnegative(self.beta, "beta"))


@dataclass(frozen=True)
class PowerSpec:
    """Inputs for the power-based total sample size: detectable effect,
    size/power quantile levels, and per-group per-arm variances to pool."""

    detectable_effect: float
    power_quantile: float
    size_quantile: float
    var_control: tuple[float, ...]
    var_treated: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "detectable_effect", _as_nonzero(self.detectable_effect, "detectable effect")
        )
        for name in ("power_quantile", "size_quantile"):
            p = _as_finite(getattr(self, name), name)
            if not 0.0 < p < 1.0:
                raise ConfigError(f"{name} must lie strictly in (0, 1), got {p}")
            object.__setattr__(self, name, p)
        for name in ("var_control", "var_treated"):
            object.__setattr__(self, name, _as_tuple(getattr(self, name), name, _as_nonnegative))
        if len(self.var_control) != len(self.var_treated):
            raise ConfigError("var_control and var_treated differ in length")


def _bernoulli_var(p: float) -> float:
    return p * (1.0 - p)


def _square(x: float) -> float:
    """``x**2``, or inf where that overflows; validation of the resulting
    variances then rejects it as a ValidationError."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def composite_moments(spec: IncidenceSpec) -> TruthScenario:
    """Gaussian moments of the composite outcome under independence.

    Per group and arm: mean = p_covid + beta*p_ar and
    variance = p_covid*(1-p_covid) + beta^2 * p_ar*(1-p_ar); the treatment
    effect is the treated-minus-control mean and the baseline their average.
    """
    beta = spec.beta
    beta_sq = _square(beta)
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


def conservative_noise(
    covid_control: Sequence[float],
    ar_treated: float | Sequence[float],
    beta: float,
) -> tuple[tuple[float, float], ...]:
    """Conservative per-group (s0^2, s1^2) from baseline severe-COVID rates
    and the treated-arm adverse-reaction rate.

    Each arm is assigned the worse observed component rate (control's COVID
    incidence, treated's reaction incidence), so the two arms' composite
    variances come out identical by construction.
    """
    covid_control = _as_tuple(covid_control, "covid_control", _as_probability)
    if isinstance(ar_treated, numbers.Real):
        ar = (_as_probability(ar_treated, "ar_treated"),) * len(covid_control)
    else:
        ar = _as_tuple(ar_treated, "ar_treated", _as_probability)
        if len(ar) != len(covid_control):
            raise ConfigError("ar_treated must be scalar or one entry per group")
    beta_sq = _square(_as_nonnegative(beta, "beta"))
    out = []
    for cc, a in zip(covid_control, ar):
        var = _bernoulli_var(cc) + beta_sq * _bernoulli_var(a)
        out.append((var, var))
    return tuple(out)


def required_sample_size(spec: PowerSpec, weights: Sequence[float]) -> int:
    """Total sample size for the two-sided-free one-sided test
    N = 2*(s0^2+s1^2) * (z_power - z_size)^2 / effect^2, with per-arm
    variances pooled by the population weights, rounded up to an even total.

    The quantile levels are caller-configurable because the two documented
    conventions (80% vs 90% power quantile) give materially different sizes;
    both are reported by the CLI rather than silently chosen.
    """
    weights = _as_tuple(weights, "weights", _as_probability)
    if len(weights) != len(spec.var_control):
        raise ConfigError("weights and variance lists differ in length")
    pooled_control = sum(w * v for w, v in zip(weights, spec.var_control))
    pooled_treated = sum(w * v for w, v in zip(weights, spec.var_treated))
    contrast_var = 2.0 * (pooled_control + pooled_treated)
    if not math.isfinite(contrast_var):
        raise ConfigError("variances var_control and var_treated pool beyond float range")
    z_power = normal_quantile(spec.power_quantile)
    z_size = normal_quantile(spec.size_quantile)
    try:
        raw = contrast_var * (z_power - z_size) ** 2 / spec.detectable_effect**2
        return 2 * math.ceil(raw / 2.0)
    except (OverflowError, ZeroDivisionError):  # effect**2 or the size out of float range
        raise ConfigError(
            f"detectable effect {spec.detectable_effect!r} gives no finite sample size"
        ) from None


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed and validated scenario configuration."""

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


def _require_keys(obj: Any, keys: set[str], path: str) -> None:
    """``obj`` must be an object with exactly ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - keys
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = keys - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing key(s) {sorted(missing)}")


def parse_config(obj: dict[str, Any]) -> ScenarioConfig:
    """Validate a JSON-compatible scenario document; unknown keys rejected,
    violations reported with their field path."""
    _require_keys(obj, {"weights", "budget", "groups", "beta_cases", "power"}, "config")
    weights = obj["weights"]
    if not isinstance(weights, list) or not weights:
        raise ConfigError("weights: expected a nonempty list")
    weights = tuple(_as_probability(w, f"weights[{i}]") for i, w in enumerate(weights))
    budget = obj["budget"]
    if not isinstance(budget, int) or isinstance(budget, bool) or budget <= 0:
        raise ConfigError(f"budget: expected a positive integer, got {budget!r}")
    groups = obj["groups"]
    if not isinstance(groups, list) or len(groups) != len(weights):
        raise ConfigError(
            f"groups: expected a list with one entry per weight ({len(weights)})"
        )
    labels, design_cc, design_ar = [], [], []
    reported: dict[str, list[float]] = {key: [] for key in _RATE_FIELDS}
    for g, entry in enumerate(groups):
        path = f"groups[{g}]"
        _require_keys(entry, {"label", "design", "reported"}, path)
        if not isinstance(entry["label"], str):
            raise ConfigError(f"{path}.label: expected a string")
        labels.append(entry["label"])
        design = entry["design"]
        _require_keys(design, {"covid_control", "ar_treated"}, f"{path}.design")
        design_cc.append(_as_probability(design["covid_control"], f"{path}.design.covid_control"))
        design_ar.append(_as_probability(design["ar_treated"], f"{path}.design.ar_treated"))
        rep = entry["reported"]
        _require_keys(rep, set(reported), f"{path}.reported")
        for key in reported:
            reported[key].append(_as_probability(rep[key], f"{path}.reported.{key}"))
    beta_cases = obj["beta_cases"]
    if not isinstance(beta_cases, list) or not beta_cases:
        raise ConfigError("beta_cases: expected a nonempty list")
    beta_cases = tuple(_as_nonnegative(b, f"beta_cases[{i}]") for i, b in enumerate(beta_cases))
    power = obj["power"]
    _require_keys(power, {"detectable_effect", "power_quantile", "size_quantile"}, "power")
    return ScenarioConfig(
        weights=weights,
        budget=budget,
        labels=tuple(labels),
        design_covid_control=tuple(design_cc),
        design_ar_treated=tuple(design_ar),
        reported={k: tuple(v) for k, v in reported.items()},
        beta_cases=beta_cases,
        detectable_effect=_as_nonzero(power["detectable_effect"], "power.detectable_effect"),
        power_quantile=_as_probability(power["power_quantile"], "power.power_quantile"),
        size_quantile=_as_probability(power["size_quantile"], "power.size_quantile"),
    )


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file.  A path that is missing or names a
    directory, and text that is not UTF-8 JSON or nests too deeply to parse,
    become ConfigError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(obj)


@dataclass(frozen=True)
class CaseStudyCase:
    """One tradeoff case: a design problem built from conservative noise and
    the evaluation scenario built from the reported incidence rates."""

    beta: float
    problem: DesignProblem
    truth: TruthScenario
    power: PowerSpec


def build_case_study(config: ScenarioConfig) -> tuple[CaseStudyCase, ...]:
    """Assemble one problem/truth pair per tradeoff weight in the config.

    The design problem uses the fixed budget and the conservative variance
    approximation; the truth scenario uses the reported rates.  Each case
    also carries a PowerSpec over its own conservative variances so sample
    sizes under both quantile conventions can be reported.
    """
    cases = []
    for beta in config.beta_cases:
        noise = conservative_noise(config.design_covid_control, config.design_ar_treated, beta)
        groups = tuple(
            GroupSpec(
                label=config.labels[g],
                weight=config.weights[g],
                var_control=noise[g][0],
                var_treated=noise[g][1],
            )
            for g in range(len(config.weights))
        )
        problem = validate_problem(DesignProblem(budget=config.budget, groups=groups))
        truth = composite_moments(IncidenceSpec(**config.reported, beta=beta))
        power = PowerSpec(
            detectable_effect=config.detectable_effect,
            power_quantile=config.power_quantile,
            size_quantile=config.size_quantile,
            var_control=tuple(v[0] for v in noise),
            var_treated=tuple(v[1] for v in noise),
        )
        cases.append(CaseStudyCase(beta=beta, problem=problem, truth=truth, power=power))
    return tuple(cases)


_BUNDLED_CONFIG = os.path.join(os.path.dirname(__file__), "covid_trial.json")


def default_config() -> ScenarioConfig:
    """The bundled two-group COVID-19 vaccine scenario: ``covid_trial.json``
    in this package's directory, read by ``load_config``."""
    return load_config(_BUNDLED_CONFIG)
