"""Composite outcomes, conservative noise, power-based sizing, config parsing."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from regretalloc import casestudy
from regretalloc.allocate import egalitarian_allocation, minimax_allocation
from regretalloc.casestudy import (
    ConfigError,
    IncidenceSpec,
    PowerSpec,
    build_case_study,
    composite_moments,
    conservative_noise,
    default_config,
    load_config,
    parse_config,
    required_sample_size,
)
from regretalloc.model import ValidationError
from reference_values import (
    BUNDLED_CONFIG_PATH,
    ORACLE_DESIGN_NOISE,
    ORACLE_REQUIRED_N,
    ORACLE_TRUTH_NOISE,
    ORACLE_TRUTH_TAU,
    REF_DESIGN_NOISE_PCT,
    REF_TRUTH_NOISE_PCT,
    REF_TRUTH_TAU_PCT,
    bundled_config_document,
)

REPORTED = {
    "covid_treated": (0.0, 0.0),
    "covid_control": (0.0019, 0.0028),
    "ar_treated": (0.1455, 0.0950),
    "ar_control": (0.0253, 0.0248),
}


def reported_spec(beta):
    return IncidenceSpec(beta=beta, **REPORTED)


class TestCompositeMoments:
    @pytest.mark.parametrize("beta", [0.005, 0.025])
    def test_matches_reference_within_print_precision(self, beta):
        truth = composite_moments(reported_spec(beta))
        for g in range(2):
            ref_tau = float(REF_TRUTH_TAU_PCT[beta][g]) / 100.0
            ref_noise = float(REF_TRUTH_NOISE_PCT[beta][g]) / 100.0
            assert abs(truth.tau[g] - ref_tau) <= 0.01e-2
            assert abs(math.sqrt(truth.var_sums[g]) - ref_noise) <= 0.02e-2

    @pytest.mark.parametrize("beta", [0.005, 0.025])
    def test_matches_oracle_tightly(self, beta):
        truth = composite_moments(reported_spec(beta))
        assert truth.tau == pytest.approx(ORACLE_TRUTH_TAU[beta], rel=1e-9)
        noise = tuple(math.sqrt(v) for v in truth.var_sums)
        assert noise == pytest.approx(ORACLE_TRUTH_NOISE[beta], rel=1e-7)

    def test_degenerate_zero_incidence(self):
        spec = IncidenceSpec(
            covid_treated=(0.0,), covid_control=(0.0,),
            ar_treated=(0.3,), ar_control=(0.1,),
            beta=0.0,
        )
        truth = composite_moments(spec)
        assert truth.tau == (0.0,)
        assert truth.var_sums == (0.0,)

    def test_baseline_is_arm_average(self):
        truth = composite_moments(reported_spec(0.005))
        mean_treated = 0.0 + 0.005 * 0.1455
        mean_control = 0.0019 + 0.005 * 0.0253
        assert truth.baseline[0] == pytest.approx((mean_treated + mean_control) / 2.0, rel=1e-12)

    def test_mean_linear_variance_quadratic_in_beta(self):
        betas = (0.01, 0.02, 0.03)
        truths = [composite_moments(reported_spec(b)) for b in betas]
        for g in range(2):
            taus = [t.tau[g] for t in truths]
            assert taus[0] + taus[2] - 2 * taus[1] == pytest.approx(0.0, abs=1e-15)
            variances = [t.var_treated[g] for t in truths]
            second_difference = variances[0] + variances[2] - 2 * variances[1]
            ar = REPORTED["ar_treated"][g]
            assert second_difference == pytest.approx(
                2 * 0.01**2 * ar * (1 - ar), rel=1e-9
            )

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigError, match="covid_treated"):
            IncidenceSpec(
                covid_treated=(1.5,), covid_control=(0.0,),
                ar_treated=(0.0,), ar_control=(0.0,), beta=0.1,
            )

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("covid_treated", ("0.5",), r"covid_treated\[0\]"),
            ("covid_control", (True,), r"covid_control\[0\]"),
            ("ar_treated", (None,), r"ar_treated\[0\]"),
            ("ar_control", (math.nan,), r"ar_control\[0\]"),
            ("ar_control", None, "ar_control"),
            ("beta", "x", "beta"),
            ("beta", True, "beta"),
            ("beta", -0.1, "beta"),
        ],
        ids=["string-rate", "bool-rate", "none-rate", "nan-rate", "none-list",
             "string-beta", "bool-beta", "negative-beta"],
    )
    def test_bad_input_is_a_config_error_naming_it(self, field, value, match):
        fields = dict(
            covid_treated=(0.0,), covid_control=(0.01,), ar_treated=(0.1,), ar_control=(0.02,),
            beta=0.1,
        )
        fields[field] = value
        with pytest.raises(ConfigError, match=match):
            IncidenceSpec(**fields)

    def test_numpy_scalars_accepted(self):
        spec = IncidenceSpec(
            covid_treated=np.array([0.0]), covid_control=(np.float64(0.01),),
            ar_treated=(np.float32(0.5),), ar_control=(0.02,), beta=np.float64(0.1),
        )
        assert spec == IncidenceSpec(
            covid_treated=(0.0,), covid_control=(0.01,), ar_treated=(0.5,), ar_control=(0.02,),
            beta=0.1,
        )

    def test_rejects_ragged_group_lists(self):
        with pytest.raises(ConfigError, match="per group"):
            IncidenceSpec(
                covid_treated=(0.0, 0.0), covid_control=(0.1,),
                ar_treated=(0.1, 0.1), ar_control=(0.1, 0.1), beta=0.1,
            )


class TestConservativeNoise:
    @pytest.mark.parametrize("beta", [0.005, 0.025])
    def test_matches_reference(self, beta):
        noise = conservative_noise((0.007, 0.025), 0.067, beta)
        for g in range(2):
            level = math.sqrt(noise[g][0] + noise[g][1])
            assert abs(level - float(REF_DESIGN_NOISE_PCT[beta][g]) / 100.0) <= 0.05e-2
            assert level == pytest.approx(ORACLE_DESIGN_NOISE[beta][g], rel=1e-7)

    def test_arms_are_symmetric_by_construction(self):
        noise = conservative_noise((0.007, 0.025), 0.067, 0.025)
        for s0, s1 in noise:
            assert s0 == s1

    def test_zero_rates_give_zero_variance(self):
        assert conservative_noise((0.0, 0.0), 0.0, 0.5) == ((0.0, 0.0), (0.0, 0.0))

    def test_per_group_reaction_rates_accepted(self):
        scalar = conservative_noise((0.01, 0.02), 0.05, 0.1)
        vector = conservative_noise((0.01, 0.02), (0.05, 0.05), 0.1)
        assert scalar == vector
        with pytest.raises(ConfigError, match="one entry per group"):
            conservative_noise((0.01, 0.02), (0.05,), 0.1)

    def test_numpy_scalars_and_arrays_accepted(self):
        assert conservative_noise((0.01, 0.02), np.float32(0.05), 0.1) == conservative_noise(
            (0.01, 0.02), float(np.float32(0.05)), 0.1
        )
        from_arrays = conservative_noise(
            np.array([0.01, 0.02]), np.array([0.05, 0.05]), np.float64(0.1)
        )
        assert from_arrays == conservative_noise((0.01, 0.02), 0.05, 0.1)
        assert all(type(v) is float for pair in from_arrays for v in pair)

    @pytest.mark.parametrize(
        "covid_control, ar_treated, beta, field",
        [
            (("x", 0.02), 0.05, 0.1, r"covid_control\[0\]"),
            ((0.01, None), 0.05, 0.1, r"covid_control\[1\]"),
            ((0.01, True), 0.05, 0.1, r"covid_control\[1\]"),
            (None, 0.05, 0.1, "covid_control"),
            ((0.01, 0.02), True, 0.1, "ar_treated"),
            ((0.01, 0.02), 1.5, 0.1, "ar_treated"),
            ((0.01, 0.02), (0.05, "0.05"), 0.1, r"ar_treated\[1\]"),
            ((0.01, 0.02), 0.05, "x", "beta"),
            ((0.01, 0.02), 0.05, -0.1, "beta"),
            ((0.01, 0.02), 0.05, math.nan, "beta"),
        ],
        ids=["string-rate", "none-rate", "bool-rate", "none-list", "bool-scalar",
             "scalar-above-one", "string-in-list", "string-beta", "negative-beta", "nan-beta"],
    )
    def test_bad_input_is_a_config_error_naming_it(self, covid_control, ar_treated, beta, field):
        with pytest.raises(ConfigError, match=field):
            conservative_noise(covid_control, ar_treated, beta)


class TestRequiredSampleSize:
    def make_spec(self, beta, power_quantile):
        noise = conservative_noise((0.007, 0.025), 0.067, beta)
        return PowerSpec(
            detectable_effect=-0.006,
            power_quantile=power_quantile,
            size_quantile=0.05,
            var_control=tuple(v[0] for v in noise),
            var_treated=tuple(v[1] for v in noise),
        )

    @pytest.mark.parametrize("beta", [0.005, 0.025])
    @pytest.mark.parametrize("power_quantile", [0.90, 0.80])
    def test_case_study_values(self, beta, power_quantile):
        spec = self.make_spec(beta, power_quantile)
        assert required_sample_size(spec, (0.83, 0.17)) == ORACLE_REQUIRED_N[beta][power_quantile]

    def test_result_is_even(self):
        spec = self.make_spec(0.005, 0.9)
        assert required_sample_size(spec, (0.83, 0.17)) % 2 == 0

    def test_doubling_variances_doubles_n(self):
        spec = self.make_spec(0.005, 0.9)
        doubled = PowerSpec(
            detectable_effect=spec.detectable_effect,
            power_quantile=spec.power_quantile,
            size_quantile=spec.size_quantile,
            var_control=tuple(2 * v for v in spec.var_control),
            var_treated=tuple(2 * v for v in spec.var_treated),
        )
        n = required_sample_size(spec, (0.83, 0.17))
        assert abs(required_sample_size(doubled, (0.83, 0.17)) - 2 * n) <= 2

    def test_halving_effect_quadruples_n(self):
        spec = self.make_spec(0.005, 0.9)
        halved = dataclasses.replace(spec, detectable_effect=spec.detectable_effect / 2.0)
        n = required_sample_size(spec, (0.83, 0.17))
        assert abs(required_sample_size(halved, (0.83, 0.17)) - 4 * n) <= 6

    def test_monotone_in_power_and_variance(self):
        previous = 0
        for power_quantile in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
            n = required_sample_size(self.make_spec(0.005, power_quantile), (0.83, 0.17))
            assert n >= previous
            previous = n
        base = self.make_spec(0.005, 0.9)
        previous = 0
        for scale in (1.0, 1.5, 2.0, 4.0):
            scaled = dataclasses.replace(
                base,
                var_control=tuple(scale * v for v in base.var_control),
                var_treated=tuple(scale * v for v in base.var_treated),
            )
            n = required_sample_size(scaled, (0.83, 0.17))
            assert n >= previous
            previous = n

    def test_zero_effect_rejected(self):
        with pytest.raises(ConfigError, match="nonzero"):
            PowerSpec(
                detectable_effect=0.0, power_quantile=0.9, size_quantile=0.05,
                var_control=(1.0,), var_treated=(1.0,),
            )

    def test_weight_length_mismatch(self):
        with pytest.raises(ConfigError, match="length"):
            required_sample_size(self.make_spec(0.005, 0.9), (1.0,))

    def test_negative_variance_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"var_control\[0\]"):
            required_sample_size(PowerSpec(-0.006, 0.9, 0.05, (-1.0,), (0.1,)), (1.0,))

    @pytest.mark.parametrize("field", ["var_control", "var_treated"])
    @pytest.mark.parametrize(
        "value", [-1.0, -1e-300, math.nan, math.inf, -math.inf, "0.1", None, True],
        ids=["negative", "tiny-negative", "nan", "inf", "-inf", "string", "none", "bool"],
    )
    def test_bad_variance_is_a_config_error_naming_it(self, field, value):
        variances = {"var_control": (0.1, 0.1), "var_treated": (0.1, 0.1), field: (0.1, value)}
        with pytest.raises(ConfigError, match=rf"{field}\[1\]"):
            PowerSpec(-0.006, 0.9, 0.05, **variances)

    @pytest.mark.parametrize(
        "weights", [(math.nan,), (-1.0,), ("x",), (None,)], ids=["nan", "negative", "string", "none"]
    )
    def test_bad_weight_is_a_config_error_naming_it(self, weights):
        with pytest.raises(ConfigError, match=r"weights\[0\]"):
            required_sample_size(PowerSpec(-0.006, 0.9, 0.05, (0.1,), (0.1,)), weights)

    @pytest.mark.parametrize(
        "var_control, var_treated, weights",
        [((1e308,), (1e308,), (1.0,)), ((1e308, 1e308), (0.0, 0.0), (0.5, 0.5)), ((1e308,), (0.0,), (1.0,))],
        ids=["arms-overflow", "groups-overflow", "doubling-overflows"],
    )
    def test_variances_beyond_float_range_are_named(self, var_control, var_treated, weights):
        spec = PowerSpec(-0.006, 0.9, 0.05, var_control, var_treated)
        with pytest.raises(ConfigError, match="variances var_control .* beyond float range"):
            required_sample_size(spec, weights)

    def test_zero_variances_are_legal(self):
        assert required_sample_size(PowerSpec(-0.006, 0.9, 0.05, (0.0,), (0.0,)), (1.0,)) == 0

    @pytest.mark.parametrize(
        "args, match",
        [
            (("x", 0.9, 0.05, (0.1,), (0.1,)), "detectable effect"),
            ((-0.006, "x", 0.05, (0.1,), (0.1,)), "power_quantile"),
            ((-0.006, 0.9, 1.0, (0.1,), (0.1,)), "size_quantile"),
            ((-0.006, 0.9, 0.05, None, (0.1,)), "var_control"),
            ((-0.006, 0.9, 0.05, (0.1, 0.1), (0.1,)), "length"),
        ],
        ids=["string-effect", "string-quantile", "quantile-one", "none-list", "ragged"],
    )
    def test_bad_fields_are_config_errors(self, args, match):
        with pytest.raises(ConfigError, match=match):
            PowerSpec(*args)

    def test_numpy_scalars_accepted(self):
        spec = PowerSpec(
            np.float64(-0.006), np.float64(0.9), np.float64(0.05),
            np.array([0.1, 0.2]), (np.float64(0.1), 0.2),
        )
        assert spec == PowerSpec(-0.006, 0.9, 0.05, (0.1, 0.2), (0.1, 0.2))
        assert required_sample_size(spec, (0.5, 0.5)) == required_sample_size(
            PowerSpec(-0.006, 0.9, 0.05, (0.1, 0.2), (0.1, 0.2)), (0.5, 0.5)
        )


class TestConfigParsing:
    def test_default_config_parses(self):
        config = default_config()
        assert config.weights == (0.83, 0.17)
        assert config.budget == 9320
        assert config.beta_cases == (0.005, 0.025)

    def test_unknown_key_rejected_with_path(self):
        broken = bundled_config_document()
        broken["groups"][0]["design"]["bonus"] = 1
        with pytest.raises(ConfigError, match=r"groups\[0\].design"):
            parse_config(broken)

    def test_unknown_top_level_key_rejected(self):
        broken = bundled_config_document()
        broken["extra"] = True
        with pytest.raises(ConfigError, match="extra"):
            parse_config(broken)

    def test_missing_key_reported(self):
        broken = bundled_config_document()
        del broken["groups"][1]["reported"]["ar_control"]
        with pytest.raises(ConfigError, match=r"groups\[1\].reported"):
            parse_config(broken)

    def test_probability_out_of_range_reported_with_path(self):
        broken = bundled_config_document()
        broken["groups"][0]["reported"]["ar_treated"] = 1.7
        with pytest.raises(ConfigError, match=r"groups\[0\].reported.ar_treated"):
            parse_config(broken)

    def test_group_weight_count_mismatch(self):
        broken = bundled_config_document()
        broken["weights"] = [1.0]
        with pytest.raises(ConfigError, match="groups"):
            parse_config(broken)

    @pytest.mark.parametrize(
        "weights, index",
        [(["a", 0.5], 0), ([0.5, None], 1), ([True, 0.0], 0), ([0.5, 1.5], 1), ([0.5, -0.5], 1)],
        ids=["string", "null", "bool", "above-one", "negative"],
    )
    def test_bad_weight_reported_with_index(self, weights, index):
        broken = bundled_config_document()
        broken["weights"] = weights
        with pytest.raises(ConfigError, match=rf"weights\[{index}\]"):
            parse_config(broken)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, -(10**400)], ids=["nan", "inf", "-inf", "huge-int"]
    )
    def test_non_finite_detectable_effect_rejected(self, value):
        broken = bundled_config_document()
        broken["power"]["detectable_effect"] = value
        with pytest.raises(ConfigError, match="power.detectable_effect"):
            parse_config(broken)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge-int"])
    def test_non_finite_beta_case_rejected_with_index(self, value):
        broken = bundled_config_document()
        broken["beta_cases"] = [0.005, value]
        with pytest.raises(ConfigError, match=r"beta_cases\[1\]"):
            parse_config(broken)

    def test_non_finite_library_inputs_rejected(self):
        config = default_config()
        spec = build_case_study(config)[0].power
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="detectable effect"):
                dataclasses.replace(spec, detectable_effect=value)
        rates = dict(
            covid_treated=(0.0,), covid_control=(0.01,), ar_treated=(0.1,), ar_control=(0.02,)
        )
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="beta"):
                IncidenceSpec(**rates, beta=value)

    def test_nan_literal_in_config_file_is_a_config_error(self, tmp_path):
        text = json.dumps(bundled_config_document()).replace("-0.006", "NaN")
        path = tmp_path / "nan.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="power.detectable_effect"):
            load_config(str(path))

    def test_budget_type_checked(self):
        broken = bundled_config_document()
        broken["budget"] = "many"
        with pytest.raises(ConfigError, match="budget"):
            parse_config(broken)

    def test_load_config_round_trips(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(bundled_config_document()))
        assert load_config(str(path)) == default_config()

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "content", [b'{"weights": "\xff\xfe"}', b"[" * 100_000], ids=["not-utf8", "too-deep"]
    )
    def test_load_config_unreadable_text(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    @pytest.mark.parametrize("beta", [1e154, 1e308], ids=["square-finite", "square-overflows"])
    def test_huge_beta_is_a_validation_error(self, beta):
        # Variances past float range: the square overflows (1e308), or the
        # egalitarian shares do (1e154).
        broken = bundled_config_document()
        broken["beta_cases"] = [beta]
        with pytest.raises(ValidationError):
            for case in build_case_study(parse_config(broken)):
                egalitarian_allocation(case.problem)

    @pytest.mark.parametrize("effect", [1e-300, 1e-160, 1e308, -1e308])
    def test_sample_size_out_of_float_range_is_a_config_error(self, effect):
        broken = bundled_config_document()
        broken["power"]["detectable_effect"] = effect
        config = parse_config(broken)
        case = build_case_study(config)[0]
        with pytest.raises(ConfigError, match="no finite sample size"):
            required_sample_size(case.power, config.weights)

    def test_bundled_config_file_matches_default(self, monkeypatch):
        assert BUNDLED_CONFIG_PATH.is_file()
        paths = []

        def recording_load_config(path):
            paths.append(Path(path))
            return load_config(path)

        monkeypatch.setattr(casestudy, "load_config", recording_load_config)
        assert default_config() == load_config(str(BUNDLED_CONFIG_PATH))
        assert paths == [BUNDLED_CONFIG_PATH]

    @pytest.mark.parametrize("kind", ["missing", "directory", "below-a-file"])
    def test_unreadable_path_is_a_config_error_naming_it(self, tmp_path, kind):
        target = {
            "missing": tmp_path / "missing.json",
            "directory": tmp_path,
            "below-a-file": BUNDLED_CONFIG_PATH / "scenario.json",
        }[kind]
        with pytest.raises(ConfigError, match=re.escape(str(target))):
            load_config(str(target))


class TestBuildCaseStudy:
    def test_two_cases_with_design_noise(self, covid_cases):
        assert [case.beta for case in covid_cases] == [0.005, 0.025]
        for case, beta in zip(covid_cases, (0.005, 0.025)):
            assert case.problem.budget == 9320
            assert case.problem.weights == (0.83, 0.17)
            for g in range(2):
                assert math.sqrt(case.problem.var_sums[g]) == pytest.approx(
                    ORACLE_DESIGN_NOISE[beta][g], rel=1e-7
                )
            assert case.truth.tau == pytest.approx(ORACLE_TRUTH_TAU[beta], rel=1e-9)

    def test_power_spec_uses_case_variances(self, covid_cases):
        for case in covid_cases:
            assert case.power.var_control == tuple(g.var_control for g in case.problem.groups)
            assert case.power.power_quantile == 0.90
            assert case.power.size_quantile == 0.05

    def test_single_group_pipeline_degenerates(self):
        bundled = bundled_config_document()
        config = {
            "weights": [1.0],
            "budget": 100,
            "groups": [bundled["groups"][0]],
            "beta_cases": [0.005],
            "power": bundled["power"],
        }
        cases = build_case_study(parse_config(json.loads(json.dumps(config))))
        assert len(cases) == 1
        assert minimax_allocation(cases[0].problem).counts == (100,)
