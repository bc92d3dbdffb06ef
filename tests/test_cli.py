"""Command-line interface: subcommands, exit codes, file outputs."""

import csv
import io
import json
import math

import pytest

from regretalloc import cli
from regretalloc.cli import ReportTable, main
from regretalloc.model import Paradigm
from reference_values import (
    ORACLE_C0,
    REF_ALLOCATIONS,
    REF_EXPECTED,
    REF_WORST_CASE,
    agrees_with_printed,
    bundled_config_document,
)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestReportTable:
    def test_rejects_ragged_rows(self):
        table = ReportTable("t", ["a", "b"])
        with pytest.raises(ValueError, match="arity"):
            table.add_row(["only one"])

    def test_render_aligns_columns(self):
        table = ReportTable("title", ["col", "x"], note="scaled")
        table.add_row(["value", "1"])
        text = table.render()
        assert text.splitlines()[0] == "title"
        assert "col" in text and "value" in text


class TestAllocateCommand:
    def test_minimax_matches_reference(self):
        code, text = run_cli(["allocate", "--scheme", "minimax"])
        assert code == 0
        assert "6100 3218" in text
        assert "6102 3216" in text
        assert "inf" in text  # pooled-decision column of a non-proportional row

    def test_proportional_symmetric_config(self, tmp_path):
        config = {
            "weights": [0.5, 0.5],
            "budget": 100,
            "groups": [
                {
                    "label": f"g{i}",
                    "design": {"covid_control": 0.01, "ar_treated": 0.05},
                    "reported": {
                        "covid_treated": 0.0,
                        "covid_control": 0.002,
                        "ar_treated": 0.1,
                        "ar_control": 0.02,
                    },
                }
                for i in range(2)
            ],
            "beta_cases": [0.01],
            "power": {"detectable_effect": -0.006, "power_quantile": 0.9, "size_quantile": 0.05},
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(config))
        code, text = run_cli(["allocate", "--config", str(path), "--scheme", "proportional"])
        assert code == 0
        assert "50 50" in text

    def test_missing_config_exits_2_naming_path(self, capsys):
        code, _ = run_cli(["allocate", "--config", "/nowhere/missing.json", "--scheme", "minimax"])
        assert code == 2
        assert "/nowhere/missing.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["allocate", "evaluate", "reproduce", "power"])
    def test_directory_config_exits_2_naming_path(self, tmp_path, capsys, command):
        argv = [command, "--config", str(tmp_path)]
        argv += {"allocate": ["--scheme", "minimax"], "evaluate": ["--scheme", "minimax"],
                 "reproduce": ["--out", str(tmp_path / "out")]}.get(command, [])
        code, _ = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{tmp_path}: Is a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["allocate", "power"])
    def test_integer_past_the_digit_limit_exits_2_naming_path(self, tmp_path, capsys, command):
        config = bundled_config_document()
        path = tmp_path / "big.json"
        path.write_text(json.dumps(config).replace('"budget": 9320', '"budget": ' + "9" * 5000))
        argv = [command, "--config", str(path)] + ["--scheme", "minimax"] * (command == "allocate")
        code, _ = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: cannot be read" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value", [("power_quantile", 1.0), ("size_quantile", 0)], ids=["one", "zero"]
    )
    def test_boundary_quantile_in_config_exits_2(self, tmp_path, capsys, field, value):
        config = bundled_config_document()
        config["power"][field] = value
        path = tmp_path / "quantile.json"
        path.write_text(json.dumps(config))
        code, _ = run_cli(["power", "--config", str(path)])
        assert code == 2
        assert f"error: power.{field} must lie strictly in (0, 1), got {float(value)}\n" == (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("weights", [["a", 0.5], [0.5, None]], ids=["string", "null"])
    def test_bad_config_weight_exits_2_without_traceback(self, tmp_path, capsys, weights):
        config = bundled_config_document()
        config["weights"] = weights
        path = tmp_path / "bad_weights.json"
        path.write_text(json.dumps(config))
        code, _ = run_cli(["evaluate", "--config", str(path), "--scheme", "minimax"])
        err = capsys.readouterr().err
        assert code == 2
        assert "weights[" in err
        assert "Traceback" not in err

    def test_unknown_scheme_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["allocate", "--scheme", "bogus"])
        assert excinfo.value.code == 2


class TestEvaluateCommand:
    def test_explicit_allocation_reproduces_reference(self):
        code, text = run_cli(
            ["evaluate", "--allocation", "7734,1584", "--paradigm", "joint"]
        )
        assert code == 0
        assert "3.507" in text  # worst case, 1e-4 scale

    def test_rejects_malformed_allocation(self, capsys):
        code, _ = run_cli(["evaluate", "--allocation", "10,x"])
        assert code == 2
        assert "allocation" in capsys.readouterr().err

    def test_malformed_allocation_is_reported_before_the_config_is_read(self, capsys):
        argv = ["evaluate", "--allocation", "6100,x", "--config", "/nowhere/missing.json"]
        code, text = run_cli(argv)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: --allocation expects comma-separated integers, got '6100,x'\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "--allocation expects comma-separated integers, got ''"),
            ("6100.0,3300", "--allocation expects comma-separated integers, got '6100.0,3300'"),
            ("6100;3300", "--allocation expects comma-separated integers, got '6100;3300'"),
            ("6100,,3300", "--allocation expects comma-separated integers, got '6100,,3300'"),
            ("6101,3300", "group 0: count 6101 is odd; strata must balance 1:1"),
        ],
        ids=["empty", "float", "semicolon", "empty-field", "odd-count"],
    )
    def test_every_malformed_allocation_is_reported_before_the_config_is_read(
        self, capsys, text, message
    ):
        argv = ["evaluate", "--allocation", text, "--config", "/nowhere/missing.json"]
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_rejects_wrong_length_allocation(self, capsys):
        code, _ = run_cli(["evaluate", "--allocation", "9320"])
        assert code == 2
        assert "1 entries for 2 groups" in capsys.readouterr().err

    @pytest.mark.parametrize("paradigm", ["joint", "all"])
    def test_all_zero_allocation_is_infinite_worst_case(self, paradigm):
        code, text = run_cli(["evaluate", "--allocation", "0,0", "--paradigm", paradigm])
        assert code == 0
        rows = [line.split() for line in text.splitlines() if line.startswith("0.0")]
        assert rows and all(row[4] == "inf" for row in rows)

    def test_redistribute_with_explicit_allocation_exits_2(self, capsys):
        code, text = run_cli(["evaluate", "--allocation", "6100,3218", "--redistribute"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: --redistribute applies to --scheme, not to an explicit --allocation\n"
        )

    def test_rejects_odd_allocation(self, capsys):
        code, _ = run_cli(["evaluate", "--allocation", "9319,1"])
        assert code == 2

    @pytest.mark.parametrize(
        "reps", [[], ["--reps", "2000", "--seed", "1"]], ids=["closed-form", "monte-carlo"]
    )
    def test_one_paradigm_prints_its_rows_of_all(self, reps):
        def rows(paradigm):
            code, text = run_cli(["evaluate", "--scheme", "minimax", "--paradigm", paradigm, *reps])
            assert code == 0
            return [line.split() for line in text.splitlines()[4:]]

        every = rows("all")
        assert len(every) == 6
        for paradigm in Paradigm:
            assert rows(paradigm.flag) == [row for row in every if paradigm.flag in row]

    def test_monte_carlo_runs_are_byte_identical(self):
        argv = [
            "evaluate", "--scheme", "minimax", "--paradigm", "separate",
            "--reps", "20000", "--seed", "42",
        ]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert "mc mean" in first[1]


class TestMonteCarloHook:
    """Every ``--reps`` cell goes through ``cli.monte_carlo_regret``, looked
    up by its module-global name, so that wrapping the name sees them all."""

    @pytest.mark.parametrize(
        "argv, calls",
        [
            # 2 cases x 6 table5 rows x 3 paradigms.
            (["reproduce", "--reps", "1000", "--seed", "0"], 36),
            (["reproduce"], 0),
            (["evaluate", "--scheme", "minimax", "--reps", "1000"], 6),
            (["evaluate", "--scheme", "minimax", "--paradigm", "joint", "--reps", "1000"], 2),
        ],
        ids=["reproduce-reps", "reproduce-plain", "evaluate-all", "evaluate-joint"],
    )
    def test_every_cell_calls_the_module_global(self, monkeypatch, tmp_path, argv, calls):
        seen = []
        original = cli.monte_carlo_regret

        def counting(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "monte_carlo_regret", counting)
        if argv[0] == "reproduce":
            argv = [*argv, "--out", str(tmp_path)]
        code, _ = run_cli(argv)
        assert code == 0
        assert len(seen) == calls


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tables")
    code, _ = run_cli(["reproduce", "--out", str(out_dir)])
    assert code == 0
    return out_dir


class TestReproduceCommand:
    def test_all_files_written(self, outputs):
        for name in (
            "table1.csv", "table2.csv", "table4.csv", "table5.csv",
            "constants.csv", "power_conventions.csv", "discrepancies.txt",
        ):
            assert (outputs / name).exists(), name

    def test_constants_file(self, outputs):
        rows = {row["name"]: float(row["value"]) for row in read_csv(outputs / "constants.csv")}
        assert abs(rows["c0"] - 0.17) <= 5e-4
        assert rows["c0"] == pytest.approx(ORACLE_C0, abs=1e-9)
        assert rows["t_star"] == pytest.approx(0.7518, abs=1e-3)

    def test_table2_matches_reference_values(self, outputs):
        rows = read_csv(outputs / "table2.csv")
        by_key = {(float(r["beta"]), r["scheme"]): r for r in rows}
        for beta, schemes in REF_WORST_CASE.items():
            for scheme, refs in schemes.items():
                if scheme.startswith("only"):
                    continue
                row = by_key[(beta, scheme)]
                for column, ref in zip(
                    ("worst_separate", "worst_joint", "worst_egalitarian"), refs
                ):
                    if ref is None:
                        assert row[column] == "inf"
                    else:
                        assert agrees_with_printed(float(row[column]) * 1e4, ref, rel=0.01)

    def test_table2_extreme_rows_all_infinite(self, outputs):
        rows = read_csv(outputs / "table2.csv")
        only_rows = [r for r in rows if r["scheme"].startswith("only ")]
        assert len(only_rows) == 4
        for row in only_rows:
            assert row["worst_separate"] == row["worst_joint"] == row["worst_egalitarian"] == "inf"

    def test_table2_allocations_within_tolerance(self, outputs):
        rows = read_csv(outputs / "table2.csv")
        by_key = {(float(r["beta"]), r["scheme"]): r for r in rows}
        for beta, schemes in REF_ALLOCATIONS.items():
            for scheme, expected in schemes.items():
                counts = tuple(int(c) for c in by_key[(beta, scheme)]["counts"].split())
                assert all(abs(c - e) <= 4 for c, e in zip(counts, expected))

    def test_table5_separate_columns_match_reference(self, outputs):
        rows = read_csv(outputs / "table5.csv")
        by_key = {(float(r["beta"]), r["scheme"]): r for r in rows}
        for beta, schemes in REF_EXPECTED.items():
            for scheme, refs in schemes.items():
                if scheme.startswith("only"):
                    continue  # extreme rows carry generated labels, checked below
                row = by_key[(beta, scheme)]
                value = float(row["expected_separate"]) * 1e4
                assert agrees_with_printed(value, refs[0], rel=0.02, abs_floor=0.02)
                egal = float(row["expected_egalitarian"]) * 1e4
                assert agrees_with_printed(egal, refs[2], rel=0.02, abs_floor=0.02)
        only_rows = sorted(
            (r for r in rows if r["scheme"].startswith("only ")),
            key=lambda r: (float(r["beta"]), -int(r["counts"].split()[0])),
        )
        for row, (beta, scheme) in zip(
            only_rows,
            [(0.005, "only_1"), (0.005, "only_2"), (0.025, "only_1"), (0.025, "only_2")],
        ):
            value = float(row["expected_separate"]) * 1e4
            assert agrees_with_printed(value, REF_EXPECTED[beta][scheme][0], rel=0.02, abs_floor=0.02)

    def test_csv_cells_are_locale_independent(self, outputs):
        for row in read_csv(outputs / "table5.csv"):
            for column in ("expected_separate", "expected_joint", "expected_egalitarian"):
                value = row[column]
                assert "," not in value
                parsed = float(value)  # raises if not plain decimal notation
                assert math.isfinite(parsed)

    def test_rerun_is_byte_identical(self, outputs, tmp_path):
        rerun_dir = tmp_path / "again"
        code, _ = run_cli(["reproduce", "--out", str(rerun_dir)])
        assert code == 0
        for name in ("table1.csv", "table2.csv", "table4.csv", "table5.csv", "constants.csv"):
            assert (rerun_dir / name).read_bytes() == (outputs / name).read_bytes()

    def test_discrepancies_mention_known_deviations(self, outputs):
        text = (outputs / "discrepancies.txt").read_text()
        assert "+/-2" in text
        assert "9320" in text
        assert "joint" in text

    def test_unwritable_output_path_fails_nonzero(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code, _ = run_cli(["reproduce", "--out", str(blocker / "sub")])
        assert code == 1
        assert "not writable" in capsys.readouterr().err

    def test_write_error_after_the_probe_exits_1_without_traceback(self, tmp_path, capsys):
        # The directory passes the write probe; the first CSV path is a directory.
        (tmp_path / "table1.csv").mkdir()
        code, _ = run_cli(["reproduce", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "table1.csv" in err
        assert "Traceback" not in err


class TestPowerCommand:
    def test_reports_both_conventions(self):
        code, text = run_cli(["power"])
        assert code == 0
        assert "0.9" in text and "0.8" in text
        assert "9470" in text  # beta=0.025 case under the 90%/5% convention
        assert "6838" in text

    def test_relative_gap_to_budget_is_shown(self):
        _, text = run_cli(["power"])
        assert "%" in text


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "field, value, command",
        [
            ("detectable_effect", math.nan, "power"),
            ("detectable_effect", math.inf, "power"),
            ("detectable_effect", math.nan, "reproduce"),
            ("detectable_effect", -math.inf, "reproduce"),
            ("beta", math.nan, "power"),
            ("beta", math.inf, "reproduce"),
        ],
        ids=["nan-power", "inf-power", "nan-reproduce", "-inf-reproduce",
             "nan-beta-power", "inf-beta-reproduce"],
    )
    def test_non_finite_config_exits_2_without_traceback(
        self, tmp_path, capsys, field, value, command
    ):
        config = bundled_config_document()
        if field == "beta":
            config["beta_cases"] = [value]
            expected = "beta_cases[0]"
        else:
            config["power"][field] = value
            expected = f"power.{field}"
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(config))  # writes the NaN/Infinity literals
        argv = [command, "--config", str(path)]
        if command == "reproduce":
            argv += ["--out", str(tmp_path / "out")]
        code, _ = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert expected in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value, command, expected",
        [
            ("budget", 10**400, "allocate", "2**53"),
            ("beta_cases", [1e308], "allocate", "variance must be positive"),
            ("beta_cases", [1e154], "reproduce", "shares overflow"),
            ("power", {"detectable_effect": 1e-300, "power_quantile": 0.9, "size_quantile": 0.05},
             "power", "no finite sample size"),
        ],
        ids=["huge-budget", "huge-beta", "big-beta", "tiny-effect"],
    )
    def test_values_beyond_float_range_exit_2(self, tmp_path, capsys, key, value, command, expected):
        config = bundled_config_document()
        config[key] = value
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
        argv += {"allocate": ["--scheme", "minimax"], "reproduce": ["--out", str(tmp_path)]}.get(
            command, []
        )
        code, _ = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert expected in err
