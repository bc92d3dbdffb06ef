"""The paradigm members, the scheme table, and byte-pinned reproduce outputs."""

import copy
import hashlib
import math
import pickle
import warnings

import numpy as np
import pytest

from regretalloc.allocate import SCHEMES, DegenerateAllocationWarning, allocate
from regretalloc.cli import main
from regretalloc.model import (
    Allocation,
    DesignProblem,
    GroupSpec,
    Paradigm,
    TruthScenario,
    ValidationError,
    check_paradigm,
)
from regretalloc.regret import expected_regret, worst_case, worst_case_terms
from regretalloc.simulate import SimConfig, decide, monte_carlo_regret, realized_regret

# sha256 of every file ``regretalloc reproduce`` writes for the bundled
# scenario without --reps (the same digests as perfbench/golden_sha256.json).
REPRODUCE_SHA256 = {
    "constants.csv": "d9c16e92cb3300b344ae52ad24021f1b08898a08ece4ee9dc606f0f945e3826e",
    "discrepancies.txt": "7b8c5a4675491014fdf811e7dba28121d8a6f5b71f4def8598a19186470aaf61",
    "power_conventions.csv": "8abe26d24a5f1846b98c4a78a5cc7d091b9aada43fac1f31fe6bc961a4a5ae57",
    "table1.csv": "717aa1880bdf9b3dedc8850f2a943becb6e927912ce5a495fc698bef21771a0f",
    "table2.csv": "4683f41170d86dcd8ce4212965e996f8236fa9587dd1d40626eccdf048e57d4e",
    "table4.csv": "00b60854f5ebbc1b8cc78667dc707b31bccb9ad72b2ce7f19b1be4ec32174b24",
    "table5.csv": "9deb2c470106575013d4f5d3eeb7882fde0926b21e9958781bf2ce4296da6fa9",
}
# ``reproduce --redistribute``: redistribution spends the leftover pairs,
# which changes only the tables that list allocations and their regrets.
REPRODUCE_REDISTRIBUTE_SHA256 = {
    **REPRODUCE_SHA256,
    "table2.csv": "dc195cd44d069e9693784e189ae7c87fc29eb9810c41f0f2ff391e0cb3e68ce4",
    "table5.csv": "ac7e37fc1542cf26d78af92e1665d379c1c4dcc98d535dd47daf9b963ad196eb",
}
# table5.csv of ``reproduce --reps 20000 --seed 0``: closed forms plus the
# seeded Monte Carlo columns.
TABLE5_REPS_20000_SEED_0_SHA256 = "9a92349825d816ef9ad964c48ad55b754a99cd81e19b81d6381673aca20645db"

NOT_A_PARADIGM = ["separate-utilitarian", "SEPARATE_UTILITARIAN", None, 0, ["joint"]]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def problem_and_allocation():
    problem = DesignProblem(
        budget=200,
        groups=(GroupSpec("a", 0.7, 1.0, 2.0), GroupSpec("b", 0.3, 0.5, 0.5)),
    )
    return problem, Allocation(counts=(120, 60))


def problem_truth(problem):
    return TruthScenario(
        tau=(0.05, -0.02),
        baseline=(0.0, 0.0),
        var_control=tuple(g.var_control for g in problem.groups),
        var_treated=tuple(g.var_treated for g in problem.groups),
    )


class TestReproduceDigests:
    def test_plain_outputs_are_pinned(self, tmp_path):
        assert main(["reproduce", "--out", str(tmp_path)]) == 0
        written = {p.name for p in tmp_path.iterdir()}
        assert written == set(REPRODUCE_SHA256)
        for name, digest in REPRODUCE_SHA256.items():
            assert sha256(tmp_path / name) == digest, name

    def test_redistribute_outputs_are_pinned(self, tmp_path):
        assert main(["reproduce", "--out", str(tmp_path), "--redistribute"]) == 0
        written = {p.name for p in tmp_path.iterdir()}
        assert written == set(REPRODUCE_REDISTRIBUTE_SHA256)
        for name, digest in REPRODUCE_REDISTRIBUTE_SHA256.items():
            assert sha256(tmp_path / name) == digest, name

    def test_monte_carlo_table5_is_pinned(self, tmp_path):
        argv = ["reproduce", "--out", str(tmp_path), "--reps", "20000", "--seed", "0"]
        assert main(argv) == 0
        assert sha256(tmp_path / "table5.csv") == TABLE5_REPS_20000_SEED_0_SHA256
        for name, digest in REPRODUCE_SHA256.items():
            if name != "table5.csv":
                assert sha256(tmp_path / name) == digest, name


def member_rule(paradigm):
    return paradigm.value, paradigm.flag, paradigm.pooled, paradigm.worst_off, paradigm.combine


class TestParadigmTable:
    def test_members_are_in_report_order_and_look_up_by_value(self):
        assert [p.value for p in Paradigm] == [
            "separate-utilitarian", "joint-utilitarian", "separate-egalitarian"
        ]
        for paradigm in Paradigm:
            assert Paradigm(paradigm.value) is paradigm
            assert check_paradigm(paradigm) is paradigm

    @pytest.mark.parametrize(
        "copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_a_copied_member_is_the_member(self, copy_of):
        for paradigm in Paradigm:
            copied = copy_of(paradigm)
            assert copied is paradigm
            assert hash(copied) == hash(paradigm)
            assert member_rule(copied) == member_rule(paradigm)

    def test_combine_is_the_builtin_sum_or_max(self):
        for paradigm in Paradigm:
            assert paradigm.combine is (max if paradigm.worst_off else sum)

    def test_flags_are_the_cli_names(self):
        assert [p.flag for p in Paradigm] == ["separate", "joint", "egalitarian"]

    def test_exactly_one_pooled_and_one_worst_off_paradigm(self):
        assert [p for p in Paradigm if p.pooled] == [Paradigm.JOINT_UTILITARIAN]
        assert [p for p in Paradigm if p.worst_off] == [Paradigm.SEPARATE_EGALITARIAN]

    def test_member_rule_matches_public_worst_case(self):
        # A separate paradigm's worst case is its combine over the kernel's
        # terms under its group weights; the pooled one has no terms.
        problem, allocation = problem_and_allocation()
        for paradigm in Paradigm:
            summary = worst_case(problem, allocation, paradigm)
            assert summary.paradigm is paradigm
            if paradigm.pooled:
                assert summary.per_group is None
                continue
            weights = paradigm.group_weights(problem)
            terms = worst_case_terms(weights, problem.var_sums, allocation.counts)
            assert summary.per_group == tuple(terms)
            assert summary.value == paradigm.combine(terms)

    @pytest.mark.parametrize("bogus", NOT_A_PARADIGM, ids=repr)
    def test_bogus_paradigm_rejected_everywhere(self, bogus):
        problem, allocation = problem_and_allocation()
        truth = problem_truth(problem)
        with pytest.raises(ValidationError, match="unknown paradigm"):
            check_paradigm(bogus)
        with pytest.raises(ValidationError, match="unknown paradigm"):
            decide(bogus, group_estimates=(0.1, -0.1), pooled_estimate=0.1)
        with pytest.raises(ValidationError, match="unknown paradigm"):
            worst_case(problem, allocation, bogus)
        with pytest.raises(ValidationError, match="unknown paradigm"):
            expected_regret(problem, allocation, truth, bogus)
        with pytest.raises(ValidationError, match="unknown paradigm"):
            realized_regret(truth, problem, (1, 0), bogus)
        with pytest.raises(ValidationError, match="unknown paradigm"):
            monte_carlo_regret(
                problem, allocation, truth, bogus, SimConfig(replications=10, master_seed=0),
                level="estimator",
            )


class TestWorstCaseKernel:
    def test_kernel_gives_h_and_he_bit_for_bit(self):
        problem, allocation = problem_and_allocation()
        terms = worst_case_terms(problem.weights, problem.var_sums, allocation.counts)
        assert sum(terms) == worst_case(problem, allocation, Paradigm.SEPARATE_UTILITARIAN).value
        unit = worst_case_terms((1.0, 1.0), problem.var_sums, allocation.counts)
        assert max(unit) == worst_case(problem, allocation, Paradigm.SEPARATE_EGALITARIAN).value

    def test_kernel_is_infinite_for_unsampled_groups(self):
        problem, _ = problem_and_allocation()
        terms = worst_case_terms(problem.weights, problem.var_sums, (200, 0))
        assert math.isfinite(terms[0]) and terms[1] == math.inf


class TestSchemeTable:
    def test_scheme_names(self):
        assert list(SCHEMES) == ["minimax", "proportional", "egalitarian", "neyman"]

    def test_redistribution_policy_targets(self):
        assert SCHEMES["minimax"].greedy_target is Paradigm.SEPARATE_UTILITARIAN
        assert SCHEMES["egalitarian"].greedy_target is Paradigm.SEPARATE_EGALITARIAN
        assert SCHEMES["proportional"].greedy_target is None
        assert SCHEMES["neyman"].greedy_target is None

    def test_greedy_redistribution_never_raises_its_target(self):
        problem = DesignProblem(
            budget=101,
            groups=(
                GroupSpec("a", 0.5, 1.0, 1.0),
                GroupSpec("b", 0.3, 2.0, 0.5),
                GroupSpec("c", 0.2, 0.1, 0.3),
            ),
        )
        for scheme in ("minimax", "egalitarian"):
            target = SCHEMES[scheme].greedy_target
            floored = allocate(problem, scheme)
            spread = allocate(problem, scheme, redistribute=True)
            assert problem.budget - spread.total < 2
            before = worst_case(problem, floored, target).value
            assert worst_case(problem, spread, target).value <= before

    def test_degenerate_warning_points_at_the_caller(self):
        problem = DesignProblem(
            budget=20, groups=(GroupSpec("a", 0.97, 1.0, 1.0), GroupSpec("b", 0.03, 1.0, 1.0))
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegenerateAllocationWarning)
            allocate(problem, "proportional")
        assert len(caught) == 1
        assert caught[0].filename == __file__


def test_estimator_level_runs_for_every_table_entry():
    problem, allocation = problem_and_allocation()
    truth = problem_truth(problem)
    for paradigm in Paradigm:
        estimate = monte_carlo_regret(
            problem, allocation, truth, paradigm, SimConfig(replications=20000, master_seed=3),
            level="estimator",
        )
        closed = expected_regret(problem, allocation, truth, paradigm).value
        assert np.isfinite(estimate.mean)
        assert abs(estimate.mean - closed) < 5 * estimate.std_error + 1e-12
