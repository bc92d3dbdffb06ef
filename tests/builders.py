"""Problem and scenario builders shared by the test modules."""

from regretalloc.model import DesignProblem, GroupSpec, TruthScenario


def make_problem(weights, var_sums, budget):
    """Problem with the given per-group contrast variances, split evenly
    across arms."""
    groups = tuple(
        GroupSpec(label=f"g{i}", weight=w, var_control=s / 2.0, var_treated=s / 2.0)
        for i, (w, s) in enumerate(zip(weights, var_sums))
    )
    return DesignProblem(budget=budget, groups=groups)


def design_truth(problem, tau, baseline=None):
    """Scenario with the problem's own variances (adversary moves tau only)."""
    return TruthScenario(
        tau=tuple(tau),
        baseline=tuple(baseline) if baseline else (0.0,) * problem.n_groups,
        var_control=tuple(g.var_control for g in problem.groups),
        var_treated=tuple(g.var_treated for g in problem.groups),
    )
