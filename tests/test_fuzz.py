"""Fuzzing the ways bad input gets in: scenario config documents, CLI
argument lists, the arguments of every public callable and the fields of a
hand-built ScenarioConfig.  Whatever arrives, the library raises ConfigError
or ValidationError and the CLI ends with exit status 0 or 2, never a
traceback."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import regretalloc
from regretalloc import (
    Allocation,
    DesignProblem,
    GroupSpec,
    IncidenceSpec,
    MonteCarloEstimate,
    Paradigm,
    PowerSpec,
    RegretSummary,
    ScenarioConfig,
    SimConfig,
    TruthScenario,
    decide,
    default_config,
    joint_adversarial_tau,
    joint_regret_expression,
)
from regretalloc.allocate import SCHEMES, DegenerateAllocationWarning, allocate
from regretalloc.casestudy import (
    ConfigError,
    build_case_study,
    parse_config,
    required_sample_size,
)
from regretalloc.cli import main
from regretalloc.model import Paradigm, ValidationError
from regretalloc.regret import expected_regret, worst_case
from reference_values import BUNDLED_CONFIG_PATH, bundled_config_document

# Numbers near the edges of what the parser and the arithmetic behind it
# accept: zero and signs, float range limits, integers past 2**53 and past
# float range, and the NaN/Infinity literals Python's JSON reader allows.
EDGE_NUMBERS = st.sampled_from(
    [0, 1, -1, 2, 3, 0.5, -0.5, 1.0, 1e-300, 1e-160, 5e-324, 1e154, 1e308, -1e308,
     2**53 + 1, 10**20, 10**400, -(10**400), float("nan"), float("inf"), float("-inf")]
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    EDGE_NUMBERS,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every key/index path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


BUNDLED = bundled_config_document()
BUNDLED_PATHS = list(_paths(BUNDLED))


@st.composite
def mutated_configs(draw):
    """The bundled config with one to three values replaced, removed, or
    joined by an extra key or list entry."""
    doc = copy.deepcopy(BUNDLED)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(BUNDLED_PATHS))
        value = draw(st.one_of(EDGE_NUMBERS, JSON_VALUES))
        if not path:
            return value
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            current = parent[path[-1]]
        except (KeyError, IndexError, TypeError):  # an earlier edit removed it
            continue
        action = draw(st.sampled_from(["replace", "remove", "extend"]))
        if action == "replace":
            parent[path[-1]] = value
        elif action == "remove":
            del parent[path[-1]]
        elif isinstance(current, dict):
            current[draw(st.text(max_size=4))] = value
        elif isinstance(current, list):
            current.append(value)
    return doc


DOCUMENTS = st.one_of(mutated_configs(), JSON_VALUES)


def typed_errors_only(call, *args):
    """``call(*args)``, or None if it raised ConfigError or ValidationError."""
    try:
        return call(*args)
    except (ConfigError, ValidationError):
        return None


@given(DOCUMENTS)
def test_config_documents_raise_only_typed_errors(doc):
    """A document that parses also builds, sizes, allocates and evaluates;
    each step either works or raises ConfigError or ValidationError."""
    config = typed_errors_only(parse_config, doc)
    cases = config and typed_errors_only(build_case_study, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for case in cases or ():
            typed_errors_only(required_sample_size, case.power, config.weights)
            for scheme in SCHEMES:
                allocation = typed_errors_only(allocate, case.problem, scheme, True)
                for paradigm in Paradigm if allocation else ():
                    typed_errors_only(worst_case, case.problem, allocation, paradigm)
                    typed_errors_only(
                        expected_regret, case.problem, allocation, case.truth, paradigm
                    )


# Values per option: usable ones (listed twice, to come up more often), near
# misses and garbage.  Replication counts stay tiny so that a run is fast.
OPTION_VALUES = {
    "--scheme": st.sampled_from([*SCHEMES, *SCHEMES, "bogus", ""]),
    "--allocation": st.one_of(
        st.sampled_from(["6100,3218", "0,0", "9320,0", "1,2", "-2,4", "6100", "a,b", "",
                         "1e400,0", f"{10**30},0", "6100,3218,2"]),
        st.text(max_size=8),
    ),
    "--paradigm": st.sampled_from(["separate", "joint", "egalitarian", "all"] * 2 + ["bogus"]),
    "--reps": st.sampled_from(["0", "1", "3"] * 2 + ["-1", "1.5", "x", "nan"]),
    "--seed": st.sampled_from(["0", "7", "-1", str(10**30)] * 2 + ["x"]),
}
# Options per subcommand, each with the chance that an argv carries it; the
# required ones are usually present, so that most argvs get past argparse.
COMMANDS = {
    "allocate": {"--scheme": 0.9, "--config": 0.5, "--redistribute": 0.5},
    "evaluate": {"--scheme": 0.7, "--allocation": 0.3, "--config": 0.5, "--paradigm": 0.5,
                 "--reps": 0.5, "--seed": 0.5, "--redistribute": 0.5},
    "reproduce": {"--out": 0.9, "--config": 0.5, "--reps": 0.5, "--seed": 0.5,
                  "--redistribute": 0.5},
    "power": {"--config": 0.7},
}
# Now and then one stray token: a help request, an unknown flag or a
# positional argument.
STRAY = st.sampled_from([None] * 6 + ["--help", "--bogus", "stray"])
CONFIG_CHOICES = ["bundled", "missing", "not-json", "not-utf8", "too-deep", "fuzzed", "fuzzed"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "bundled.json").write_text(json.dumps(BUNDLED))
    (root / "not-json.json").write_text("{\"weights\": [0.83,")
    (root / "not-utf8.json").write_bytes(b"{\"weights\": \"\xff\xfe\"}")
    (root / "too-deep.json").write_text("[" * 100_000)
    return root


@st.composite
def argvs(draw, root: Path):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for option, chance in COMMANDS[command].items():
        if draw(st.floats(0.0, 1.0)) >= chance:
            continue
        argv.append(option)
        if option == "--config":
            choice = draw(st.sampled_from(CONFIG_CHOICES))
            if choice == "fuzzed":
                (root / "fuzzed.json").write_text(json.dumps(draw(DOCUMENTS)))
            argv.append(str(root / f"{choice}.json"))
        elif option == "--out":
            argv.append(str(root / draw(st.sampled_from(["out", "out/nested"]))))
        elif option in OPTION_VALUES:
            argv.append(draw(OPTION_VALUES[option]))
    stray = draw(STRAY)
    if stray is not None:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


def test_cli_argv_exits_0_or_2(fuzz_dir):
    @given(argvs(fuzz_dir))
    def check(argv):
        sink = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            warnings.simplefilter("ignore")
            try:
                code = main(argv, out=sink)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
        assert code in (0, 2), (argv, code, sink.getvalue()[-500:])

    check()


# Values that replace one or two arguments of a valid call: wrong types, edge
# numbers, numpy scalars, arrays of every rank and of strings and objects,
# ragged and wrong-length sequences, and mappings.
BAD_ARGUMENTS = (
    None, "x", b"x", 1.5, -1, True, 10**400, math.inf, -math.inf, math.nan,
    np.float64(0.5), np.int64(3), np.bool_(True), np.array(0.5), np.array([0.5, 0.5]),
    np.ones((2, 2)), np.array(["a", "b"]), np.array([None, 1.0], dtype=object),
    [[1.0], [1.0, 2.0]], (1.0,), (1.0, 2.0, 3.0), {}, {"a": 1},
)
# Not fuzzed: ``regretalloc.stats`` (numeric kernels documented to raise
# ValueError and TypeError), the exception and warning classes, and
# ``Paradigm``, whose call is Enum's value lookup.
EXEMPT = {"Paradigm"}
# Arguments that are never replaced, because a large or special value makes
# the call run away: a SimConfig's replication count sets how many chunks
# ``monte_carlo_regret`` runs, and a text path such as /dev/stdin blocks
# ``load_config``.  No value above is an Allocation, so the counts that
# reach ``monte_carlo_regret`` (which draws n_g outcomes per replication)
# are always the small valid ones.
FIXED = {("SimConfig", 0), ("load_config", 0)}


def valid_calls():
    """One or two valid positional argument tuples per public callable."""
    problem = DesignProblem(20, (GroupSpec("a", 0.4, 1.0, 2.0), GroupSpec("b", 0.6, 0.5, 0.5)))
    allocation = Allocation((8, 10))
    truth = TruthScenario((0.3, -0.2), (0.0, 1.0), (1.0, 0.5), (2.0, 0.5))
    fields = (truth.tau, truth.baseline, truth.var_control, truth.var_treated)
    incidence = IncidenceSpec((0.001, 0.002), (0.003, 0.004), (0.1, 0.2), (0.02, 0.03), 0.005)
    power = PowerSpec(-0.006, 0.9, 0.05, (0.007, 0.02), (0.007, 0.02))
    config = default_config()
    separate, joint, worst_off = Paradigm
    rng = np.random.default_rng(0)
    return {
        "Allocation": [((8, 10),)],
        "CaseStudyCase": [(0.005, problem, truth, power)],
        "DesignProblem": [(20, problem.groups)],
        "GroupSpec": [("a", 0.4, 1.0, 2.0)],
        "IncidenceSpec": [dataclasses.astuple(incidence)],
        "MonteCarloEstimate": [(0.1, 0.01, 10)],
        "PowerSpec": [dataclasses.astuple(power)],
        "RegretSummary": [(separate, 0.5, (0.25, 0.25))],
        "ScenarioConfig": [tuple(getattr(config, f.name) for f in dataclasses.fields(config))],
        "SimConfig": [(3, 7)],
        "TruthScenario": [fields],
        "adversarial_tau_separate": [(problem, allocation)],
        "allocate": [(problem, "minimax", True)],
        "build_case_study": [(config,)],
        "check_allocation": [(problem, allocation)],
        "check_scenario": [(problem, truth)],
        "composite_moments": [(incidence,)],
        "decide": [(separate, (0.1, math.nan), None, rng), (joint, None, -0.1, rng)],
        "default_config": [()],
        "expected_regret": [(problem, allocation, truth, separate)],
        "joint_adversarial_tau": [(problem, allocation, 0.7)],
        "joint_mismatch": [(problem, allocation)],
        "joint_regret_expression": [(problem, allocation, 0.7)],
        "load_config": [(str(BUNDLED_CONFIG_PATH),)],
        "monte_carlo_regret": [
            (problem, allocation, truth, worst_off, SimConfig(3, 1), "trial", 2),
            (problem, Allocation((8, 0)), truth, joint, SimConfig(5, 2), "estimator", None),
        ],
        "parse_config": [(bundled_config_document(),)],
        "realized_regret": [(truth, problem, (1, 0), separate)],
        "required_sample_size": [(power, (0.83, 0.17))],
        "shares": [(problem, "neyman")],
        "validate_problem": [(problem,)],
        "worst_case": [(problem, allocation, paradigm) for paradigm in Paradigm],
    }


def public_callables():
    """Every callable in ``dir(regretalloc)`` that the fuzz test covers,
    the lazily served simulate names included."""
    names = {}
    for name in dir(regretalloc):
        value = getattr(regretalloc, name)
        if name.startswith("_") or not callable(value) or name in EXEMPT:
            continue
        if isinstance(value, type) and issubclass(value, BaseException):
            continue
        if value.__module__ != "regretalloc.stats":
            names[name] = value
    return names


def replaced_calls(name, args):
    """``args`` with one, then two, of its free arguments replaced by bad
    values, in every combination."""
    free = [i for i in range(len(args)) if (name, i) not in FIXED]
    for positions in (*itertools.combinations(free, 1), *itertools.combinations(free, 2)):
        for values in itertools.product(BAD_ARGUMENTS, repeat=len(positions)):
            call = list(args)
            for i, value in zip(positions, values):
                call[i] = value
            yield tuple(call)


def test_every_public_callable_has_a_valid_call():
    assert set(public_callables()) == set(valid_calls())
    simulate_names = {n for n, m in regretalloc._LAZY_EXPORTS.items() if m == "simulate"}
    assert simulate_names <= set(public_callables())


@pytest.mark.parametrize("name", sorted(valid_calls()))
def test_public_callables_raise_only_typed_errors(name):
    function = public_callables()[name]
    expected = ConfigError if function.__module__ == "regretalloc.casestudy" else ValidationError
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAllocationWarning)
        for args in valid_calls()[name]:
            function(*args)
            for call in replaced_calls(name, args):
                try:
                    function(*call)
                except expected:
                    pass
                except Exception as exc:
                    pytest.fail(f"{name}{call!r} raised {exc!r}")


def test_scenario_config_fields_raise_only_config_errors():
    """Every one and every two fields of the bundled config replaced by bad
    values: building the config raises ConfigError, or ``build_case_study``
    returns or raises ConfigError."""
    for fields in replaced_calls("ScenarioConfig", valid_calls()["ScenarioConfig"][0]):
        try:
            config = ScenarioConfig(*fields)
        except ConfigError:
            continue
        try:
            build_case_study(config)
        except ConfigError:
            pass



def real_number_inputs():
    """Each real-number input of the library as ``(call, error)``: ``call(x)``
    puts ``x`` in that one slot of an otherwise valid call, where 0.5 is
    valid, and ``error`` is what a value that is not a real number raises."""
    problem = DesignProblem(20, (GroupSpec("a", 0.5, 1.0, 2.0), GroupSpec("b", 0.5, 0.5, 0.5)))
    allocation = Allocation((8, 10))
    separate, joint, _ = Paradigm
    config = default_config()

    def put(value, x):
        """``x`` in place of ``value``, or of its first entry."""
        return (x, *value[1:]) if isinstance(value, tuple) else x

    calls = {
        "DesignProblem.weight": lambda x: DesignProblem(
            20, (GroupSpec("a", x, 1.0, 2.0), problem.groups[1])
        ),
        "DesignProblem.var_control": lambda x: DesignProblem(
            20, (GroupSpec("a", 0.5, x, 2.0), problem.groups[1])
        ),
        "DesignProblem.var_treated": lambda x: DesignProblem(
            20, (GroupSpec("a", 0.5, 1.0, x), problem.groups[1])
        ),
        "RegretSummary.value": lambda x: RegretSummary(separate, x),
        "RegretSummary.per_group": lambda x: RegretSummary(separate, 0.5, (x, 0.25)),
        "joint_regret_expression.t_dagger": lambda x: joint_regret_expression(
            problem, allocation, x
        ),
        "joint_adversarial_tau.t_dagger": lambda x: joint_adversarial_tau(problem, allocation, x),
        "decide.group_estimates": lambda x: decide(separate, (x, -0.1)),
        "decide.pooled_estimate": lambda x: decide(joint, None, x),
        "MonteCarloEstimate.mean": lambda x: MonteCarloEstimate(x, 0.01, 10),
        "MonteCarloEstimate.std_error": lambda x: MonteCarloEstimate(0.1, x, 10),
        "required_sample_size.weights": lambda x: required_sample_size(
            PowerSpec(-0.006, 0.9, 0.05, (0.007, 0.02), (0.007, 0.02)), (x, 0.5)
        ),
        "ScenarioConfig.reported": lambda x: dataclasses.replace(
            config, reported={**config.reported, "ar_control": put((0.0253, 0.0248), x)}
        ),
    }
    for cls, fields in (
        (TruthScenario, {"tau": (0.3, -0.2), "baseline": (0.0, 1.0),
                         "var_control": (1.0, 0.5), "var_treated": (2.0, 0.5)}),
        (IncidenceSpec, {"covid_treated": (0.001, 0.002), "covid_control": (0.003, 0.004),
                         "ar_treated": (0.1, 0.2), "ar_control": (0.02, 0.03), "beta": 0.005}),
        (PowerSpec, {"detectable_effect": -0.006, "power_quantile": 0.9, "size_quantile": 0.05,
                     "var_control": (0.007, 0.02), "var_treated": (0.007, 0.02)}),
    ):
        for name in fields:
            calls[f"{cls.__name__}.{name}"] = (
                lambda x, cls=cls, fields=fields, name=name:
                cls(**{**fields, name: put(fields[name], x)})
            )
    for name in ("weights", "design_covid_control", "design_ar_treated", "beta_cases",
                 "detectable_effect", "power_quantile", "size_quantile"):
        calls[f"ScenarioConfig.{name}"] = lambda x, name=name: dataclasses.replace(
            config, **{name: put(getattr(config, name), x)}
        )
    casestudy = {"IncidenceSpec", "PowerSpec", "ScenarioConfig", "required_sample_size"}
    return {
        name: (call, ConfigError if name.split(".")[0] in casestudy else ValidationError)
        for name, call in calls.items()
    }


@pytest.mark.parametrize("name", sorted(real_number_inputs()))
def test_real_number_inputs_take_no_strings_bytes_or_booleans(name):
    """One rule for what a number is: a Python or numpy int or float, never a
    bool, str or bytes, whichever input it arrives at."""
    call, error = real_number_inputs()[name]
    call(np.float64(0.5))
    for value in ("0.5", b"0.5", True, np.True_):
        with pytest.raises(error):
            call(value)
