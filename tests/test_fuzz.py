"""Fuzzing the two ways bad input gets in: scenario config documents and CLI
argument lists.  Whatever arrives, the library raises ConfigError or
ValidationError and the CLI ends with exit status 0 or 2, never a traceback."""

import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regretalloc.allocate import SCHEMES, allocate
from regretalloc.casestudy import (
    ConfigError,
    build_case_study,
    parse_config,
    required_sample_size,
)
from regretalloc.cli import main
from regretalloc.model import ValidationError
from regretalloc.regret import PARADIGMS, expected_regret, worst_case
from reference_values import bundled_config_document

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
                for paradigm in PARADIGMS if allocation else ():
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
