"""The repository's pytest settings let a failing property test report
itself: warnings are errors, yet a Hypothesis failure still prints its
falsifying example and the tests after it still run.  A test that hangs
ends the run with its stack on stderr."""

import subprocess
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"

FAILING_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_plain():
    pass
'''


def test_failing_property_reports_its_example_and_later_tests_run(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out


# The suite's own conftest, loaded under another name with a 1 s limit.
GUARD_CONFTEST = f'''
import importlib.util

spec = importlib.util.spec_from_file_location("suite_conftest", {str(TESTS / "conftest.py")!r})
guard = importlib.util.module_from_spec(spec)
spec.loader.exec_module(guard)
guard.HANG_LIMIT_S = 1
pytest_configure = guard.pytest_configure
pytest_unconfigure = guard.pytest_unconfigure
pytest_runtest_protocol = guard.pytest_runtest_protocol
'''

HANGING = '''
import time


def test_passes():
    pass


def test_hangs_forever():
    while True:
        time.sleep(0.1)
'''


def test_a_hanging_test_fails_the_run_and_names_itself(tmp_path):
    (tmp_path / "conftest.py").write_text(GUARD_CONFTEST)
    (tmp_path / "test_hang.py").write_text(HANGING)
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_hang.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert time.monotonic() - start < 30
    assert result.returncode == 1
    assert "Timeout" in result.stderr
    assert "in test_hangs_forever" in result.stderr


SLOW_BUT_UNDER_THE_LIMIT = '''
import time


def test_first():
    time.sleep(0.6)


def test_second():
    time.sleep(0.6)


def test_third():
    time.sleep(0.6)
'''


def test_each_test_gets_the_whole_limit(tmp_path):
    # 1.8 s in all under a 1 s limit: the guard must re-arm for every test.
    (tmp_path / "conftest.py").write_text(GUARD_CONFTEST)
    (tmp_path / "test_slow.py").write_text(SLOW_BUT_UNDER_THE_LIMIT)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_slow.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "3 passed" in result.stdout
    assert "Timeout" not in result.stderr
