import faulthandler
import os

import pytest
from hypothesis import HealthCheck, settings

from regretalloc import build_case_study, default_config

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# A test that runs this long is taken to hang: every thread's stack goes to
# stderr and the run exits with status 1.  The slowest test takes about 3 s;
# the subprocess tests time out after 120 s.
HANG_LIMIT_S = 180
_stderr = None


def pytest_configure(config):
    # A duplicate of stderr taken here, while pytest's capture is suspended:
    # a dump written to fd 2 during a test would go to the capture file, and
    # exiting would lose it.
    global _stderr
    _stderr = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    _stderr.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=_stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def covid_cases():
    """The two bundled tradeoff cases (beta = 0.005 and beta = 0.025)."""
    return build_case_study(default_config())
