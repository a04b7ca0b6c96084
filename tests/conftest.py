"""A wall-clock limit on each test's call phase, so a regression into a hang
fails with the test's name and a traceback instead of stalling the run.

The limit is a SIGALRM timer (`signal.setitimer`), with no plugin needed.  It
sits well above the largest acceptance budget (120 s) and the slowest test
(a few seconds).  A test that must bound a call of its own runs it in a
subprocess with a timeout, which leaves this timer alone.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 300


class TimeLimitExceeded(Exception):
    """A test ran past TEST_TIME_LIMIT_S."""


def _expired(signum, frame):
    raise TimeLimitExceeded(f"test ran past its {TEST_TIME_LIMIT_S} s wall-clock limit")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
