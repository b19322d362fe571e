"""Suite-wide settings: every test runs under a time limit.

A test that loops or waits past ``TEST_TIME_LIMIT_S`` fails with a
message naming the limit, instead of hanging the whole run.  The limit is
taken with ``signal.setitimer`` and SIGALRM, so it applies on platforms
that have them (not on Windows); a test elsewhere runs unlimited.
"""

import signal

import pytest

# seconds a test may run; above the 120 s timeouts of the suite's own
# subprocess runs, so those fail on their own timeout first
TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test if it runs past ``TEST_TIME_LIMIT_S``."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s time limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
