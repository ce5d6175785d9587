"""Fixtures shared by the test modules."""

import signal

import pytest

from jacobiforms import catalog, lattice

# every constructor behind series.memo_by_prec
PREC_MEMOS = [
    obj for obj in vars(catalog).values()
    if hasattr(obj, "cache_clear") and obj.__module__ == catalog.__name__
] + [lattice._jacobi_theta_e8_cached]


@pytest.fixture
def clear_memos():
    """A function that empties every precision memo, so the next call of
    each constructor builds from scratch."""
    def clear():
        for memo in PREC_MEMOS:
            memo.cache_clear()
    return clear


# seconds one test may run before it fails; the slowest tier-1 test takes a few
TEST_TIME_LIMIT = 300


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs past TEST_TIME_LIMIT instead of hanging the
    suite: a real-time interval timer raises TimeoutError in the test.
    Where the platform has no SIGALRM, no limit is armed."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
