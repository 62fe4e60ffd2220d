"""Fixtures shared by the test modules."""

import gc
import signal
import tracemalloc

import pytest

from cmc_elliptic import wp_chain

WATCHDOG_S = 5.0


@pytest.fixture
def cold_chains():
    """An empty chain memo for the test, and an empty one after it; yields
    the memoized probe rows, whose cache_info() counts the requests."""
    wp_chain._probe_rows.cache_clear()
    yield wp_chain._probe_rows
    wp_chain._probe_rows.cache_clear()


@pytest.fixture
def memo_bytes(cold_chains):
    """measure(fn) -> (fn(), bytes the chain memo holds after fn()).

    Starting from an empty memo, tracemalloc counts what clearing the memo
    frees; garbage that fn leaves is collected before either reading. fn
    should return nothing that shares objects with the memo.
    """
    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            cold_chains.cache_clear()
            gc.collect()
            return result, held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def watchdog():
    """call(fn, *args) -> fn(*args), or a test failure once the call has run
    WATCHDOG_S seconds: a loop that never ends fails instead of blocking the
    suite. The timer is the process's real-time one (SIGALRM), so it sees
    pure-Python loops; it must run in the main thread."""
    def expire(signum, frame):
        pytest.fail(f"call still running after {WATCHDOG_S} s",
                    pytrace=False)

    def call(fn, *args):
        signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        yield call
    finally:
        signal.signal(signal.SIGALRM, previous)
