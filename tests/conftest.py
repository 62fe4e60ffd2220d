"""Fixtures shared by the test modules."""

import functools
import gc
import importlib
import inspect
import signal
import tracemalloc

import pytest

from cmc_elliptic import acceptance, wp_chain

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


@pytest.fixture
def call_counts(monkeypatch):
    """count(*targets) -> {n: {target: [calls]}} over criteria 1..10.

    Each target names a package callable by its path under cmc_elliptic,
    'weierstrass.WpEvaluator._series' say; it is wrapped for the rest of
    the test, so a call from anywhere that looks it up there counts. Each
    call is kept as its BoundArguments, defaults applied, so a test can
    tell the calls apart by their arguments. One scorecard runs first and
    is not counted: every memo is then as warm as in a repeated scorecard.
    """
    def wrap(target):
        module, *path, name = target.split(".")
        owner = importlib.import_module(f"cmc_elliptic.{module}")
        for attr in path:
            owner = getattr(owner, attr)
        original, calls = getattr(owner, name), []
        signature = inspect.signature(original)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def count(*targets):
        acceptance.run_all()
        calls = {target: wrap(target) for target in targets}
        counts = {}
        for n in range(1, 11):
            for kept in calls.values():
                del kept[:]
            getattr(acceptance, f"criterion_{n}")()
            counts[n] = {target: list(kept) for target, kept in calls.items()}
        return counts

    return count
