"""Fixtures shared by the test modules."""

import gc
import tracemalloc

import pytest

from cmc_elliptic import wp_chain


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
