"""Fixtures shared by the test modules."""

import gc
import tracemalloc

import pytest

from cmc_elliptic import wp_chain


def _clear_chain_memo():
    wp_chain._kept_terms.cache_clear()
    wp_chain._probe_points.cache_clear()


@pytest.fixture
def cold_chains():
    """An empty chain memo for the test, and an empty one after it; yields
    the memoized terms, whose cache_info() counts the requests."""
    _clear_chain_memo()
    yield wp_chain._kept_terms
    _clear_chain_memo()


@pytest.fixture
def memo_bytes(cold_chains):
    """measure(fn) -> (fn(), bytes the chain memo holds after fn()).

    Starting from an empty memo, tracemalloc counts what clearing the memo
    frees; fn should return nothing that shares objects with the memo.
    """
    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            held = tracemalloc.get_traced_memory()[0]
            _clear_chain_memo()
            gc.collect()
            return result, held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    return measure
