"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The peak-memory helper: ``traced_peak(fn)`` is fn's traced peak in bytes."""
    return _traced_peak
