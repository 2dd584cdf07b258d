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


@pytest.fixture
def leak_mass(monkeypatch):
    """``leak_mass(extra)``: kernels built by the solver add ``extra`` to
    every diagonal entry, so each step changes the chain's mass by about
    ``extra`` (a NaN spreads through the state vector)."""
    import levyq.solver

    def leak(extra: float) -> None:
        build = levyq.solver.build_kernel

        def leaky(spec, grid):
            kern = build(spec, grid)
            kern.diag = kern.diag + extra
            return kern

        monkeypatch.setattr(levyq.solver, "build_kernel", leaky)

    return leak
