"""End-to-end transient analysis with a certified Wasserstein bound.

The pipeline: project the initial law onto the grid (interval masses are
preserved, so the initial error is at most one interval width and is
computed exactly), push the chain-state probabilities, a plain array,
through the structured transition kernel, lift them to an atom plus a
piecewise-constant density where they are reported, and add up the per-step
error components in a ledger.  The bound does not charge for mass drift, so
a step whose mass leaves 1 +- 1e-9 ends the run with a CertificationError.

The step loop is sequential; summation order is fixed so runs are
bit-reproducible, and no product on the path goes through BLAS, whose
threaded dot products would make the bytes depend on the thread count.
Before the setup, ``solve`` frees one untouched block larger than any buffer
of a step: glibc then keeps freed arrays on its heap for reuse instead of
mapping fresh pages every step, for the CLI and Python callers alike and
with no allocator settings.  Snapshots are stored only at requested steps
(full trajectories at fine grids would not fit in memory), while the ledger
keeps one scalar record per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundContext, BoundLedger, StepComponents
from .errors import CertificationError, GridError, SupportError
from .kernel import ModelSpec, build_kernel
from .measure import (
    _MASS_TOL,
    GeneralMeasure,
    Grid,
    LiftedDistribution,
    _is_finite_real,
    _is_int,
    wasserstein,
)

# glibc moves its mmap threshold up to a freed mmapped chunk only if the
# chunk, header and page rounding included, is at most 32 MiB; a block of
# 31 MiB stays below that with room to spare
_FREED_BLOCK_VALUES = (31 << 20) // 8

__all__ = [
    "TransientResult",
    "discretize_initial",
    "lift",
    "solve",
    "certified_tail",
]


@dataclass(eq=False)
class TransientResult:
    """Snapshots of the lifted distribution plus the full bound ledger."""

    spec: ModelSpec
    grid: Grid
    times: np.ndarray
    snapshot_steps: np.ndarray
    distributions: list[LiftedDistribution]
    ledger: BoundLedger

    @property
    def bounds(self) -> np.ndarray:
        """Certified Wasserstein bound at each snapshot time."""
        cum = self.ledger.cumulative
        return cum[self.snapshot_steps]

    def at_time(self, t: float) -> tuple[LiftedDistribution, float]:
        if not _is_finite_real(t):
            raise KeyError(f"no snapshot at time {t!r}")
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"no snapshot at time {t}")
        return self.distributions[idx], float(self.bounds[idx])


def discretize_initial(mu0: GeneralMeasure, grid: Grid) -> tuple[np.ndarray, float]:
    """Project the initial law onto the grid and certify the projection error.

    State 0 receives the mass at exactly 0 and state i >= 1 the mass of
    ((i-1)*delta, i*delta], so every interval's probability is preserved and
    the exact Wasserstein distance to the lift (returned as b0) is at most
    delta.  Laws not supported on [0, M] are rejected rather than clipped:
    clipping would invalidate the certificate.
    """
    d, m = grid.delta, grid.m
    if mu0.support_max > m * (1.0 + 1e-12):
        raise SupportError(
            f"initial law reaches {mu0.support_max}, beyond the truncation at {m}; "
            "increase truncation"
        )
    atom0 = mu0.mass_at_zero()
    if atom0 > 0.0 and not grid.zero_state:
        raise GridError(
            "initial mass at exactly 0 needs a chain with a zero state"
        )
    p = _interval_masses(mu0, grid, atom0)
    b0 = wasserstein(mu0, lift(grid, p))
    return p, b0


def _interval_masses(mu0: GeneralMeasure, grid: Grid, atom0: float) -> np.ndarray:
    """Chain-state probabilities of mu0: its atom at 0, then its interval masses."""
    cdf_at_edges = mu0.cdf(grid.edges())
    p = np.empty(grid.n_states)
    interval = p[1:] if grid.zero_state else p
    np.subtract(cdf_at_edges[1:], cdf_at_edges[:-1], out=interval)
    # mass below the first edge that is not the atom belongs to interval 1
    if grid.zero_state:
        p[0] = atom0
        p[1] += cdf_at_edges[0] - atom0
    else:
        p[0] += cdf_at_edges[0]
    p[-1] += max(0.0, 1.0 - cdf_at_edges[-1])  # rounding at the top edge
    return p


def lift(grid: Grid, p: np.ndarray) -> LiftedDistribution:
    """Reinterpret chain-state probabilities as a measure on [0, M]."""
    if grid.zero_state:
        return LiftedDistribution(grid, float(p[0]), p[1:].copy())
    return LiftedDistribution(grid, 0.0, p.copy())


def solve(
    spec: ModelSpec,
    grid: Grid,
    mu0: GeneralMeasure,
    horizon_steps: int,
    snapshot_steps=None,
    bound_mode: str = "refined",
) -> TransientResult:
    """Run the discretized chain and accumulate the certified bound.

    ``bound_mode`` is "basic" or "refined"; the refined mode weights a
    per-start-state one-jump aggregation cost, computed once per run, by the
    evolving distribution every step (see :class:`OneJumpRefiner`).
    """
    if not _is_int(horizon_steps) or horizon_steps < 0:
        raise ValueError(f"horizon_steps must be an integer >= 0, got {horizon_steps!r}")
    if bound_mode not in ("basic", "refined"):
        raise ValueError(f"unknown bound mode {bound_mode!r}")
    steps = list(() if snapshot_steps is None else snapshot_steps)
    bad = [k for k in steps if not _is_int(k)]
    if bad:
        raise ValueError(f"snapshot steps must be integers, got {bad!r}")
    wanted = {0, int(horizon_steps), *(int(k) for k in steps)}
    bad = [k for k in wanted if not 0 <= k <= horizon_steps]
    if bad:
        raise ValueError(f"snapshot steps outside horizon: {sorted(bad)}")

    # Freeing an mmapped block raises glibc's dynamic mmap threshold to its
    # size and its trim threshold to twice that, so later arrays below it
    # live on the heap, whose freed pages are reused.  16 * n_states values
    # cover a step's largest buffer with a wide margin: the FFT buffers hold
    # about nfft values, and nfft, the 5-smooth length of two grids' worth
    # of states at most, is <= ~2.5 * n_states.  The block is never written,
    # so it costs no resident memory.
    np.empty(min(16 * grid.n_states, _FREED_BLOCK_VALUES))
    p, b0 = discretize_initial(mu0, grid)
    ledger = BoundLedger(b0, np.empty((horizon_steps, len(StepComponents._fields))))
    snaps: dict[int, LiftedDistribution] = {}
    if 0 in wanted:
        snaps[0] = lift(grid, p)
    if horizon_steps == 0:
        return _result(spec, grid, snaps, ledger)

    kern = build_kernel(spec, grid)
    ctx = BoundContext(spec, grid, bound_mode == "refined")
    for k in range(1, horizon_steps + 1):
        ledger.rows[k - 1] = ctx.components(p)
        p = kern.apply(p)
        total = p.sum()
        if not abs(total - 1.0) <= _MASS_TOL:  # a NaN total fails too
            raise CertificationError(f"chain mass is {float(total)!r} after step {k}")
        if k in wanted:
            snaps[k] = lift(grid, p)
    return _result(spec, grid, snaps, ledger)


def _result(spec, grid, snaps, ledger) -> TransientResult:
    steps = np.array(sorted(snaps))
    return TransientResult(
        spec=spec,
        grid=grid,
        times=steps * grid.delta,
        snapshot_steps=steps,
        distributions=[snaps[k] for k in steps],
        ledger=ledger,
    )


def certified_tail(
    result: TransientResult, snapshot: int, x: float, slack: float
) -> tuple[float, float]:
    """Certified bracket for P(Q > x) at the given snapshot index.

    The indicator of (x, inf) is sandwiched between two 1-Lipschitz ramps of
    width ``slack``; a Wasserstein bound b then gives
    P(Q > x) <= mass(x - slack) + b/slack and
    P(Q > x) >= mass(x + slack) - b/slack, both clipped to [0, 1].
    """
    if not _is_int(snapshot):
        raise ValueError(f"snapshot must be an integer index, got {snapshot!r}")
    n = len(result.times)
    if not 0 <= snapshot < n:
        raise ValueError(f"snapshot must be in 0..{n - 1}, got {snapshot}")
    if not _is_finite_real(x):
        raise ValueError(f"x must be a finite number, got {x!r}")
    if not (_is_finite_real(slack) and slack > 0):
        raise ValueError(f"slack must be a positive finite number, got {slack!r}")
    m = result.distributions[snapshot]
    b = float(result.bounds[snapshot])
    upper = m.threshold_mass(x - slack) + b / slack
    lower = m.threshold_mass(x + slack) - b / slack
    return (min(max(lower, 0.0), 1.0), min(max(upper, 0.0), 1.0))
