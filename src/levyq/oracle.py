"""Exact Monte Carlo simulation of the continuous-state queues.

Both process classes admit exact path simulation: jump epochs of a Poisson
process, iid jump sizes, and unit drift integrated analytically between
jumps (held at 0 for the M/G/1 workload, stopped at 0 for downward jumps of
the spectrally negative queue).  No time stepping is involved, so the
samples are draws from the exact law at the requested time and can be used
to validate the certified bounds statistically.

Paths are generated in fixed-size batches, each from a counter-based
(Philox) stream keyed by (seed, batch index): results are deterministic
given the seed, independent of batch processing order, and merged in path
order, so the simulation parallelizes without losing reproducibility.

A batch keeps only its live jumps, path-major in one ragged array, so its
memory is O(batch + jumps) rather than O(batch * max jumps).  The jump
epochs and sizes are drawn in row slices of ``WORK_BUDGET`` values, in the
stream order of one whole (batch, max jumps) draw, so every sample is the
same number as with one draw.

The bootstrap keeps each resample as counts over the sorted distinct sample
values (one sort and a neighbour compare), drawn from their exact law: one
multinomial over the tied values and a pool of the untied samples, then
uniform picks in the pool.  A resample costs O(tied values + untied
samples), not O(n_paths), as samples often share a few values (paths
without a jump, the idle queue's 0).  Past the pool no per-sample array is
kept, and the distance keeps only the segments inside the sample range.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .kernel import ModelKind, ModelSpec
from .measure import (
    WORK_BUDGET,
    GeneralMeasure,
    LiftedDistribution,
    _is_finite_real,
    _is_int,
    _merged_breakpoints,
    _to_step_linear,
    empirical_distance,
)
# re-exported: tools that trace the distance engine wrap oracle.wasserstein
from .measure import wasserstein  # noqa: F401

__all__ = ["SimConfig", "simulate", "empirical_wasserstein", "bias_allowance"]

_BATCH = 1 << 16


@dataclass(frozen=True, eq=False)
class SimConfig:
    spec: ModelSpec
    mu0: GeneralMeasure
    t: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not _is_int(self.n_paths) or self.n_paths < 1:
            raise ValueError(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        if not (_is_finite_real(self.t) and self.t >= 0.0):
            raise ValueError(f"t must be finite and >= 0, got {self.t!r}")
        _check_seed(self.seed)


def _check_seed(seed) -> None:
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _batch_rng(seed: int, batch: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(batch)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_batch(cfg: SimConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    spec, t = cfg.spec, cfg.t
    q = cfg.mu0.sample(rng, n)
    if t == 0.0:
        return q
    counts = rng.poisson(spec.lam * t, n)
    kmax = int(counts.max()) if n else 0
    if kmax == 0:
        return _drift(spec.kind, q, t)
    # jump epochs: order statistics of uniforms on [0, t]; then the sizes
    times = _live_jumps(lambda m: rng.uniform(0.0, t, m), counts, kmax, sort=True)
    sizes = _live_jumps(lambda m: spec.job.sample(rng, m), counts, kmax, sort=False)
    jumped = np.flatnonzero(counts)
    n_jumps = counts[jumped]
    first = np.cumsum(n_jumps) - n_jumps  # slot of each jumping path's first jump
    for k in range(kmax):
        live = n_jumps > k
        paths, at = jumped[live], first[live] + k
        dt = times[at] - times[at - 1] if k else times[at]  # first jump: dt from 0
        if spec.kind is ModelKind.MG1:
            q[paths] = np.maximum(q[paths] - dt, 0.0) + sizes[at]
        else:
            q[paths] = np.maximum(q[paths] + dt - sizes[at], 0.0)
    since_last = np.full(n, float(t))  # an integer t must not make it an integer array
    since_last[jumped] = t - times[first + n_jumps - 1]
    return _drift(spec.kind, q, since_last)


def _live_jumps(draw, counts: np.ndarray, kmax: int, sort: bool) -> np.ndarray:
    """The first counts[i] of kmax draws per path, path-major in one array.

    The (paths, kmax) block of draws is taken in row slices of at most
    ``WORK_BUDGET`` values.  ``draw(m)`` must consume the stream element by
    element, so the slices see the same values as one whole draw.  With
    ``sort`` each row's unused slots are set to inf and the row is sorted,
    so its live slots hold the order statistics of its draws.
    """
    out = np.empty(int(counts.sum()))
    rows = max(1, WORK_BUDGET // kmax)
    slots = np.arange(kmax)
    end = 0
    for lo in range(0, len(counts), rows):
        c = counts[lo : lo + rows]
        block = draw(len(c) * kmax).reshape(len(c), kmax)
        live = slots < c[:, None]
        if sort:
            block[~live] = np.inf
            block.sort(axis=1)
        kept = block[live]
        out[end : end + len(kept)] = kept
        end += len(kept)
    return out


def _drift(kind: ModelKind, q: np.ndarray, dt) -> np.ndarray:
    """Move q by its drift over dt, in place."""
    if kind is ModelKind.MG1:
        q -= dt
        return np.maximum(q, 0.0, out=q)
    q += dt
    return q


def simulate(cfg: SimConfig) -> np.ndarray:
    """n_paths iid exact samples of the workload at time t.

    Every batch is generated at full width from its own counter-keyed
    stream, so path i is the same number regardless of n_paths.
    """
    out = np.empty(cfg.n_paths)
    for batch, start in enumerate(range(0, cfg.n_paths, _BATCH)):
        n = min(_BATCH, cfg.n_paths - start)
        rng = _batch_rng(cfg.seed, batch)
        out[start : start + n] = _simulate_batch(cfg, rng, _BATCH)[:n]
    return out


def empirical_wasserstein(
    samples: np.ndarray,
    m: LiftedDistribution,
    n_boot: int = 200,
    seed: int = 0,
) -> tuple[float, float]:
    """Exact distance from the empirical measure to m, plus a bootstrap SE.

    The point estimate integrates |F_empirical - F_m| exactly (both CDFs are
    piecewise linear with jumps).  The standard error is the standard
    deviation of the same statistic over ``n_boot`` resamples of the sample
    array drawn with replacement.  Each resample is reduced to counts over
    the sorted distinct sample values, so both CDFs are evaluated on their
    merged breakpoints only once.

    The counts are drawn directly from their law.  Drawing n sample indices
    uniformly and counting them by distinct value v gives counts
    ~ Multinomial(n; mult_v / n), where mult_v is the number of samples equal
    to v.  Merge the untied values (mult_v = 1) into one pool: by the
    aggregation property of the multinomial, the counts of the tied values
    and the pool's total are Multinomial(n; (mult_v / n)_tied, n_untied / n),
    and given the pool's total c, the pool's draws are c iid uniform picks
    among the untied samples.  So one multinomial draw plus c uniform
    indices has exactly the law of the n uniform indices, and a resample
    costs O(tied values + untied samples) draws instead of O(n).  Samples
    without ties draw the same numbers as n uniform indices (the multinomial
    over the pool alone consumes no randomness); with ties the stream, and
    so the SE at a given seed, differs from an index draw, but it is
    reproducible bit for bit.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or len(samples) < 2 or not np.isfinite(samples).all():
        raise ValueError("samples must be a 1-D array of at least two finite values")
    if not _is_int(n_boot) or n_boot < 2:
        raise ValueError(f"n_boot must be an integer >= 2, got {n_boot!r}")
    _check_seed(seed)
    values = _merged_breakpoints(samples)
    inv = np.searchsorted(values, samples)
    mult = np.bincount(inv)
    resample = _resampler(inv, mult)
    del samples, inv  # the resampler holds its untied pool; no per-sample array is needed
    distance = empirical_distance(values, m)
    est = distance(mult)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2**32], dtype=np.uint64)))
    stats = np.empty(n_boot)
    for b in range(n_boot):
        stats[b] = distance(resample(rng))
    return est, float(stats.std(ddof=1))


def bias_allowance(m: LiftedDistribution, n_paths: int) -> float:
    """An allowance for the upward bias of the empirical W1 of n_paths
    samples: J1(F_m) / sqrt(n_paths), J1(F) = int sqrt(F (1 - F)).

    For n iid samples of a law F on the line, E W1(F_n, F) <= J1(F) /
    sqrt(n) (Bobkov and Ledoux, One-dimensional empirical measures, order
    statistics, and Kantorovich transport distances, Mem. AMS 261, 2019).
    The samples' own law is the unknown one, so J1 is read off m, the law
    they are checked against.  m's CDF is linear on each piece and sqrt(u (1
    - u)) is concave, so by Jensen a piece contributes at most its width
    times the value at its mean F: the sum is an upper sum of J1(F_m).
    Atoms have no width, and F is 0 or 1 outside m's pieces.
    """
    f = _to_step_linear(m)
    mean_f = np.clip((f.y_right[:-1] + f.y_left[1:]) / 2.0, 0.0, 1.0)
    j1 = np.einsum("i,i", np.diff(f.xs), np.sqrt(mean_f * (1.0 - mean_f)))
    return float(j1) / float(np.sqrt(n_paths))


def _resampler(
    inv: np.ndarray, mult: np.ndarray
) -> Callable[[np.random.Generator], np.ndarray]:
    """``resample(rng)``: one bootstrap resample's counts over the distinct values.

    ``inv`` maps each sample, in sample order, to its distinct value and
    ``mult`` counts the samples of each value.  The counts have the law of
    n uniform sample indices counted by value (see
    :func:`empirical_wasserstein`): one multinomial draw over the tied
    values and the pool of untied samples, then uniform picks in the pool.
    The pool is the last category, whose count numpy takes as the
    remainder, so its probability never rounds.
    """
    n, k = len(inv), len(mult)
    single = inv[(mult == 1)[inv]]  # the untied samples, in sample order
    if not len(single):  # no pool: the last value takes the remainder
        pvals = mult / n
        return lambda rng: rng.multinomial(n, pvals)
    tied = np.flatnonzero(mult > 1)
    pvals = np.append(mult[tied], len(single)) / n

    def resample(rng: np.random.Generator) -> np.ndarray:
        c = rng.multinomial(n, pvals)
        counts = np.bincount(single[rng.integers(0, len(single), c[-1])], minlength=k)
        counts[tied] = c[:-1]
        return counts

    return resample
