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

The bootstrap of the distance to a lifted law keeps each resample as counts
over the sorted distinct sample values; no measure is built per resample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import ModelKind, ModelSpec
from .measure import GeneralMeasure, LiftedDistribution, empirical_distance
# re-exported: tools that trace the distance engine wrap oracle.wasserstein
from .measure import wasserstein  # noqa: F401

__all__ = ["SimConfig", "simulate", "empirical_wasserstein"]

_BATCH = 1 << 16


@dataclass(frozen=True, eq=False)
class SimConfig:
    spec: ModelSpec
    mu0: GeneralMeasure
    t: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.t < 0:
            raise ValueError("t must be >= 0")


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
    # jump epochs: order statistics of uniforms on [0, t]
    times = rng.uniform(0.0, t, (n, kmax))
    times[np.arange(kmax)[None, :] >= counts[:, None]] = np.inf
    times.sort(axis=1)
    sizes = spec.job.sample(rng, n * kmax).reshape(n, kmax)
    t_prev = np.zeros(n)
    for k in range(kmax):
        active = k < counts
        dt = times[:, k] - t_prev
        if spec.kind is ModelKind.MG1:
            moved = np.maximum(q - dt, 0.0) + sizes[:, k]
        else:
            moved = np.maximum(q + dt - sizes[:, k], 0.0)
        q = np.where(active, moved, q)
        t_prev = np.where(active, times[:, k], t_prev)
    return _drift(spec.kind, q, t - t_prev)


def _drift(kind: ModelKind, q: np.ndarray, dt) -> np.ndarray:
    if kind is ModelKind.MG1:
        return np.maximum(q - dt, 0.0)
    return q + dt


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
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    if n_boot < 2:
        raise ValueError("need at least two bootstrap resamples")
    values, inv = np.unique(samples, return_inverse=True)
    distance = empirical_distance(values, m)
    est = distance(np.bincount(inv))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2**32], dtype=np.uint64)))
    n, k = len(samples), len(values)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        stats[b] = distance(np.bincount(inv[rng.integers(0, n, n)], minlength=k))
    return est, float(stats.std(ddof=1))
