"""Distributions on the truncated state space and the exact Wasserstein engine.

Two measure representations live here:

* :class:`LiftedDistribution` -- an atom at 0 plus a piecewise-constant
  density over the grid intervals ((i-1)*delta, i*delta],
* :class:`GeneralMeasure` -- finite mixtures of point atoms and uniform
  pieces, used for initial laws.

Chain states and empirical measures stay arrays: :func:`empirical_distance`
takes counts over the sorted distinct sample values.

Both measures have piecewise-linear CDFs with jumps, so the order-1
Wasserstein distance, which on the line equals the L1 distance of the CDFs,
can be computed exactly: the integrand |F_a - F_b| is piecewise linear
between the union of breakpoints, and each linear segment is integrated in
closed form (splitting at the sign-change root where needed).  No quadrature
is involved, so this engine contributes zero slack to certified bounds.

Elementwise stages over long arrays (CDF interpolation, the segment
integrals) run in slices of ``WORK_BUDGET`` values into preallocated
outputs, so a fine grid's setup holds a few full-length arrays rather than
dozens of full-length temporaries.  Every reduction still runs over the
whole array, so the slicing does not change any result.  One plain
elementwise function, :func:`_abs_linear_integrals`, integrates the
segments; only the bootstrap's per-resample distance in
:func:`empirical_distance` has its own form, one gather and one dot.

Everything is immutable after construction; operations are pure.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

__all__ = [
    "Grid",
    "LiftedDistribution",
    "GeneralMeasure",
    "wasserstein",
    "empirical_distance",
]

_MASS_TOL = 1e-9
WORK_BUDGET = 4096  # float64 values per temporary in a setup sweep (32 KiB)


def _is_int(x) -> bool:
    """An integer, Python's or numpy's, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    """A finite real number, Python's or numpy's, but not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _on_half_line(fn, x, below, above):
    """``fn`` at max(x, 0), with ``below`` where x < 0, the limit ``above``
    at +inf and NaN where x is NaN.

    The argument convention of every law and measure query: ``fn`` sees a
    finite float array on [0, inf) only, and a scalar x gives a Python float.
    """
    xa = np.asarray(x, dtype=float)
    finite = np.isfinite(xa)
    whole = finite.all()
    inside = np.maximum(xa if whole else np.where(finite, xa, 0.0), 0.0)
    out = np.where(xa < 0.0, below, fn(inside))
    if not whole:
        out = np.where(xa == np.inf, above, np.where(np.isnan(xa), np.nan, out))
    return float(out) if xa.ndim == 0 else out


def work_slices(n: int) -> list[slice]:
    """Consecutive slices of at most ``WORK_BUDGET`` items covering range(n)."""
    return [slice(lo, min(lo + WORK_BUDGET, n)) for lo in range(0, n, WORK_BUDGET)]


def grid_values(fn, delta: float, k_lo: int, k_hi: int) -> np.ndarray:
    """fn(k * delta) for k = k_lo..k_hi, for an elementwise fn, in work slices."""
    out = np.empty(k_hi - k_lo + 1)
    for s in work_slices(len(out)):
        out[s] = fn(np.arange(k_lo + s.start, k_lo + s.stop) * delta)
    return out


def _merged_breakpoints(*parts: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the given arrays, as ``np.unique`` of
    their concatenation returns them.

    ``np.unique`` imports ``numpy.ma`` on its first call; one in-place sort
    and one comparison of neighbours do the same work without it.
    """
    x = np.concatenate(parts)
    x.sort()
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


@dataclass(frozen=True)
class Grid:
    """Discretization geometry: step delta, truncation at m = m_delta * delta.

    ``zero_state`` records whether the chain keeps a distinguished state for
    workload exactly 0: the M/G/1 chain does, the spectrally negative chain
    does not.
    """

    delta: float
    m_delta: int
    zero_state: bool = True

    def __post_init__(self):
        if not (_is_finite_real(self.delta) and self.delta > 0.0):
            raise GridError(f"delta must be a positive finite number, got {self.delta!r}")
        if not _is_int(self.m_delta) or self.m_delta < 1:
            raise GridError(f"m_delta must be an integer >= 1, got {self.m_delta!r}")

    @property
    def m(self) -> float:
        return self.m_delta * self.delta

    @property
    def n_states(self) -> int:
        return self.m_delta + 1 if self.zero_state else self.m_delta

    def edges(self) -> np.ndarray:
        """Grid points 0, delta, ..., m (length m_delta + 1)."""
        return np.arange(self.m_delta + 1) * self.delta

    def states(self) -> np.ndarray:
        """Chain state indices (0..m_delta with a zero state, else 1..m_delta)."""
        start = 0 if self.zero_state else 1
        return np.arange(start, self.m_delta + 1)


@dataclass(eq=False)
class LiftedDistribution:
    """Atom at 0 plus uniform mass on each grid interval ((i-1)d, i*d]."""

    grid: Grid
    atom0: float
    interval_mass: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.interval_mass, dtype=float)
        if w.shape != (self.grid.m_delta,):
            raise GridError("interval_mass must have one entry per grid interval")
        if self.atom0 < -1e-12 or np.any(w < -1e-12):
            raise ValueError("negative mass")
        if not self.grid.zero_state and self.atom0 != 0.0:
            raise GridError("grid without zero state cannot carry an atom at 0")
        total = self.atom0 + w.sum()
        if not abs(total - 1.0) <= _MASS_TOL:
            raise ValueError(f"total mass is {total!r}, expected 1")
        self.interval_mass = w

    def cdf(self, x):
        """Right-continuous CDF value(s) at x."""
        return self._step_linear_cdf().right_at(x)

    def threshold_mass(self, x: float) -> float:
        """Exact mass of (x, inf); 1 for x < 0, 0 for x >= m."""
        if not _is_finite_real(x):
            raise ValueError(f"threshold must be a finite number, got {x!r}")
        if x < 0.0:
            return 1.0
        return float(max(0.0, 1.0 - self.cdf(x)))

    def mean(self) -> float:
        mids = (np.arange(self.grid.m_delta) + 0.5) * self.grid.delta
        return float(np.einsum("i,i", self.interval_mass, mids))

    def densities(self) -> np.ndarray:
        return self.interval_mass / self.grid.delta

    def _step_linear_cdf(self) -> "_StepLinearCdf":
        edges = self.grid.edges()
        cum = np.empty(self.grid.m_delta + 1)
        cum[0] = 0.0
        np.cumsum(self.interval_mass, out=cum[1:])
        cum += self.atom0
        y_left = cum.copy()
        y_left[0] = 0.0  # jump of size atom0 at x = 0
        return _StepLinearCdf(edges, y_left, cum)


@dataclass(eq=False)
class GeneralMeasure:
    """Finite mixture of point atoms and uniform pieces on [0, inf)."""

    atoms: list = field(default_factory=list)  # (location, mass)
    pieces: list = field(default_factory=list)  # (a, b, mass), uniform on [a, b]

    def __post_init__(self):
        atoms = [(float(x), float(w)) for x, w in self.atoms]
        pieces = [(float(a), float(b), float(w)) for a, b, w in self.pieces]
        for x, w in atoms:
            if not (math.isfinite(x) and x >= 0):
                raise ValueError(f"atom locations must be finite and >= 0, got {x!r}")
            if w < 0:
                raise ValueError("negative atom mass")
        for a, b, w in pieces:
            if not (0 <= a < b and math.isfinite(b)):
                raise ValueError(f"invalid uniform piece [{a}, {b}]")
            if w < 0:
                raise ValueError("negative piece mass")
        total = sum(w for _, w in atoms) + sum(w for _, _, w in pieces)
        if not abs(total - 1.0) <= _MASS_TOL:
            raise ValueError(f"total mass is {total!r}, expected 1")
        self.atoms = atoms
        self.pieces = pieces

    # -- constructors --------------------------------------------------------

    @classmethod
    def dirac(cls, x: float) -> "GeneralMeasure":
        return cls(atoms=[(x, 1.0)])

    @classmethod
    def uniform(cls, a: float, b: float) -> "GeneralMeasure":
        return cls(pieces=[(a, b, 1.0)])

    # -- queries --------------------------------------------------------------

    @property
    def support_max(self) -> float:
        hi = 0.0
        if self.atoms:
            hi = max(hi, max(x for x, _ in self.atoms))
        if self.pieces:
            hi = max(hi, max(b for _, b, _ in self.pieces))
        return hi

    def mass_at_zero(self) -> float:
        return sum(w for x, w in self.atoms if x == 0.0)

    def cdf(self, x):
        """Right-continuous CDF at x (scalar or array)."""
        return self._step_linear_cdf().right_at(x)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        locs = np.array([x for x, _ in self.atoms] + [0.0] * len(self.pieces))
        weights = np.array(
            [w for _, w in self.atoms] + [w for _, _, w in self.pieces]
        )
        weights = weights / weights.sum()
        idx = rng.choice(len(weights), size=n, p=weights)
        out = locs[idx]
        for j, (a, b, _) in enumerate(self.pieces):
            sel = idx == len(self.atoms) + j
            cnt = int(sel.sum())
            if cnt:
                out[sel] = rng.uniform(a, b, cnt)
        return out

    def _step_linear_cdf(self) -> "_StepLinearCdf":
        atom_x = np.array([x for x, _ in self.atoms])
        atom_w = np.array([w for _, w in self.atoms])
        order = np.argsort(atom_x)
        atom_cum = np.concatenate([[0.0], np.cumsum(atom_w[order])])
        ends = [e for a, b, _ in self.pieces for e in (a, b)]
        xs = _merged_breakpoints(atom_x, ends)

        def eval_cdf(side):
            # mass of the atoms left of (or at) each breakpoint, plus the pieces
            out = atom_cum[np.searchsorted(atom_x[order], xs, side=side)]
            for a, b, w in self.pieces:
                out += w * np.clip((xs - a) / (b - a), 0.0, 1.0)
            return out

        return _StepLinearCdf(xs, eval_cdf("left"), eval_cdf("right"))


class _StepLinearCdf:
    """Right-continuous CDF that is linear between breakpoints with jumps at them.

    ``y_right[k]`` is F(xs[k]) and ``y_left[k]`` the left limit; between
    xs[k] and xs[k+1] the CDF interpolates linearly from y_right[k] to
    y_left[k+1].  Before xs[0] the CDF is 0, after xs[-1] it is y_right[-1].
    """

    __slots__ = ("xs", "y_left", "y_right")

    def __init__(self, xs, y_left, y_right):
        self.xs = np.asarray(xs, dtype=float)
        self.y_left = np.asarray(y_left, dtype=float)
        self.y_right = np.asarray(y_right, dtype=float)

    def right_at(self, q):
        return self._interp(q, "right")

    def left_at(self, q):
        return self._interp(q, "left")

    def on_segments(self, xs):
        """F at each segment start xs[:-1] and its left limit at each end xs[1:]."""
        return self.right_at(xs[:-1]), self.left_at(xs[1:])

    def _interp(self, q, side):
        def interp(x):
            flat = np.reshape(x, -1)
            out = np.empty(len(flat))
            for s in work_slices(len(flat)):
                self._interp_into(flat[s], side, out[s])
            return out.reshape(np.shape(x))

        return _on_half_line(interp, q, 0.0, float(self.y_right[-1]))

    def _interp_into(self, q, side, out):
        k = np.searchsorted(self.xs, q, side=side) - 1
        n = len(self.xs)
        kc = np.clip(k, 0, n - 1)
        below = k < 0
        last = kc == n - 1
        mid = ~below & ~last
        out[below] = 0.0
        out[last & ~below] = self.y_right[-1]
        if np.any(mid):
            km = kc[mid]
            x0 = self.xs[km]
            x1 = self.xs[km + 1]
            f0 = self.y_right[km]
            f1 = self.y_left[km + 1]
            out[mid] = f0 + (f1 - f0) * (q[mid] - x0) / (x1 - x0)


def _to_step_linear(m) -> _StepLinearCdf:
    if isinstance(m, (LiftedDistribution, GeneralMeasure)):
        return m._step_linear_cdf()
    raise TypeError(f"cannot interpret {type(m).__name__} as a measure")


def wasserstein(a, b) -> float:
    """Exact order-1 Wasserstein distance between two measures on [0, inf).

    Computed as the integral of |F_a - F_b|: both CDFs are evaluated at their
    merged breakpoints, between which the integrand is linear, and every
    segment is integrated exactly.
    """
    fa = _to_step_linear(a)
    fb = _to_step_linear(b)
    xs = _merged_breakpoints(fa.xs, fb.xs)
    seg = np.empty(len(xs) - 1)
    for s in work_slices(len(seg)):
        x = xs[s.start : s.stop + 1]
        (a_start, a_end), (b_start, b_end) = fa.on_segments(x), fb.on_segments(x)
        seg[s] = _abs_linear_integrals(np.diff(x), a_start - b_start, a_end - b_end)
    return float(seg.sum())


def empirical_distance(values: np.ndarray, m) -> Callable[[np.ndarray], float]:
    """Exact W1 from m to empirical measures on the sorted distinct ``values``.

    Returns a function of a count vector over ``values``.  Segments below
    and above every value are integrated once here, where the empirical CDF
    is 0 or 1 whatever the counts; a call integrates the segments in between
    with one cumsum, one gather and one dot, plus an exact correction where
    the two CDFs cross.  Its buffers are allocated once here.
    """
    # On a middle segment the empirical CDF is a constant F and m runs
    # linearly from m_s to m_e.  |F - m| integrates to |2F - m_s - m_e| L/2
    # unless m_s < F < m_e, i.e. |2F - m_s - m_e| < m_e - m_s; there the
    # integral is ((F - m_s)^2 + (m_e - F)^2) / (m_e - m_s) L/2, which
    # exceeds the first form by (m_e - m_s - |2F - m_s - m_e|)^2 /
    # (2 (m_e - m_s)) L/2.
    fm = _to_step_linear(m)
    xs = _merged_breakpoints(values, fm.xs)
    m_start, m_end = fm.on_segments(xs)
    length = np.diff(xs)
    # segments [0, lo) lie below every sample, segments [hi, ...) above them
    lo, hi = (int(i) for i in np.searchsorted(xs, (values[0], values[-1])))
    tails = 0.0
    for s, f in ((slice(0, lo), 0.0), (slice(hi, len(length)), 1.0)):
        tails += _abs_linear_integrals(length[s], f - m_start[s], f - m_end[s]).sum()
    at = np.searchsorted(values, xs[lo:hi], side="right")
    half = length[lo:hi] * 0.5
    m_start, m_end = m_start[lo:hi].copy(), m_end[lo:hi].copy()
    m_rise = m_end - m_start
    del xs, length  # the tails' arrays go before the call buffers come
    cum = np.zeros(len(values) + 1)  # integer counts, exact in float64
    g, crossing = np.empty(len(at)), np.empty(len(at), dtype=bool)

    def distance(counts: np.ndarray) -> float:
        np.cumsum(counts, out=cum[1:])
        np.divide(cum.take(at, out=g), 0.5 * cum[-1], out=g)  # 2F, exactly twice F
        np.subtract(g, m_start, out=g)
        np.abs(np.subtract(g, m_end, out=g), out=g)
        total = tails + np.einsum("i,i", g, half)
        k = np.flatnonzero(np.less(g, m_rise, out=crossing))
        if len(k):
            rise = m_rise[k]
            total += np.einsum("i,i", np.square(rise - g[k]) / (2.0 * rise), half[k])
        return float(total)

    return distance


def _abs_linear_integrals(length, d_start, d_end) -> np.ndarray:
    """Exact integral of |g| over each segment on which g is linear.

    g runs from ``d_start`` to ``d_end`` over a segment of ``length``; a
    segment whose end values differ in sign is split at its root, which
    gives (d_start^2 + d_end^2) / (|d_start| + |d_end|) * length / 2.
    """
    den = np.abs(d_start) + np.abs(d_end)
    den[den <= 0.0] = 1.0  # both ends 0: the first branch applies
    with np.errstate(invalid="ignore", divide="ignore"):
        crossing = (np.square(d_start) + np.square(d_end)) / den
    same_sign = d_start * d_end >= 0.0
    return np.where(same_sign, np.abs(d_start + d_end), crossing) * 0.5 * length
