"""Transition matrices of the discretized queues.

Both process classes lead to a matrix P = Pcheck + D where Pcheck captures
"no jump" (a deterministic shift by one state) plus "exactly one jump"
(window integrals of the job-size CDF), and the diagonal D restores row
stochasticity by keeping the ignored mass (two or more jumps, jumps cut off
by the truncation) in place.

The one-jump window integrals depend only on the index difference for
generic rows (M/G/1 rows i >= 2) respectively generic columns (spectrally
negative columns j >= 2).  Kernels are therefore stored as a Toeplitz band
plus one explicit special row or column, never densely: the finest
configuration this package targets has tens of thousands of states, where a
dense matrix would be both too large and too slow.  A dense reconstruction
exists for small grids, used by tests and the `matrix` CLI subcommand.

One chain step multiplies the Toeplitz part by a single real FFT pair.  The
band's spectrum is computed once, when the kernel is built, at the smallest
5-smooth length (2^a 3^b 5^c) that holds the full linear convolution; each
step transforms the distribution, multiplies and transforms back.  Every
grid size takes this one path.

Window integrals are second differences of the CDF prefix integral
J(x) = int_0^x F_B: int_{k d}^{(k+1) d} (F_B(s + d) - F_B(s)) ds
= J((k+2)d) - 2 J((k+1)d) + J(k d), with J clamped to 0 on the negative
axis.  J is convex, so these are nonnegative up to rounding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, GridError
from .jobsize import JobSize
from .measure import Grid, _is_finite_real, grid_values, work_slices

__all__ = [
    "ModelKind",
    "ModelSpec",
    "TransitionKernel",
    "build_kernel",
    "build_mg1",
    "build_specneg",
    "rescale_for_speed",
]


class ModelKind(str, enum.Enum):
    MG1 = "mg1"
    SPECTRALLY_NEGATIVE = "spectrally_negative"


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Process parameters: arrival rate, job-size law, and the process class.

    The deterministic service/drift speed is fixed at 1 (see
    :func:`rescale_for_speed` for other speeds).  Both classes reflect at 0:
    the M/G/1 workload idles there, and spectrally negative input is stopped
    at 0 and leaves it again with the drift.
    """

    kind: ModelKind
    lam: float
    job: JobSize

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))  # accepts "mg1"
        if not (_is_finite_real(self.lam) and self.lam > 0.0):  # NaN, inf, bool, str
            raise ValueError(
                f"arrival rate must be a positive finite number, got {self.lam!r}"
            )

    def grid_for(self, delta: float, m_delta: int) -> Grid:
        """Grid with the zero-state convention matching this model."""
        return Grid(delta, m_delta, zero_state=self.kind is ModelKind.MG1)


def rescale_for_speed(spec: ModelSpec, r: float) -> tuple[ModelSpec, float]:
    """Normalize a model with service/drift speed r != 1 to unit speed.

    Returns (unit-speed spec, scale): job sizes are divided by r and the
    state space shrinks by the same factor, so solve the returned spec on a
    grid with delta/r and multiply reported workloads (densities' support,
    Wasserstein bounds) by ``scale`` to map back.
    """
    if not (_is_finite_real(r) and r > 0):  # NaN, inf, bool
        raise ValueError("speed must be positive and finite")
    return ModelSpec(spec.kind, spec.lam, spec.job.scaled(1.0 / r)), r


@dataclass(eq=False)
class TransitionKernel:
    """Structured storage of P = Pcheck + D.

    ``toeplitz[k + 1]`` holds the generic-row entry at offset k = j - i
    (M/G/1, rows i >= 2) or k = i - j (spectrally negative, columns j >= 2);
    ``toeplitz[0]``, offset -1, carries the no-jump shift.  M/G/1 state 1's
    row and the spectrally negative column j = 1 are stored densely; M/G/1
    state 0 reads the band.  ``diag`` holds D(i, i) >= 0 per state.  Every
    entry is a closed-form integral of the job-size CDF, exact up to rounding.

    At construction the band's real FFT is cached: ``nfft`` is the smallest
    5-smooth length >= len(body) + len(band) - 1, where the body is p[2:]
    (M/G/1) or all n states (spectrally negative) and the band is
    ``toeplitz`` (M/G/1) or ``toeplitz[::-1]`` (spectrally negative).  Each
    :meth:`apply` then costs one rfft/irfft pair of that length.
    """

    grid: Grid
    kind: ModelKind
    toeplitz: np.ndarray
    diag: np.ndarray
    row1: np.ndarray | None = None
    col1: np.ndarray | None = None
    nfft: int = field(init=False)
    _band_fft: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.grid.m_delta
        if self.kind is ModelKind.MG1:
            body_len, band = n - 1, self.toeplitz
        else:
            body_len, band = n, self.toeplitz[::-1]
        self.nfft = _fft_len(body_len + len(band) - 1)
        self._band_fft = np.fft.rfft(band, self.nfft)

    # -- application ---------------------------------------------------------

    def apply(self, p: np.ndarray) -> np.ndarray:
        """One chain step: p -> p P, exploiting the Toeplitz band."""
        if p.shape != (self.grid.n_states,):
            raise GridError(f"state vector has shape {p.shape}, grid has {self.grid.n_states}")
        if self.kind is ModelKind.MG1:
            out = self._apply_mg1(p)
        else:
            out = self._apply_specneg(p)
        out[out < 0.0] = 0.0  # convolution rounding noise
        return out

    def _convolve(self, x: np.ndarray, length: int) -> np.ndarray:
        """First ``length`` entries of the linear convolution of x with the band."""
        spec = np.fft.rfft(x, self.nfft) * self._band_fft
        return np.fft.irfft(spec, self.nfft)[:length]

    def _apply_mg1(self, p: np.ndarray) -> np.ndarray:
        n = self.grid.m_delta
        head = p[0] * self.toeplitz  # state 0 reads the band
        out = p[1] * self.row1
        out[: len(head)] += head
        q = p[2:]
        if len(q):
            # c[j - 1] = sum_i p[i] t[j - i] for the rows i >= 2
            take = min(n, len(q) + len(self.toeplitz) - 1)
            out[1 : 1 + take] += self._convolve(q, take)
        out += p * self.diag
        return out

    def _apply_specneg(self, p: np.ndarray) -> np.ndarray:
        n = self.grid.m_delta
        out = np.zeros(n)
        out[0] = float(np.einsum("i,i", p, self.col1))  # not BLAS's threaded dot
        # states j >= 2 sit at c[L - 1 + (j - 2)], L = len(toeplitz)
        L = len(self.toeplitz)
        out[1:] += self._convolve(p, L - 1 + (n - 1))[L - 1 :]
        return out + p * self.diag

    # -- dense reconstruction --------------------------------------------------

    def row(self, i: int) -> np.ndarray:
        """Reconstruct row i of P (state index, not array index)."""
        n, band = self.grid.m_delta, self.toeplitz
        if self.kind is ModelKind.MG1:
            if i == 1:
                r = self.row1.copy()
            else:
                # states 0 and i >= 2: the band starts at column i - 1 (0 for i = 0)
                r = np.zeros(n + 1)
                start = max(i, 1) - 1
                r[start : start + len(band)] = band[: n + 1 - start]
            r[i] += self.diag[i]
            return r
        # spectrally negative: state i sits at array index i - 1
        r = np.zeros(n)
        a = i - 1
        r[0] = self.col1[a]
        j = np.arange(max(2, i + 2 - len(band)), min(n, i + 1) + 1)
        r[j - 1] = band[i + 1 - j]  # columns j >= 2
        r[a] += self.diag[a]
        return r

    def dense(self) -> np.ndarray:
        states = self.grid.states()
        return np.stack([self.row(int(i)) for i in states])


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _window_integrals(job: JobSize, delta: float, k_min: int, k_max: int):
    """t_int[k] = int_{k d}^{(k+1) d} (F_B(s + d) - F_B(s)) ds for k_min..k_max.

    These are second differences of the prefix integral; tiny negative
    rounding is clipped (J is convex, so the true values are nonnegative).
    """
    t_int = np.diff(grid_values(job.prefix_cdf, delta, k_min, k_max + 2), 2)
    np.maximum(t_int, 0.0, out=t_int)
    # F flat across the whole window means the integrand is identically
    # zero there; zero those entries to kill cancellation dust in the
    # second differences (keeps the band genuinely banded)
    f_edges = grid_values(job.cdf, delta, k_min, k_max + 2)
    t_int[f_edges[2:] == f_edges[:-2]] = 0.0
    return t_int


def build_mg1(spec: ModelSpec, grid: Grid) -> TransitionKernel:
    """Kernel of the discretized M/G/1 workload process.

    Generic rows (i >= 2): Pcheck(i, j) = e^{-lam d} (1{j = i-1}
    + lam * t_int[j - i]).  Row 0 is the generic row at i = 1 (workload
    exactly 0 shifts its windows one interval up); row 1 averages over the
    uniformly distributed idle time, which turns the window integral into a
    convolution with a triangle weight.
    """
    if spec.kind is not ModelKind.MG1:
        raise ValueError("spec is not an M/G/1 model")
    if not grid.zero_state:
        raise GridError("the M/G/1 chain needs the zero state")
    lam, d, n = spec.lam, grid.delta, grid.m_delta
    enl = float(np.exp(-lam * d))

    t_int = _window_integrals(spec.job, d, -1, n)
    row0 = t_int[: n + 1]  # window ((j-1)d, j d) = t_int[j - 1]
    row0 *= enl * lam
    row0[0] += enl  # no-jump shift
    # a generic row i >= 2 has row 0's entries at the offsets k = j - i
    toeplitz = _trim_band(row0)  # k = -1 .. n - 1

    row1 = _row1_windows(spec.job, d, n)
    row1 *= enl * (2.0 * lam / d)
    row1[0] += enl

    diag = np.empty(n + 1)
    diag[0] = 1.0 - row0.sum()
    diag[1] = 1.0 - row1.sum()
    csum = np.cumsum(toeplitz)
    # row i >= 2 covers offsets k = -1 .. n - i; entries past the band are 0
    for s in work_slices(n - 1):
        i = np.arange(2 + s.start, 2 + s.stop)
        diag[i] = 1.0 - csum[np.minimum(n - i + 1, len(csum) - 1)]
    _check_diag(diag)
    return TransitionKernel(
        grid=grid,
        kind=ModelKind.MG1,
        toeplitz=toeplitz,
        diag=diag,
        row1=row1,
    )


def _row1_windows(job: JobSize, d: float, n: int) -> np.ndarray:
    """Triangle-weighted windows of the M/G/1 row 1.

    Entry j is int_{(j-1)d}^{jd} (jd - s)(F(s+d) - F(s)) ds, j = 0..n,
    clipped at 0.
    """
    w = np.empty(n + 1)
    J = grid_values(job.prefix_cdf, d, -1, n + 1)
    K = grid_values(job.prefix_x_cdf, d, -1, n + 1)
    # prefix integrals: J[j + o] and K[j + o] are taken at (j - 1 + o) d
    for s in work_slices(n + 1):
        j0, j1, j2 = (slice(s.start + o, s.stop + o) for o in range(3))
        c = np.arange(s.start, s.stop) * d
        upper = (c + d) * (J[j2] - J[j1]) - (K[j2] - K[j1])
        lower = c * (J[j1] - J[j0]) - (K[j1] - K[j0])
        w[s] = upper - lower
    f_edges = grid_values(job.cdf, d, -1, n + 1)
    w[f_edges[2:] == f_edges[:-2]] = 0.0
    np.maximum(w, 0.0, out=w)
    return w


def build_specneg(spec: ModelSpec, grid: Grid) -> TransitionKernel:
    """Kernel of the discretized spectrally negative queue.

    Columns j >= 2 are Toeplitz in k = i - j; column j = 1 collects all
    one-jump paths ending in [0, d], including those stopped at 0:
    Pcheck(i, 1) = e^{-lam d} lam (d - int_{(i-1)d}^{id} F_B).  The chain
    has no state 0: a path stopped at 0 leaves it at once with the positive
    drift, so its end lies in [0, d] and it is counted in state 1.
    """
    if spec.kind is not ModelKind.SPECTRALLY_NEGATIVE:
        raise ValueError("spec is not a spectrally negative model")
    if grid.zero_state:
        raise GridError("the spectrally negative chain has no zero state")
    lam, d, n = spec.lam, grid.delta, grid.m_delta
    enl = float(np.exp(-lam * d))

    t_int = _window_integrals(spec.job, d, -1, max(n - 2, -1))
    toeplitz = enl * lam * t_int  # k = -1 .. n - 2
    toeplitz[0] += enl  # upward shift j = i + 1
    toeplitz = _trim_band(toeplitz)

    ii = np.arange(1, n + 1)
    J = grid_values(spec.job.prefix_cdf, d, 0, n)
    col1 = enl * lam * (d - np.diff(J))
    np.maximum(col1, 0.0, out=col1)

    csum = np.cumsum(toeplitz)
    # offsets k = max(-1, i - n) .. i - 2 exist for columns j in [2, n];
    # the topmost row has no j = i + 1, its k = -1 mass stays in place
    # (for n = 1 that leaves csum[0] - toeplitz[0] = 0)
    moved = csum[np.minimum(ii - 1, len(csum) - 1)]
    moved[-1] -= toeplitz[0]
    diag = 1.0 - col1 - moved
    _check_diag(diag)
    return TransitionKernel(
        grid=grid,
        kind=ModelKind.SPECTRALLY_NEGATIVE,
        toeplitz=toeplitz,
        diag=diag,
        col1=col1,
    )


def _fft_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n (1 for n <= 1)."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-n // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def _trim_band(t: np.ndarray) -> np.ndarray:
    """Drop the exactly-zero tail (support exhausted); never thresholds."""
    nz = np.nonzero(t)[0]
    if len(nz) == 0:
        return t[:1].copy()
    return t[: nz[-1] + 1].copy()


def _check_diag(diag: np.ndarray) -> None:
    if np.any(diag < -1e-12):
        raise CertificationError(
            f"row sums exceed 1 by more than rounding allows (min diag {diag.min()!r})"
        )
    np.maximum(diag, 0.0, out=diag)


def build_kernel(spec: ModelSpec, grid: Grid) -> TransitionKernel:
    if spec.kind is ModelKind.MG1:
        return build_mg1(spec, grid)
    return build_specneg(spec, grid)
