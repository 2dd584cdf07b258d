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


def build_kernel(spec: ModelSpec, grid: Grid) -> TransitionKernel:
    """Kernel of the discretized queue of ``spec`` on ``grid``.

    Generic rows (M/G/1, i >= 2) and columns (spectrally negative, j >= 2)
    hold e^{-lam d} (no-jump shift + lam * t_int[k]) at the offset k = j - i
    (M/G/1) or k = i - j (spectrally negative); the shift moves one state
    down (M/G/1 idles at 0) or up.  M/G/1 state 0 is the generic row at
    i = 1 (workload exactly 0 shifts its windows one interval up); state 1
    averages over the uniformly distributed idle time, which turns the
    window integral into a convolution with a triangle weight.  The
    spectrally negative column j = 1 collects all one-jump paths ending in
    [0, d], including those stopped at 0: Pcheck(i, 1) = e^{-lam d} lam
    (d - int_{(i-1)d}^{id} F_B).  That chain has no state 0: a path stopped
    at 0 leaves it at once with the positive drift, so its end lies in
    [0, d] and it is counted in state 1.

    The law is evaluated once per primitive, at k d for k = -1..n+1 (F, J,
    and K for M/G/1 only); every window is a slice or difference of those
    tables.
    """
    mg1 = spec.kind is ModelKind.MG1
    if grid.zero_state != mg1:
        raise GridError(
            "the M/G/1 chain needs the zero state" if mg1
            else "the spectrally negative chain has no zero state"
        )
    lam, d, n, job = spec.lam, grid.delta, grid.m_delta, spec.job
    enl = float(np.exp(-lam * d))

    # entry k + 1 of each table is taken at k d
    F = grid_values(job.cdf, d, -1, n + 1)
    J = grid_values(job.prefix_cdf, d, -1, n + 1)
    # F flat across window k's two intervals: its integrand is 0 there
    flat = F[2:] == F[:-2]
    t_int = _window_integrals(J, flat)  # k = -1 .. n - 1
    # M/G/1 row 0 has the window ((j-1)d, jd), t_int[j], at column j = 0..n;
    # spectrally negative columns j >= 2 reach the offsets k = -1 .. n - 2
    band = t_int[: n + 1 if mg1 else n]
    band *= enl * lam
    band[0] += enl  # no-jump shift
    toeplitz = _trim_band(band)
    csum = np.cumsum(toeplitz)

    if mg1:
        special = _row1_windows(J, grid_values(job.prefix_x_cdf, d, -1, n + 1), flat, d)
        special *= enl * (2.0 * lam / d)
        special[0] += enl
        diag = np.empty(n + 1)
        diag[0] = 1.0 - band.sum()
        diag[1] = 1.0 - special.sum()
        # row i >= 2 covers offsets k = -1 .. n - i; entries past the band are 0
        for s in work_slices(n - 1):
            i = np.arange(2 + s.start, 2 + s.stop)
            diag[i] = 1.0 - csum[np.minimum(n - i + 1, len(csum) - 1)]
    else:
        special = enl * lam * (d - np.diff(J[1 : n + 2]))  # J at 0 .. n d
        np.maximum(special, 0.0, out=special)
        # offsets k = max(-1, i - n) .. i - 2 exist for columns j in [2, n];
        # the topmost row has no j = i + 1, its k = -1 mass stays in place
        # (for n = 1 that leaves csum[0] - toeplitz[0] = 0)
        moved = csum[np.minimum(np.arange(n), len(csum) - 1)]
        moved[-1] -= toeplitz[0]
        diag = 1.0 - special - moved
    _check_diag(diag)
    return TransitionKernel(
        grid=grid,
        kind=spec.kind,
        toeplitz=toeplitz,
        diag=diag,
        row1=special if mg1 else None,
        col1=None if mg1 else special,
    )


def _window_integrals(J: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """t_int[k + 1] = int_{k d}^{(k+1) d} (F_B(s + d) - F_B(s)) ds from J
    at k d, k = -1..: second differences of J.

    Tiny negative rounding is clipped (J is convex, so the true values are
    nonnegative), and windows where F is ``flat`` are exactly 0, which kills
    cancellation dust (keeps the band genuinely banded).
    """
    t_int = np.diff(J, 2)
    np.maximum(t_int, 0.0, out=t_int)
    t_int[flat] = 0.0
    return t_int


def _row1_windows(J: np.ndarray, K: np.ndarray, flat: np.ndarray, d: float) -> np.ndarray:
    """Triangle-weighted windows of the M/G/1 row 1 from J and K at k d,
    k = -1..n+1.

    Entry j is int_{(j-1)d}^{jd} (jd - s)(F(s+d) - F(s)) ds, j = 0..n,
    clipped at 0 and exactly 0 where F is ``flat``.
    """
    w = np.empty(len(J) - 2)
    # J[j + o] and K[j + o] are taken at (j - 1 + o) d
    for s in work_slices(len(w)):
        j0, j1, j2 = (slice(s.start + o, s.stop + o) for o in range(3))
        c = np.arange(s.start, s.stop) * d
        upper = (c + d) * (J[j2] - J[j1]) - (K[j2] - K[j1])
        lower = c * (J[j1] - J[j0]) - (K[j1] - K[j0])
        w[s] = upper - lower
    w[flat] = 0.0
    np.maximum(w, 0.0, out=w)
    return w


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
