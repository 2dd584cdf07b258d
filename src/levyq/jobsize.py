"""Job-size distribution families and their exact integral primitives.

Every transition-matrix entry and every certified error component in this
package reduces to a handful of integrals of the job-size CDF F:

* ``prefix_cdf(x)`` / ``prefix_x_cdf(x)`` -- J(x) = int_0^x F and
  K(x) = int_0^x s F(s) ds, which the kernel and the refiner difference
  over whole grids
* ``mean`` / ``tail_mean(a)``   -- E[B] and int_(a, inf) x dF(x)

Every window integral of F that a kernel row or a refined shape needs is a
difference of J and K.  Every family (uniform, exponential, Erlang, Pareto,
deterministic, tabulated) implements these in closed form, so every law
takes one exact kernel and bound path.  A law known only through a CDF
callable is tabulated first (:meth:`TabulatedCdf.from_cdf`): the step CDF
below it is an exact law of its own, and its ``w1_bound`` bounds the
Wasserstein distance between the two laws, which the certified bound
charges once per step.

Conventions: the support is contained in [0, inf), F(x) = 0 for all x < 0,
and the prefix integrals J(x) = int_0^x F and K(x) = int_0^x s F(s) ds
clamp their argument at 0.

All instances are immutable after construction and all methods are pure, so
values may be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import _is_finite_real, _is_int

__all__ = [
    "JobSize",
    "Uniform",
    "Exponential",
    "Erlang",
    "Pareto",
    "Deterministic",
    "TabulatedCdf",
]


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _require_finite(law, *names) -> None:
    """Refuse a parameter that is not a finite real number: NaN, an infinity,
    a bool or a string would otherwise fail mid-run or certify NaN."""
    for name in names:
        value = getattr(law, name)
        if not _is_finite_real(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _scalarize(out, x):
    """Return a python float when the input was scalar."""
    if np.ndim(x) == 0:
        return float(out)
    return out


class JobSize:
    """Base class for job/claim size distributions.

    Subclasses provide closed-form prefix integrals ``_J`` (of F) and ``_K``
    (of s*F); the generic integral operations below are built from those and
    are exact up to floating-point rounding.

    ``w1_bound`` bounds the Wasserstein distance from the law the caller
    meant to this one.  It is 0 for every law given exactly; only
    :meth:`TabulatedCdf.from_cdf` sets it, and ``scaled`` scales it.
    """

    w1_bound: float = 0.0

    # -- family-specific primitives ------------------------------------------

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _J(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _K(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def inf_support(self) -> float:
        raise NotImplementedError

    @property
    def sup_support(self) -> float:
        raise NotImplementedError

    # -- generic operations -------------------------------------------------

    def cdf(self, x):
        """F(x), defined on all of R (0 below the support)."""
        xa = _as_float_array(x)
        out = np.where(xa < 0.0, 0.0, self._cdf(np.maximum(xa, 0.0)))
        return _scalarize(out, x)

    def prefix_cdf(self, x):
        """J(x) = int_0^x F(s) ds, clamped to 0 for x <= 0."""
        xa = _as_float_array(x)
        out = np.where(xa <= 0.0, 0.0, self._J(np.maximum(xa, 0.0)))
        return _scalarize(out, x)

    def prefix_x_cdf(self, x):
        """K(x) = int_0^x s F(s) ds, clamped to 0 for x <= 0."""
        xa = _as_float_array(x)
        out = np.where(xa <= 0.0, 0.0, self._K(np.maximum(xa, 0.0)))
        return _scalarize(out, x)

    def mean(self) -> float | None:
        """E[B], or None when the first moment does not exist."""
        raise NotImplementedError

    def tail_mean(self, a):
        """int_(a, inf) x dF(x); None iff the mean is undefined.

        Accepts scalars or arrays (``a >= 0``).
        """
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n iid samples (exact, inverse-CDF or compositional)."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "JobSize":
        """Distribution of B * factor (used for service-speed normalization)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform(JobSize):
    """Uniform job sizes on [lo, hi], 0 <= lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        _require_finite(self, "lo", "hi")
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def inf_support(self) -> float:
        return self.lo

    @property
    def sup_support(self) -> float:
        return self.hi

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _J(self, x):
        u = np.clip(x, self.lo, self.hi)
        return (u - self.lo) ** 2 / (2.0 * (self.hi - self.lo)) + np.maximum(
            x - self.hi, 0.0
        )

    def _K(self, x):
        lo, hi = self.lo, self.hi
        w = np.clip(x, lo, hi) - lo
        inside = (lo * w**2 / 2.0 + w**3 / 3.0) / (hi - lo)
        above = np.where(x > hi, (x**2 - hi**2) / 2.0, 0.0)
        return inside + above

    def mean(self):
        return (self.lo + self.hi) / 2.0

    def tail_mean(self, a):
        aa = np.maximum(_as_float_array(a), 0.0)
        u = np.clip(aa, self.lo, self.hi)
        out = (self.hi**2 - u**2) / (2.0 * (self.hi - self.lo))
        return _scalarize(out, a)

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, n)

    def scaled(self, factor):
        return Uniform(self.lo * factor, self.hi * factor)


@dataclass(frozen=True)
class Exponential(JobSize):
    """Exponential job sizes with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self):
        _require_finite(self, "rate")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")

    @property
    def inf_support(self) -> float:
        return 0.0

    @property
    def sup_support(self) -> float:
        return np.inf

    def _cdf(self, x):
        return -np.expm1(-self.rate * x)

    def _J(self, x):
        return x + np.expm1(-self.rate * x) / self.rate

    def _K(self, x):
        r = self.rate
        # int_0^x s(1 - e^{-rs}) ds = x^2/2 - (1 - (1 + rx)e^{-rx}) / r^2
        return x**2 / 2.0 - (1.0 - (1.0 + r * x) * np.exp(-r * x)) / r**2

    def mean(self):
        return 1.0 / self.rate

    def tail_mean(self, a):
        aa = np.maximum(_as_float_array(a), 0.0)
        out = (aa + 1.0 / self.rate) * np.exp(-self.rate * aa)
        return _scalarize(out, a)

    def sample(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)

    def scaled(self, factor):
        return Exponential(self.rate / factor)


@dataclass(frozen=True)
class Erlang(JobSize):
    """Erlang job sizes: sum of `shape` iid exponentials with the given rate."""

    shape: int
    rate: float

    def __post_init__(self):
        if not _is_int(self.shape) or self.shape < 1:
            raise ValueError(f"shape must be an integer >= 1, got {self.shape!r}")
        _require_finite(self, "rate")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")

    @property
    def inf_support(self) -> float:
        return 0.0

    @property
    def sup_support(self) -> float:
        return np.inf

    def _stage_cdfs(self, x, n):
        # regularized lower incomplete gamma = Erlang(m, rate) CDF, m = 1..n
        from scipy import special

        out = np.empty((n,) + np.shape(x))
        rx = self.rate * np.asarray(x)
        for m in range(1, n + 1):
            out[m - 1] = special.gammainc(m, rx)
        return out

    def _cdf(self, x):
        from scipy import special

        return special.gammainc(self.shape, self.rate * x)

    def _J(self, x):
        # stages summed in a fixed order, so no value depends on the call size
        return x - sum(self._stage_cdfs(x, self.shape)) / self.rate

    def _K(self, x):
        n, r = self.shape, self.rate
        stages = self._stage_cdfs(x, n + 1)
        # int_0^x s S_n(s) ds = sum_{k<n} (k+1)/r^2 * F_{k+2}(x), summed as in _J
        correction = np.zeros_like(x)
        for k in range(1, n + 1):
            correction += k * stages[k]
        return x**2 / 2.0 - correction / r**2

    def mean(self):
        return self.shape / self.rate

    def tail_mean(self, a):
        from scipy import special

        aa = np.maximum(_as_float_array(a), 0.0)
        out = self.mean() * special.gammaincc(self.shape + 1, self.rate * aa)
        return _scalarize(out, a)

    def sample(self, rng, n):
        # sum of exponentials keeps the draw exact for integer shape
        return rng.exponential(1.0 / self.rate, (n, self.shape)).sum(axis=1)

    def scaled(self, factor):
        return Erlang(self.shape, self.rate / factor)


@dataclass(frozen=True)
class Pareto(JobSize):
    """Pareto job sizes: F(x) = 1 - (x_min / x)^alpha for x >= x_min."""

    x_min: float
    alpha: float

    def __post_init__(self):
        _require_finite(self, "x_min", "alpha")
        if not self.x_min > 0.0:
            raise ValueError("x_min must be positive")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    @property
    def inf_support(self) -> float:
        return self.x_min

    @property
    def sup_support(self) -> float:
        return np.inf

    def _cdf(self, x):
        xm = self.x_min
        with np.errstate(divide="ignore"):
            out = np.where(x >= xm, 1.0 - (xm / np.maximum(x, xm)) ** self.alpha, 0.0)
        return out

    def _J(self, x):
        xm, al = self.x_min, self.alpha
        u = np.maximum(x, xm)
        if al == 1.0:
            tail = xm * np.log(u / xm)
        else:
            tail = xm**al * (u ** (1.0 - al) - xm ** (1.0 - al)) / (1.0 - al)
        return np.where(x > xm, (u - xm) - tail, 0.0)

    def _K(self, x):
        xm, al = self.x_min, self.alpha
        u = np.maximum(x, xm)
        if al == 2.0:
            tail = xm**2 * np.log(u / xm)
        else:
            tail = xm**al * (u ** (2.0 - al) - xm ** (2.0 - al)) / (2.0 - al)
        return np.where(x > xm, (u**2 - xm**2) / 2.0 - tail, 0.0)

    def mean(self):
        if self.alpha <= 1.0:
            return None
        return self.alpha * self.x_min / (self.alpha - 1.0)

    def tail_mean(self, a):
        if self.alpha <= 1.0:
            return None
        xm, al = self.x_min, self.alpha
        aa = np.maximum(_as_float_array(a), 0.0)
        u = np.maximum(aa, xm)
        out = al * xm**al * u ** (1.0 - al) / (al - 1.0)
        return _scalarize(out, a)

    def sample(self, rng, n):
        # inverse CDF: x = x_min * U^{-1/alpha}, U on (0, 1] to stay finite
        u = 1.0 - rng.random(n)
        return self.x_min * u ** (-1.0 / self.alpha)

    def scaled(self, factor):
        return Pareto(self.x_min * factor, self.alpha)


@dataclass(frozen=True)
class Deterministic(JobSize):
    """Every job has exactly the given size (c >= 0)."""

    value: float

    def __post_init__(self):
        _require_finite(self, "value")
        if not self.value >= 0.0:
            raise ValueError("job size must be nonnegative")

    @property
    def inf_support(self) -> float:
        return self.value

    @property
    def sup_support(self) -> float:
        return self.value

    def _cdf(self, x):
        # right-continuous step at the atom
        return (np.asarray(x) >= self.value).astype(float)

    def _J(self, x):
        return np.maximum(x - self.value, 0.0)

    def _K(self, x):
        return np.where(x > self.value, (x**2 - self.value**2) / 2.0, 0.0)

    def mean(self):
        return self.value

    def tail_mean(self, a):
        aa = _as_float_array(a)
        out = np.where(aa < self.value, self.value, 0.0)
        return _scalarize(out, a)

    def sample(self, rng, n):
        return np.full(n, self.value)

    def scaled(self, factor):
        return Deterministic(self.value * factor)


@dataclass(frozen=True, eq=False)
class TabulatedCdf(JobSize):
    """Job sizes given by a tabulated right-continuous step CDF.

    ``xs`` are strictly increasing knot locations (>= 0) and ``cdf_values``
    the CDF values at those knots (non-decreasing, last value 1).  The
    distribution is purely atomic: an atom of mass cdf_values[i] -
    cdf_values[i-1] sits at each knot.  All integrals are exact sums.
    :meth:`from_cdf` tabulates a CDF callable and sets ``w1_bound``.
    """

    xs: np.ndarray
    cdf_values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        fs = np.asarray(self.cdf_values, dtype=float)
        if xs.ndim != 1 or xs.shape != fs.shape or len(xs) == 0:
            raise ValueError("xs and cdf_values must be equal-length 1-D arrays")
        if not np.all(np.isfinite(xs)):
            raise ValueError("xs must be finite")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("xs must be strictly increasing")
        if not xs[0] >= 0:
            raise ValueError("support must lie in [0, inf)")
        # written so that a NaN CDF value fails every comparison
        if not (np.all(np.diff(fs) >= 0) and fs[0] >= 0 and abs(fs[-1] - 1.0) <= 1e-12):
            raise ValueError("cdf_values must be non-decreasing from >= 0 to 1")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "cdf_values", fs)
        # prefix tables at the knots
        widths = np.diff(xs)
        jk = np.concatenate([[0.0], np.cumsum(fs[:-1] * widths)])
        kk = np.concatenate(
            [[0.0], np.cumsum(fs[:-1] * (xs[1:] ** 2 - xs[:-1] ** 2) / 2.0)]
        )
        object.__setattr__(self, "_jk", jk)
        object.__setattr__(self, "_kk", kk)
        w = np.diff(np.concatenate([[0.0], fs]))
        object.__setattr__(self, "_weights", w)

    @classmethod
    def from_cdf(cls, fn, support_hi: float, n_knots: int) -> "TabulatedCdf":
        """The step law below a CDF callable, with its Wasserstein distance.

        ``fn(x)`` takes one float and returns F(x); F must be a CDF on
        [0, support_hi]: non-decreasing, right-continuous and 1 at
        ``support_hi``.  The knots x_k are uniform on [0, support_hi], the
        first 0 and the last ``support_hi``.  Knot k carries F(x_k), the last
        exactly 1, so the right-continuous step CDF G of the table satisfies
        G <= F: the tabulated law B' is stochastically larger than B.  On
        [x_k, x_{k+1}) the gap F - G is at most F(x_{k+1}) - F(x_k), so by
        monotonicity alone

            W1(B, B') = int (F - G) <= sum_k (F(x_{k+1}) - F(x_k)) (x_{k+1} - x_k),

        and that sum, at most support_hi / (n_knots - 1), is ``w1_bound``.

        Why solving for B' and charging lam * delta * w1_bound per step
        certifies B (both model kinds): couple the two queues on the same
        start, arrival times and uniforms U_j, with B_j = F^-1(U_j) <= B'_j =
        G^-1(U_j) (the comonotone coupling).  The free input paths X and X'
        (before the reflection at 0) then differ by D_t = sum_{j <= N_t}
        (B'_j - B_j), which is >= 0 and non-decreasing in t.  The reflected
        path is W = X + L with L_t = max(0, sup_{s <= t} -X_s).  M/G/1: X' =
        X + D, and since 0 <= D_s <= D_t for s <= t, L_t - D_t <= L'_t <=
        L_t, so 0 <= W'_t - W_t <= D_t.  Spectrally negative: X' = X - D, and
        L_t <= L'_t <= L_t + D_t, so -D_t <= W'_t - W_t <= 0.  Either way
        W1(law W_t, law W'_t) <= E[D_t] = lam * t * W1(B, B') (Wald), which
        the per-step charge pays for over the steps up to t.  (It is the
        monotone difference that gives the factor 1: in the sup norm the
        reflection map is only 2-Lipschitz.)

        Raises ValueError for a non-finite or non-positive ``support_hi``,
        fewer than two knots, or values that are not a CDF.
        """
        if not (_is_finite_real(support_hi) and support_hi > 0.0):
            raise ValueError("from_cdf requires a finite positive support bound")
        if not (_is_int(n_knots) and n_knots >= 2):
            raise ValueError(f"n_knots must be an integer >= 2, got {n_knots!r}")
        xs = np.linspace(0.0, support_hi, n_knots)  # the last knot is support_hi
        fs = np.array([fn(x) for x in xs[:-1].tolist()] + [1.0], dtype=float)
        law = cls(xs, fs)
        return law._with_w1_bound(np.einsum("i,i", np.diff(fs), np.diff(xs)))

    def _with_w1_bound(self, w1: float) -> "TabulatedCdf":
        object.__setattr__(self, "w1_bound", float(w1))
        return self

    @property
    def inf_support(self) -> float:
        return float(self.xs[np.argmax(self._weights > 0)])

    @property
    def sup_support(self) -> float:
        return float(self.xs[-1])

    def _segment(self, x):
        return np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 1)

    def _cdf(self, x):
        xa = np.asarray(x)
        k = np.searchsorted(self.xs, xa, side="right") - 1
        return np.where(k < 0, 0.0, self.cdf_values[np.maximum(k, 0)])

    def _J(self, x):
        xa = np.asarray(x)
        k = self._segment(xa)
        below = xa < self.xs[0]
        out = self._jk[k] + self.cdf_values[k] * (xa - self.xs[k])
        return np.where(below, 0.0, out)

    def _K(self, x):
        xa = np.asarray(x)
        k = self._segment(xa)
        below = xa < self.xs[0]
        out = self._kk[k] + self.cdf_values[k] * (xa**2 - self.xs[k] ** 2) / 2.0
        return np.where(below, 0.0, out)

    def mean(self):
        return float(np.einsum("i,i", self.xs, self._weights))

    def tail_mean(self, a):
        aa = _as_float_array(a)
        xw = self.xs * self._weights
        suffix = np.concatenate([np.cumsum(xw[::-1])[::-1], [0.0]])
        idx = np.searchsorted(self.xs, aa, side="right")
        out = suffix[idx]
        return _scalarize(out, a)

    def sample(self, rng, n):
        idx = rng.choice(len(self.xs), size=n, p=self._weights / self._weights.sum())
        return self.xs[idx]

    def scaled(self, factor):
        # W1 scales with the sizes: W1(factor B, factor B') = factor W1(B, B')
        scaled = TabulatedCdf(self.xs * factor, self.cdf_values)
        return scaled._with_w1_bound(self.w1_bound * factor)
