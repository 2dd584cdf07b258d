"""Job-size distribution families and their exact integral primitives.

Every transition-matrix entry and every certified error component in this
package reduces to a handful of integrals of the job-size CDF F:

* ``cdf_integral(a, b)``        -- int_a^b F(s) ds
* ``weighted_cdf_diff_integral``-- int_a^b (c - s) (F(s + delta) - F(s)) ds
* ``mean`` / ``tail_mean(a)``   -- E[B] and int_(a, inf) x dF(x)

The built-in families (uniform, exponential, Erlang, Pareto, deterministic,
tabulated) implement everything in closed form, so they contribute zero
numerical slack to the certified bound.  ``CustomCdf`` wraps an arbitrary
user-supplied CDF callable and falls back to bracketing quadrature: every
integral comes with a rigorous error bound (derived from monotonicity of the
CDF, no derivative estimates involved), which callers must feed into the
bound ledger.

Conventions: the support is contained in [0, inf), F(x) = 0 for all x < 0,
and the prefix integrals J(x) = int_0^x F and K(x) = int_0^x s F(s) ds
clamp their argument at 0.

All instances are immutable after construction and all methods are pure, so
values may be shared freely between threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "JobSize",
    "Uniform",
    "Exponential",
    "Erlang",
    "Pareto",
    "Deterministic",
    "TabulatedCdf",
    "CustomCdf",
]


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _scalarize(out, x):
    """Return a python float when the input was scalar."""
    if np.ndim(x) == 0:
        return float(out)
    return out


class JobSize:
    """Base class for job/claim size distributions.

    Subclasses with ``exact = True`` provide closed-form prefix integrals
    ``_J`` (of F) and ``_K`` (of s*F); the generic integral operations below
    are built from those and are exact up to floating-point rounding.
    Subclasses with ``exact = False`` must override the ``*_with_error``
    operations instead.
    """

    exact: bool = True

    # -- family-specific primitives (exact families) -----------------------

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

    def cdf_integral(self, a: float, b: float) -> float:
        """int_a^b F(s) ds (treating F(s) = 0 for s < 0).

        Raises ValueError for reversed bounds.
        """
        value, _ = self.cdf_integral_with_error(a, b)
        return value

    def cdf_integral_with_error(self, a: float, b: float) -> tuple[float, float]:
        """Like :meth:`cdf_integral` but returns (value, rigorous_error)."""
        if b < a:
            raise ValueError(f"reversed integration bounds: [{a}, {b}]")
        return float(self.prefix_cdf(b) - self.prefix_cdf(a)), 0.0

    def weighted_cdf_diff_integral(
        self, delta: float, a: float, b: float, c: float
    ) -> tuple[float, float]:
        """int_a^b (c - s) (F(s + delta) - F(s)) ds, as (value, rigorous_error).

        This is the convolution of the CDF increment with a linear weight that
        shows up when averaging over a uniformly distributed idle time.
        """
        if b < a:
            raise ValueError(f"reversed integration bounds: [{a}, {b}]")
        J = self.prefix_cdf
        K = self.prefix_x_cdf
        # split into the two plain integrals, substituting u = s + delta
        upper = (c + delta) * (J(b + delta) - J(a + delta)) - (
            K(b + delta) - K(a + delta)
        )
        lower = c * (J(b) - J(a)) - (K(b) - K(a))
        return float(upper - lower), 0.0

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
        if not self.rate > 0.0:  # a NaN rate fails too
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
        if self.shape < 1 or int(self.shape) != self.shape:
            raise ValueError("shape must be a positive integer")
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
    cdf_values[i-1] sits at each knot.  All integrals are exact sums, so
    tabulated CDFs contribute no quadrature slack.
    """

    xs: np.ndarray
    cdf_values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        fs = np.asarray(self.cdf_values, dtype=float)
        if xs.ndim != 1 or xs.shape != fs.shape or len(xs) == 0:
            raise ValueError("xs and cdf_values must be equal-length 1-D arrays")
        # written so that a NaN knot or CDF value fails every comparison
        if not np.all(np.diff(xs) > 0):
            raise ValueError("xs must be strictly increasing")
        if not xs[0] >= 0:
            raise ValueError("support must lie in [0, inf)")
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
        return float(np.dot(self.xs, self._weights))

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
        return TabulatedCdf(self.xs * factor, self.cdf_values)


# ---------------------------------------------------------------------------
# user-supplied CDF with bracketing quadrature
# ---------------------------------------------------------------------------


def _bracket_monotone(f: Callable[[float], float], a: float, b: float,
                      tol: float, max_splits: int = 20000) -> tuple[float, float]:
    """Integrate a non-decreasing function with a rigorous error bound.

    Returns (value, err) with the true integral guaranteed inside
    [value - err, value + err].  Uses the fact that for monotone f the left
    and right Riemann sums bracket the integral; the interval with the
    largest bracket gap is split until the total gap is below 2 * tol.
    """
    if b <= a:
        return 0.0, 0.0
    fa, fb = f(a), f(b)
    # heap of (-gap, lo, hi, flo, fhi)
    heap = [(-(fb - fa) * (b - a), a, b, fa, fb)]
    total_gap = (fb - fa) * (b - a)
    splits = 0
    while total_gap > 2.0 * tol and splits < max_splits:
        gap, lo, hi, flo, fhi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        total_gap += gap  # gap is negative
        g1 = (fmid - flo) * (mid - lo)
        g2 = (fhi - fmid) * (hi - mid)
        total_gap += g1 + g2
        heapq.heappush(heap, (-g1, lo, mid, flo, fmid))
        heapq.heappush(heap, (-g2, mid, hi, fmid, fhi))
        splits += 1
    lower = 0.0
    upper = 0.0
    for _, lo, hi, flo, fhi in heap:
        lower += flo * (hi - lo)
        upper += fhi * (hi - lo)
    return 0.5 * (lower + upper), 0.5 * (upper - lower)


@dataclass(frozen=True, eq=False)
class CustomCdf(JobSize):
    """Job sizes described only by a CDF callable.

    The callable must be a valid CDF on [0, support_hi]: non-decreasing,
    right-continuous, 0 below 0 and 1 at support_hi.  A finite support bound
    is required so that tail means stay computable.  Integrals are evaluated
    by bracketing quadrature; the rigorous error of each evaluation is
    reported to callers and ends up in the certified bound, so results remain
    formally valid (just slightly wider) for user-supplied distributions.
    """

    cdf_fn: Callable[[float], float] = field(repr=False)
    support_hi: float = 0.0
    tol: float = 1e-9

    exact = False

    def __post_init__(self):
        if not np.isfinite(self.support_hi) or self.support_hi <= 0:
            raise ValueError("CustomCdf requires a finite positive support bound")

    @property
    def inf_support(self) -> float:
        return 0.0

    @property
    def sup_support(self) -> float:
        return self.support_hi

    def cdf(self, x):
        xa = _as_float_array(x)
        fn = np.vectorize(self.cdf_fn, otypes=[float])
        out = np.where(
            xa < 0.0, 0.0, np.where(xa >= self.support_hi, 1.0, fn(np.maximum(xa, 0.0)))
        )
        return _scalarize(out, x)

    def _f(self, s: float) -> float:
        if s < 0.0:
            return 0.0
        if s >= self.support_hi:
            return 1.0
        return float(self.cdf_fn(s))

    def cdf_integral_with_error(self, a, b):
        if b < a:
            raise ValueError(f"reversed integration bounds: [{a}, {b}]")
        lo, hi = max(a, 0.0), max(b, 0.0)
        if hi <= lo:
            return 0.0, 0.0
        extra = max(0.0, hi - self.support_hi) - max(0.0, lo - self.support_hi)
        hi2, lo2 = min(hi, self.support_hi), min(lo, self.support_hi)
        value, err = _bracket_monotone(self._f, lo2, hi2, self.tol)
        return value + extra, err

    def weighted_cdf_diff_integral(self, delta, a, b, c):
        if b < a:
            raise ValueError(f"reversed integration bounds: [{a}, {b}]")
        # integrand (c - s) (F(s + delta) - F(s)): enclose both factors per
        # segment using CDF monotonicity, adaptively split the widest gap
        def enclose(lo, hi):
            w_lo, w_hi = c - hi, c - lo
            g_lo = max(0.0, self._f(lo + delta) - self._f(hi))
            g_hi = max(0.0, self._f(hi + delta) - self._f(lo))
            cands = [w_lo * g_lo, w_lo * g_hi, w_hi * g_lo, w_hi * g_hi]
            return min(cands) * (hi - lo), max(cands) * (hi - lo)

        lo_sum, hi_sum = enclose(a, b)
        heap = [(-(hi_sum - lo_sum), a, b)]
        total_gap = hi_sum - lo_sum
        splits = 0
        while total_gap > 2.0 * self.tol and splits < 20000:
            gap, lo, hi = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            l1, h1 = enclose(lo, mid)
            l2, h2 = enclose(mid, hi)
            total_gap += gap + (h1 - l1) + (h2 - l2)
            heapq.heappush(heap, (-(h1 - l1), lo, mid))
            heapq.heappush(heap, (-(h2 - l2), mid, hi))
            splits += 1
        lower = upper = 0.0
        for _, lo, hi in heap:
            l, h = enclose(lo, hi)
            lower += l
            upper += h
        return 0.5 * (lower + upper), 0.5 * (upper - lower)

    def survival_integral_with_error(self, a, b) -> tuple[float, float]:
        """int_a^b (1 - F(s)) ds with rigorous error."""
        if b < a:
            raise ValueError(f"reversed integration bounds: [{a}, {b}]")
        value, err = self.cdf_integral_with_error(a, b)
        return (b - a) - value, err

    def mean(self):
        # certified upper bound: the error components need E[B] from above
        value, err = self.survival_integral_with_error(0.0, self.support_hi)
        return value + err

    def tail_mean(self, a):
        """Certified upper bound on int_(a, inf) x dF(x), at most ``tol`` above it.

        a * (1 - F(a)) plus the survival integral from a to support_hi.  The
        distinct points below support_hi split that range into gaps, each
        bracketed once; a point's integral is the sum of the gaps above it,
        accumulated from the top.  Each gap gets an equal share of ``tol``,
        so a point's summed bracket width stays within ``tol`` however many
        points are asked for.
        """
        aa = np.maximum(_as_float_array(a), 0.0)
        below = aa < self.support_hi
        pts = np.unique(aa[below])
        bounds = np.append(pts, self.support_hi)
        gap_tol = self.tol / (2 * max(len(pts), 1))
        surv = np.empty(len(pts))
        for j in range(len(pts)):
            lo, hi = bounds[j], bounds[j + 1]
            value, err = _bracket_monotone(self._f, lo, hi, gap_tol)
            surv[j] = (hi - lo) - value + err
        upper = np.cumsum(surv[::-1])[::-1]
        head = np.array([p * (1.0 - self._f(p)) for p in pts])
        out = np.zeros(aa.shape)
        out[below] = (head + upper)[np.searchsorted(pts, aa[below])]
        return _scalarize(out, a)

    def sample(self, rng, n):
        raise NotImplementedError(
            "CustomCdf has no exact sampler; use a tabulated or parametric family"
        )

    def scaled(self, factor):
        inner = self.cdf_fn
        return CustomCdf(lambda x: inner(x / factor), self.support_hi * factor, self.tol)
