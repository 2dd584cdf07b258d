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

Conventions: the support is contained in [0, inf).  Each family writes its
closed forms for float arrays on [0, inf) only; :class:`JobSize` extends
them to all of R in one place: F, J and K are 0 for x < 0 and the tail mean
is E[B] there, x = +inf gives the limits F = 1, J = K = inf and tail mean 0,
a NaN argument gives NaN, and a scalar argument gives a Python float.
``inf_support`` and ``sup_support`` default to 0 and inf, the conservative
ends; a family overrides them where it knows better.

All instances are immutable after construction and all methods are pure, so
values may be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .measure import _is_finite_real, _is_int, _on_half_line

__all__ = [
    "JobSize",
    "Uniform",
    "Exponential",
    "Erlang",
    "Pareto",
    "Deterministic",
    "TabulatedCdf",
]


def _require_finite(law, *names) -> None:
    """Refuse a parameter that is not a finite real number: NaN, an infinity,
    a bool or a string would otherwise fail mid-run or certify NaN."""
    for name in names:
        value = getattr(law, name)
        if not _is_finite_real(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


class JobSize:
    """Base class for job/claim size distributions.

    Subclasses provide closed forms on [0, inf) for the CDF ``_cdf``, the
    prefix integrals ``_J`` (of F) and ``_K`` (of s*F) and ``_tail_mean``;
    the queries below extend them to every argument and are exact up to
    floating-point rounding.

    ``w1_bound`` bounds the Wasserstein distance from the law the caller
    meant to this one.  It is 0 for every law given exactly; only
    :meth:`TabulatedCdf.from_cdf` sets it, and ``scaled`` scales it.
    """

    w1_bound: float = 0.0
    inf_support: float = 0.0
    sup_support: float = np.inf

    # -- family-specific primitives ------------------------------------------

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _J(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _K(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_mean(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- generic operations -------------------------------------------------

    def cdf(self, x):
        """F(x), defined on all of R (0 below the support)."""
        return _on_half_line(self._cdf, x, 0.0, 1.0)

    def prefix_cdf(self, x):
        """J(x) = int_0^x F(s) ds, 0 for x <= 0."""
        return _on_half_line(self._J, x, 0.0, np.inf)

    def prefix_x_cdf(self, x):
        """K(x) = int_0^x s F(s) ds, 0 for x <= 0."""
        return _on_half_line(self._K, x, 0.0, np.inf)

    def mean(self) -> float | None:
        """E[B], or None when the first moment does not exist."""
        raise NotImplementedError

    def tail_mean(self, a):
        """int_(a, inf) x dF(x), E[B] for a <= 0; None iff the mean is undefined."""
        if self.mean() is None:
            return None
        return _on_half_line(self._tail_mean, a, self._tail_mean(0.0), 0.0)

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

    def _tail_mean(self, a):
        u = np.clip(a, self.lo, self.hi)
        return (self.hi**2 - u**2) / (2.0 * (self.hi - self.lo))

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

    def _tail_mean(self, a):
        return (a + 1.0 / self.rate) * np.exp(-self.rate * a)

    def sample(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)

    def scaled(self, factor):
        return Exponential(self.rate / factor)


def _poisson_tails(lam, lo: int, hi: int):
    """``(up, sides)``: sides[m - lo] is P(N >= m) where up = lam < hi, else
    P(N < m), for N ~ Poisson(lam), m = lo..hi, elementwise.

    Each side is a sum of positive pmf terms, one from log space and the rest
    by ratios, so none cancels or underflows (e^-lam does past lam = 745).
    The sum stops once no later term can change an element, whatever the
    call size.  The other side, 1 minus this one, is at least about 1/2.
    """
    with np.errstate(divide="ignore"):  # log 0 = -inf makes every term 0
        log_lam = np.log(lam)
    up = lam < hi
    k = np.where(up, float(lo), hi - 1.0)  # then k + 1, ... or k - 1, ...
    term = np.exp(k * log_lam - lam - np.where(up, lgamma(lo + 1), lgamma(hi)))
    num, den = np.where(up, lam, k), np.where(up, k + 1.0, lam)  # p_{k+1}/p_k, p_{k-1}/p_k
    num_step, den_step = np.where(up, 0.0, -1.0), np.where(up, 1.0, 0.0)
    stage, rest = [], 0.0  # P(N = m) for lo <= m < hi; P(N >= hi) or P(N < lo)
    while len(stage) < hi - lo or np.any(term > rest * 2.0**-54):
        if len(stage) < hi - lo:
            stage.append(term)
        else:
            rest = rest + term
        term = term * num / den
        num, den = num + num_step, den + den_step
    sides = [rest]  # then P(N >= m) for m = hi..lo, or P(N < m) for m = lo..hi
    for term in reversed(stage):
        sides.append(sides[-1] + term)
    return up, [np.where(up, f, s) for f, s in zip(sides[::-1], sides)]


@dataclass(frozen=True)
class Erlang(JobSize):
    """Erlang job sizes: sum of `shape` iid exponentials with the given rate.

    F = F_n for F_m(x) = P(Poisson(rate x) >= m), n = shape.  By parts, J
    and K are x F_n - mu F_{n+1} and x^2/2 F_n - c F_{n+2} (mu = n / rate,
    c = mu (n + 1) / (2 rate)), written in S_m = 1 - F_m where F_m is near 1.
    """

    shape: int
    rate: float

    def __post_init__(self):
        if not _is_int(self.shape) or self.shape < 1:
            raise ValueError(f"shape must be an integer >= 1, got {self.shape!r}")
        _require_finite(self, "rate")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")

    def _cdf(self, x):
        up, (t,) = _poisson_tails(self.rate * x, self.shape, self.shape)
        return np.where(up, t, 1.0 - t)

    def _J(self, x):
        n, mu = self.shape, self.mean()
        up, (t_n, t_n1) = _poisson_tails(self.rate * x, n, n + 1)
        j = x * t_n - mu * t_n1
        return np.where(up, j, (x - mu) - j)

    def _K(self, x):
        n, c = self.shape, self.mean() * (self.shape + 1) / (2.0 * self.rate)
        up, (t_n, _, t_n2) = _poisson_tails(self.rate * x, n, n + 2)
        k = x**2 / 2.0 * t_n - c * t_n2
        return np.where(up, k, (x**2 / 2.0 - c) - k)

    def mean(self):
        return self.shape / self.rate

    def _tail_mean(self, a):  # mu P(Erlang(n + 1) > a) = mu P(N <= n)
        up, (t,) = _poisson_tails(self.rate * a, self.shape + 1, self.shape + 1)
        return self.mean() * np.where(up, 1.0 - t, t)

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

    def _tail_mean(self, a):
        xm, al = self.x_min, self.alpha
        u = np.maximum(a, xm)
        return al * xm**al * u ** (1.0 - al) / (al - 1.0)

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
        return (x >= self.value).astype(float)

    def _J(self, x):
        return np.maximum(x - self.value, 0.0)

    def _K(self, x):
        return np.where(x > self.value, (x**2 - self.value**2) / 2.0, 0.0)

    def mean(self):
        return self.value

    def _tail_mean(self, a):
        return np.where(a < self.value, self.value, 0.0)

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
        k = np.searchsorted(self.xs, x, side="right") - 1
        return np.where(k < 0, 0.0, self.cdf_values[np.maximum(k, 0)])

    def _J(self, x):
        k = self._segment(x)
        below = x < self.xs[0]
        out = self._jk[k] + self.cdf_values[k] * (x - self.xs[k])
        return np.where(below, 0.0, out)

    def _K(self, x):
        k = self._segment(x)
        below = x < self.xs[0]
        out = self._kk[k] + self.cdf_values[k] * (x**2 - self.xs[k] ** 2) / 2.0
        return np.where(below, 0.0, out)

    def mean(self):
        return float(np.einsum("i,i", self.xs, self._weights))

    def _tail_mean(self, a):
        xw = self.xs * self._weights
        suffix = np.concatenate([np.cumsum(xw[::-1])[::-1], [0.0]])
        idx = np.searchsorted(self.xs, a, side="right")
        return suffix[idx]

    def sample(self, rng, n):
        idx = rng.choice(len(self.xs), size=n, p=self._weights / self._weights.sum())
        return self.xs[idx]

    def scaled(self, factor):
        # W1 scales with the sizes: W1(factor B, factor B') = factor W1(B, B')
        scaled = TabulatedCdf(self.xs * factor, self.cdf_values)
        return scaled._with_w1_bound(self.w1_bound * factor)
