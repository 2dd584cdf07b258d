"""Certified per-step Wasserstein charges and their accumulation.

Each chain step can increase the Wasserstein distance between the true
transient law and the lifted discrete law by at most the sum of its charges
(jump aggregation, jump cut, truncation and slack), weighted by the current
discrete distribution p.  :class:`BoundContext` writes each charge, with its
derivation, once per run; :class:`OneJumpRefiner` supplies the refined
aggregation term's per-state geometry.

Carrying the previous cumulative bound forward unchanged is justified by a
synchronous-jump coupling argument: two copies of the queue driven by the
same arrivals and jump sizes never increase their pathwise distance, so
pre-existing error cannot grow under the true dynamics.  The solver
therefore just adds the per-step charges.

All quantities here are upper bounds by construction; whenever an evaluation
is approximate (sub-grid sampling of the refined term, the tabulation of a
CDF callable) the approximation error is tracked separately as "slack" and
added to the certified total, never silently dropped.

The refiner sweeps one shape for both models, g(v) = (J(v + delta) -
J(v)) / delta, in chunks of ``WORK_BUDGET // SUBGRID`` blocks.  Each chunk
evaluates the law's primitives once, on one table of sub-grid points over
its blocks and a halo of one block and one point; that table is the only
temporary allowed past the shared work budget (32 KiB).  Where to sweep is
read off F at the grid points: where F is 0 or 1, g equals its chord, and
a start that reads only such blocks carries exact zeros, not values
rebuilt from J that are 0 up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CertificationError
from .kernel import ModelKind, ModelSpec
from .measure import WORK_BUDGET, Grid, grid_values, work_slices

SUBGRID = 256  # sub-grid points per interval in the refined term

__all__ = [
    "OneJumpRefiner",
    "StepComponents",
    "BoundLedger",
]


# ---------------------------------------------------------------------------
# refined jump-aggregation term
# ---------------------------------------------------------------------------


class OneJumpRefiner:
    """Distance between the exact one-jump law and its grid projection.

    Conditioned on exactly one jump in a step, the end-of-step CDF for a
    start uniform in an interior interval is one shape, the window average
    g(v) = (J(v + delta) - J(v)) / delta of the job-size CDF, read shifted
    by the M/G/1 queue (phi(u) = g(u + delta)) and reflected by the
    spectrally negative model (psi(u) = 1 - g(-u)).  The M/G/1 state 1 has
    its own near-empty-queue shape f1, and the spectrally negative bottom
    interval carries a late-jump factor.  Each shape's deviation from its
    per-interval chord is sampled on ``SUBGRID`` points per interval, with
    a rigorous Lipschitz envelope (from CDF monotonicity alone) on the
    sampling error.  The sweep reads g's samples, f1's and the bottom
    values off one table of J (and K) per chunk of blocks, at the sub-grid
    points x_j = j * delta / SUBGRID; the table's halo is one block.

    Built once per run: a value vector ``w`` and a slack vector ``s`` over
    start states.  ``w[i]`` is the sampled distance for a one-jump start in
    interval i (capped at delta), ``s[i]`` its sampling deficit.  The
    mixture deviation is linear in p, so by the triangle inequality
    ``p @ w + p @ s`` bounds the one-jump distance for every p;
    :class:`BoundContext` weights both by the one-jump probability.
    """

    def __init__(self, spec: ModelSpec, grid: Grid):
        self.spec = spec
        self.grid = grid
        self.L = SUBGRID
        self._chunk = max(1, WORK_BUDGET // SUBGRID)  # blocks per sweep chunk
        self._frac = np.arange(SUBGRID) / SUBGRID
        self.w, self.s = self._build()

    # -- construction ------------------------------------------------------

    def _chunks(self, c_lo: int, c_hi: int) -> list[tuple[int, int]]:
        """Blocks c_lo..c_hi as (first, last) runs of at most ``_chunk``."""
        return [
            (lo, min(lo + self._chunk, c_hi + 1) - 1)
            for lo in range(c_lo, c_hi + 1, self._chunk)
        ]

    def _deviation(self, g: np.ndarray) -> np.ndarray:
        """Samples of a shape over whole blocks (L per block and the last
        block's end) minus the shape's chord on each block.

        Row b holds block b at offsets m / L, m = 0..L-1, and is exactly 0
        at the block's start, where the chord meets the sample.
        """
        e = g[:: self.L]
        chord = e[:-1, None] + np.diff(e)[:, None] * self._frac
        return g[:-1].reshape(-1, self.L) - chord

    def _block_sums(self, dev: np.ndarray) -> np.ndarray:
        """Sampled integral of |dev| on each block (one row each, so the
        chunking does not change the result)."""
        return self.grid.delta / self.L * np.abs(dev).sum(axis=1)

    def _sweep(self, c_lo: int, c_hi: int) -> tuple[np.ndarray, ...]:
        """Per-block sums D of |g - chord| on g-blocks c_lo..c_hi, then the
        model's own values.

        M/G/1: the block sums of state 1's shape f1(y) = 2 / delta^2
        ((y + delta) (J(y + delta) - J(y)) - (K(y + delta) - K(y))) on
        y-block c, which reads the same differences of J as g.

        Spectrally negative: per start state i = 1..n, the bottom mass, the
        sampled bottom value and its Lipschitz constant less the block's
        slope bound.  On y-block 0 a start i = c + 1 has the one-jump CDF
        (y / delta) (1 - g(i delta - y)), projected to (y / delta) times its
        bottom mass 1 - g(c delta); at v = (c + h) delta = i delta - y the
        two differ by (1 - h) (g(c delta) - g(v)), read off g's row c.  A
        start whose block c = i - 1 is not swept keeps exact zeros.

        A chunk's samples sit at x_j, j = lo*L..(hi+1)*L, and its tables of
        J and K run one block past them.
        """
        d, L, n, frac = self.grid.delta, self.L, self.grid.m_delta, self._frac
        J, K = self.spec.job.prefix_cdf, self.spec.job.prefix_x_cdf
        mg1 = self.spec.kind is ModelKind.MG1
        D = np.empty(max(0, c_hi - c_lo + 1))
        if mg1:
            f1_sums = np.empty_like(D)
        else:
            bottom_mass, b_val, b_lip = np.zeros((3, n))
        for lo, hi in self._chunks(c_lo, c_hi):
            m = (hi - lo + 1) * L + 1  # samples in the chunk
            x = np.arange(lo * L, (hi + 2) * L + 1) * (d / L)
            jt = J(x)
            dj = jt[L:] - jt[:m]  # J(v + delta) - J(v) at the samples v
            g = dj / d
            dev = self._deviation(g)
            blocks = slice(lo - c_lo, hi - c_lo + 1)
            D[blocks] = self._block_sums(dev)
            if mg1:
                kt = K(x)
                f1 = (2.0 / d**2) * (x[L:] * dj - (kt[L:] - kt[:m]))
                f1_sums[blocks] = self._block_sums(self._deviation(f1))
                continue
            k = max(lo, 0) - lo  # row of the chunk's first block c >= 0
            if k <= hi - lo:
                starts, edges = slice(lo + k, hi + 1), g[k * L :: L]  # i - 1 = c
                rise = g[:-1].reshape(-1, L)[k:] - edges[:-1, None]
                bottom_mass[starts] = 1.0 - edges[:-1]
                b_val[starts] = d / L * ((1.0 - frac) * np.abs(rise)).sum(axis=1)
                b_lip[starts] = (2.0 * np.abs(np.diff(edges)) + np.abs(dev[k:]).max(axis=1)) / d
        return (D, f1_sums) if mg1 else (D, bottom_mass, b_val, b_lip)

    def _window(self, per_block: np.ndarray, k_lo: int, first: int) -> np.ndarray:
        """For start states i = 1..n: the sum of per_block over the offsets
        k = k_lo, k_lo + 1, ... whose target y-block i + k lies in
        first..n-1."""
        n = self.grid.m_delta
        csum = np.concatenate([[0.0], np.cumsum(per_block)])
        out = np.empty(n)
        for s in work_slices(n):
            i = np.arange(1 + s.start, 1 + s.stop)
            lo = np.clip(first - i - k_lo, 0, len(per_block))
            hi = np.clip(n - i - k_lo, lo, len(per_block))
            out[s] = csum[hi] - csum[lo]
        return out

    def _extent(self) -> tuple[int, int]:
        """(a, b): the first j with F(j delta) > 0 and the last j with
        F(j delta) < 1 over j = 0..n+1, or n + 2 and -1 where there is none.

        F is 0 up to (a - 1) delta and 1 from (b + 1) delta on, so a shape
        that reads F only there equals its chord, and the sweep skips it.
        """
        n, F = self.grid.m_delta, self.spec.job.cdf
        a, b = n + 2, -1
        for s in work_slices(n + 2):
            j = np.arange(s.start, s.stop)
            f = F(j * self.grid.delta)
            a = min(a, int(j[f > 0.0].min(initial=a)))
            b = max(b, int(j[f < 1.0].max(initial=b)))
        return a, b

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        grid, L, job = self.grid, self.L, self.spec.job
        d, n = grid.delta, grid.m_delta
        q = d**2 / (4 * L)  # sampling deficit per unit of Lipschitz constant
        a, b = self._extent()
        # g on block c reads F on [c delta, (c + 2) delta) and equals its
        # chord where F is 0 (c <= a - 3) or 1 (c > b) there; no start reads
        # a block below -1 (J is 0 on it) or above n - 1
        c_lo, c_hi = max(-1, a - 2), min(n - 1, b)
        cs = np.arange(c_lo, c_hi + 1)
        # g's slope F(v + delta) - F(v) over delta on block c: F's left limit,
        # since v + delta < (c + 2) delta inside the block
        c1 = (job.cdf_left((cs + 2) * d) - job.cdf(cs * d)) / d
        if self.spec.kind is ModelKind.MG1:
            # a start in interval i >= 1 has the one-jump CDF g(y - (i - 1)
            # delta): block c at y-block c + i - 1, and a start at 0 reads as
            # one in interval 1.  State 1's f1 reads block c at y-block c; it
            # lies in [F(c delta), F((c + 2) delta-)] there, so its deviation
            # integrates to at most delta^2 c1[c], and its slope envelope is
            # twice state 0's.
            D, f1 = self._sweep(c_lo, c_hi)
            w_gen = self._window(D, c_lo - 1, 0)
            s_gen = q * self._window(c1, c_lo - 1, 0)
            w1 = np.minimum(f1, d**2 * c1)[max(0, c_lo) - c_lo :].sum()
            w = np.concatenate([w_gen[:1], [w1], w_gen[1:]])
            s = np.concatenate([s_gen[:1], [2.0 * s_gen[0]], s_gen[1:]])
        else:
            # a start in interval i has the one-jump CDF 1 - g(i delta - y)
            # above y-block 0: block c at y-block i - 1 - c, so the window
            # reads the blocks in reverse, at offsets -1 - c
            D, bottom_mass, b_val, b_lip = self._sweep(c_lo, c_hi)
            first = max(0, c_lo)
            b_lip[first : c_hi + 1] += c1[first - c_lo :]
            b_slack = q * b_lip
            cap = d * bottom_mass
            capped = b_val + b_slack >= cap  # the worst case is tighter
            w = self._window(D[::-1], -1 - c_hi, 1) + np.where(capped, cap, b_val)
            s = q * self._window(c1[::-1], -1 - c_hi, 1) + np.where(capped, 0.0, b_slack)
        return np.minimum(w, d, out=w), s


# ---------------------------------------------------------------------------
# per-step assembly and the ledger
# ---------------------------------------------------------------------------


class StepComponents(NamedTuple):
    """One step's charges; the ledger's columns, in this order."""

    jump_aggregation: float
    jump_cut: float
    truncation_weighted: float
    slack: float


_COLUMN = {name: c for c, name in enumerate(StepComponents._fields)}


class BoundContext:
    """Each step's charges, chosen once per run; every charge is written here.

    With r = lam * delta, a step holds no jump with probability e^{-r}, one
    jump with q = r e^{-r} and two or more with 1 - (1 + r) e^{-r}.

    * jump aggregation: conditioned on one jump, the true law is replaced by
      a piecewise-uniform one with the same interval masses.  The basic
      bound moves the one-jump mass by at most one interval width:
      lam * delta^2 * e^{-r}.  The refined bound charges each start state
      the distance between its exact one-jump law and that law's grid
      projection, ``q * (p @ w)``, and the sampling deficit ``q * (p @ s)``
      as slack (see :class:`OneJumpRefiner`).
    * jump cut: with N >= 2 jumps in a step, totalling S, the chain keeps
      the mass in its state, while the true path moves from x to y.  By
      Wald, E[S; N >= 2] = E[N; N >= 2] E[B] with E[N; N >= 2] = r (1 -
      e^{-r}), and S < a needs a first jump below a, of probability at
      most F(a) whatever the number of jumps.  The M/G/1 path gains S,
      loses delta to service and at most idles that back: y - x lies in
      [S - delta, S] whatever x is.  So |y - x| <= S, except where S <
      delta / 2, where it is at most delta - S <= S + delta, and every
      state pays E[N; N >= 2] E[B] + delta P(N >= 2) F(delta / 2).  The
      spectrally negative path drifts up by delta and loses S, stopped at
      0: y lies in [max(0, x + delta - S), x + delta], so |y - x| is at
      most max(delta, min(x, S - delta)).  The bottom state (x <= delta)
      therefore pays delta P(N >= 2).  Above it x > delta, so |y - x| <=
      min(x, S) + delta 1{S < delta}; min(x, .) is subadditive, so min(x,
      S) <= sum_k min(x, B_k), and by Wald E[min(x, S); N >= 2] <=
      min(E[N; N >= 2] (x - J(x)), P(N >= 2) x), where x - J(x) =
      E[min(B, x)].  That grows with x, so state i (x <= i delta) pays it
      at x = i delta, plus delta P(N >= 2) F(delta).  The charge is finite
      for every law, with a mean or without; it is never above P(N >= 2)
      (M + delta), nor, for a law with a mean, above E[N; N >= 2] E[B] +
      delta P(N >= 2) F(delta) (E[B] >= delta (1 - F(delta)) covers the
      bottom state).  x - J(x) is one float difference below M, so its
      rounding, at most about ulp(M) per state, is not charged here; it
      belongs with the other floating-point effects of the chain.
    * truncation: mass that should leave [0, M] stays inside.  For the
      M/G/1 queue, a single jump from state i that leaves [0, M] costs at
      most its size: q * E[B; B > M - i delta] per unit of mass at i.  In
      the spectrally negative model only the top interval crosses M, by at
      most delta when no jump comes: delta e^{-r} per unit of its mass.  A
      single jump from it smaller than delta may end above M as well, at a
      distance up to 2 delta instead of the delta the aggregation charge
      pays for; that costs 2 delta q F(delta), charged as slack.
    * slack: ``lam * delta * job.w1_bound`` pays for solving with a
      tabulated law in place of the law it was tabulated from (0 for laws
      given exactly; the coupling argument is in
      :meth:`TabulatedCdf.from_cdf`).

    A step's components are the constant row ``row`` plus ``coef * (p @ v)``
    added to component ``c`` for each term ``(c, coef, v)``, in order.  Each
    ``p @ v`` is an ``np.einsum``: numpy's own single-threaded loop, with no
    temporary, where BLAS's dot would round differently with the thread
    count.
    """

    def __init__(self, spec: ModelSpec, grid: Grid, refined: bool):
        lam, d, job = spec.lam, grid.delta, spec.job
        enl = float(np.exp(-lam * d))
        q = lam * d * enl
        jumps = lam * d * (1.0 - enl)  # E[N; N >= 2]
        # P(N >= 2) without the cancellation of 1 - (1 + r) e^{-r}
        two_or_more = float(-np.expm1(-lam * d) - q)
        if spec.kind is ModelKind.MG1:
            mean_b = job.mean()
            if mean_b is None:
                raise CertificationError(
                    "the M/G/1 Wasserstein bound requires a finite job-size mean"
                )
            cut = jumps * mean_b + d * two_or_more * float(job.cdf(d / 2))
            trunc = grid_values(lambda x: job.tail_mean(grid.m - x), d, 0, grid.m_delta)
            trunc *= q
            terms = [("truncation_weighted", 1.0, trunc)]
        else:
            cut = 0.0  # charged per state
            reach = grid_values(
                lambda x: np.minimum(jumps * (x - job.prefix_cdf(x)), two_or_more * x),
                d, 1, grid.m_delta,
            )
            reach += d * two_or_more * float(job.cdf(d))
            reach[0] = d * two_or_more  # the bottom state moves by at most delta
            top = np.zeros(grid.m_delta)
            top[-1] = 1.0  # p @ top is exactly p[-1]
            overshoot = 2.0 * d * lam * d * enl * float(job.cdf(d))
            terms = [("jump_cut", 1.0, reach), ("truncation_weighted", d * enl, top),
                     ("slack", overshoot, top)]
        self.refiner = r = OneJumpRefiner(spec, grid) if refined else None
        if refined:  # the refined slack is added before the model's charges
            terms = [("jump_aggregation", q, r.w), ("slack", q, r.s)] + terms
        self.terms = [(_COLUMN[name], coef, v) for name, coef, v in terms]
        self.row = StepComponents(
            jump_aggregation=0.0 if refined else lam * d**2 * enl,
            jump_cut=cut, truncation_weighted=0.0, slack=lam * d * job.w1_bound,
        )

    def components(self, p: np.ndarray) -> StepComponents:
        row = list(self.row)
        for c, coef, v in self.terms:
            row[c] += coef * float(np.einsum("i,i", p, v))
        return StepComponents(*row)


@dataclass(eq=False)
class BoundLedger:
    """Per-step error components plus the running certified bound.

    ``rows[k - 1]`` holds step k's components in ``StepComponents`` order.
    ``cumulative[k]`` bounds the Wasserstein distance after k steps;
    ``cumulative[0]`` is the initial discretization error.  Pre-existing
    error is carried forward unchanged (coupling argument), so the array is
    simply b0 plus the prefix sums of the step components.
    """

    b0: float
    rows: np.ndarray

    @property
    def steps(self) -> list[StepComponents]:
        return [StepComponents(*r) for r in self.rows.tolist()]

    @property
    def cumulative(self) -> np.ndarray:
        totals = sum(self.rows.T)  # column by column, left to right
        return self.b0 + np.concatenate([[0.0], np.cumsum(totals)])

    @property
    def final(self) -> float:
        return float(self.cumulative[-1])

    def table(self, delta: float) -> np.ndarray:
        """One row per step: (step, time, the ``StepComponents`` fields,
        cumulative); step 0 carries the initial error."""
        n, k = len(self.rows), len(StepComponents._fields)
        out = np.zeros((n + 1, k + 3))
        out[:, 0] = np.arange(n + 1)
        out[:, 1] = out[:, 0] * delta
        out[1:, 2 : 2 + k] = self.rows
        out[:, -1] = self.cumulative
        return out
