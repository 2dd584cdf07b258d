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

The refiner samples its shapes in chunks of ``WORK_BUDGET // SUBGRID``
blocks, so a run does not map and trim large arrays chunk after chunk.  Each
chunk evaluates the law's primitives once, on one table of sub-grid points
that covers its blocks and the shifts its shapes read.  That table (its
points and the primitives' values there) is the only temporary allowed past
the shared work budget (32 KiB), by its halo of at most two blocks and one
point; every other temporary of the sweep stays within it.  The spectrally
negative bottom block is swept once, in the same chunks: a start that one
jump cannot bring there (above the job support plus two intervals) carries
exact zeros, not values rebuilt from J that are 0 up to rounding.
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
    start uniform in interval i is an explicit window integral of the
    job-size CDF; for interior intervals it is a fixed shape translated
    along the grid.  The M/G/1 state 1 has its own near-empty-queue shape
    (state 0 shares the interior one), and on the bottom interval of the
    spectrally negative model the shape carries a late-jump factor.  Each
    shape's deviation from its per-interval chord is sampled on ``SUBGRID``
    points per interval, with a rigorous Lipschitz envelope (from CDF
    monotonicity alone) on the sampling error.

    Every shape is a difference of the law's primitives J and K at shifts
    of whole intervals, so the sweep tabulates them once per chunk of
    blocks, at the sub-grid points x_j = j * delta / SUBGRID, and reads each
    shape's samples and its chord's block edges (every ``SUBGRID``-th entry)
    as slices of that table.  The M/G/1 shapes are swept together, and the
    spectrally negative bottom values are read off the same deviation rows
    in the same pass.  The table is the only temporary of the sweep past
    ``WORK_BUDGET``, by its halo of at most two blocks and one point.

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

    def _chunks(self, k_lo: int, k_hi: int) -> list[tuple[int, int]]:
        """Blocks k_lo..k_hi as (first, last) runs of at most ``_chunk``."""
        return [
            (lo, min(lo + self._chunk, k_hi + 1) - 1)
            for lo in range(k_lo, k_hi + 1, self._chunk)
        ]

    def _points(self, j_lo: int, j_hi: int) -> np.ndarray:
        """The sub-grid points x_j = j * delta / L for j = j_lo..j_hi."""
        return np.arange(j_lo, j_hi + 1) * (self.grid.delta / self.L)

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

    def _sweep_mg1(self, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-block sums of |shape - chord| on blocks k_lo..k_hi for the
        interior shape phi(u) = (J(u + 2 delta) - J(u + delta)) / delta and
        for state 1's shape f1(y) = 2 / delta^2 * ((y + delta)
        (J(y + delta) - J(y)) - (K(y + delta) - K(y))).

        A chunk's samples sit at x_j, j = lo*L..(hi+1)*L; the table of J
        runs two blocks past them and that of K one block.
        """
        d, L = self.grid.delta, self.L
        J, K = self.spec.job.prefix_cdf, self.spec.job.prefix_x_cdf
        phi_sums = np.empty(max(0, k_hi - k_lo + 1))
        f1_sums = np.empty_like(phi_sums)
        for lo, hi in self._chunks(k_lo, k_hi):
            m = (hi - lo + 1) * L + 1  # samples in the chunk
            x = self._points(lo * L, (hi + 3) * L)
            jt, kt = J(x), K(x[: m + L])
            at_y, at_y1, at_y2 = jt[:m], jt[L : m + L], jt[2 * L :]  # J(y + k delta)
            phi = (at_y2 - at_y1) / d
            f1 = (2.0 / d**2) * (x[L : m + L] * (at_y1 - at_y) - (kt[L:] - kt[:m]))
            blocks = slice(lo - k_lo, hi - k_lo + 1)
            phi_sums[blocks] = self._block_sums(self._deviation(phi))
            f1_sums[blocks] = self._block_sums(self._deviation(f1))
        return phi_sums, f1_sums

    def _sweep_specneg(self, k_lo: int, c1: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-block sums of |psi - chord| on blocks k_lo..0 for
        psi(u) = 1 - (J(delta - u) - J(-u)) / delta, and the bottom values.

        On y-block 0 a start in interval i >= 1 has the one-jump CDF of the
        generic block k = -i times the late-jump factor y / delta.  It is
        rebuilt from that block's deviation row and psi at the block's
        edges, psi(-i delta) and psi((1 - i) delta) (the bottom mass), with
        a slope envelope for the factor that adds the block's own slope
        bound ``c1[k - k_lo]``.  A start i > -k_lo lies above the job
        support plus two intervals, so one jump cannot bring it to y-block
        0: its entries stay exactly 0.  Returns the block sums and, per
        start state i = 1..n, the bottom mass, the sampled bottom value and
        its Lipschitz constant.
        """
        d, L, n = self.grid.delta, self.L, self.grid.m_delta
        J, frac = self.spec.job.prefix_cdf, self._frac
        bottom_mass, b_val, b_lip = np.zeros(n), np.zeros(n), np.zeros(n)
        sums = np.empty(1 - k_lo)
        for lo, hi in self._chunks(k_lo, 0):
            m = (hi - lo + 1) * L + 1
            # u = x_j for j = lo*L..(hi+1)*L reads J at x_{-j} and x_{L-j}:
            # one table over x_{-(hi+1)L}..x_{(1-lo)L}, one block past them
            jt = J(self._points(-(hi + 1) * L, (1 - lo) * L))[::-1]
            psi = 1.0 - (jt[:m] - jt[L:]) / d
            dev = self._deviation(psi)
            sums[lo - k_lo : hi - k_lo + 1] = self._block_sums(dev)
            neg = min(hi, -1) - lo + 1  # blocks k < 0 hold the starts i = -k
            if neg > 0:
                j = -np.arange(lo, lo + neg) - 1
                dev, edges = dev[:neg], psi[: neg * L + 1 : L]  # ascending edges
                gap = edges[:-1] - edges[1:]
                bottom_mass[j] = edges[1:]
                dev_bottom = frac * (dev + gap[:, None] * (1.0 - frac))
                b_val[j] = d / L * np.abs(dev_bottom).sum(axis=1)
                b_lip[j] = (2.0 * np.abs(gap) + np.abs(dev).max(axis=1)) / d
                b_lip[j] += c1[lo - k_lo : lo - k_lo + neg]
        return sums, bottom_mass, b_val, b_lip

    def _window(self, per_block: np.ndarray, k_lo: int, base: int, first: int):
        """For start states i = base..n: the sum of per_block over the blocks
        k whose target y-block i + k lies in first..n-1."""
        n = self.grid.m_delta
        csum = np.concatenate([[0.0], np.cumsum(per_block)])
        out = np.empty(n + 1 - base)
        for s in work_slices(len(out)):
            i = np.arange(base + s.start, base + s.stop)
            lo = np.clip(first - i - k_lo, 0, len(per_block))
            hi = np.clip(n - i - k_lo, lo, len(per_block))
            out[s] = csum[hi] - csum[lo]
        return out

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        spec, grid, L = self.spec, self.grid, self.L
        job, d, n = spec.job, grid.delta, grid.m_delta
        F = job.cdf
        q = d**2 / (4 * L)  # sampling deficit per unit of Lipschitz constant

        if spec.kind is ModelKind.MG1:
            sup = job.sup_support
            k_hi = n if not np.isfinite(sup) else min(n, int(np.ceil(sup / d)) + 1)
            k_lo = max(-2, int(np.floor(job.inf_support / d)) - 2)
            ks = np.arange(k_lo, k_hi + 1)
            c1_gen = (F((ks + 3) * d) - F((ks + 1) * d)) / d
            # a start in interval i >= 2 has the one-jump CDF phi(y - i*delta),
            # and a start at 0 has phi(y - delta), as if it were in interval 1.
            # State 1 has its own shape f1; like phi(y - delta) it is 0 on
            # y-blocks below k_lo + 1, and its slope envelope is twice state 0's.
            phi_sums, f1_sums = self._sweep_mg1(k_lo, k_hi)
            w_gen = self._window(phi_sums, k_lo, 1, 0)
            s_gen = q * self._window(c1_gen, k_lo, 1, 0)
            w1 = f1_sums[max(0, k_lo + 1) - k_lo : min(n - 1, k_hi) - k_lo + 1].sum()
            w = np.concatenate([w_gen[:1], [w1], w_gen[1:]])
            s = np.concatenate([s_gen[:1], [2.0 * s_gen[0]], s_gen[1:]])
        else:
            sup = job.sup_support
            k_lo = -n if not np.isfinite(sup) else max(-n, -(int(np.ceil(sup / d)) + 1))
            ks = np.arange(k_lo, 1)
            c1_gen = (F((1 - ks) * d) - F((-1 - ks) * d)) / d
            a, bottom_mass, b_val, b_lip = self._sweep_specneg(k_lo, c1_gen)
            b_slack = q * b_lip
            cap = d * bottom_mass
            capped = b_val + b_slack >= cap  # the worst case is tighter
            w = self._window(a, k_lo, 1, 1) + np.where(capped, cap, b_val)
            s = q * self._window(c1_gen, k_lo, 1, 1) + np.where(capped, 0.0, b_slack)
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

    With x = lam * delta, a step holds no jump with probability e^{-x}, one
    jump with q = x e^{-x} and two or more with 1 - (1 + x) e^{-x}.

    * jump aggregation: conditioned on one jump, the true law is replaced by
      a piecewise-uniform one with the same interval masses.  The basic
      bound moves the one-jump mass by at most one interval width:
      lam * delta^2 * e^{-x}.  The refined bound charges each start state
      the distance between its exact one-jump law and that law's grid
      projection, ``q * (p @ w)``, and the sampling deficit ``q * (p @ s)``
      as slack (see :class:`OneJumpRefiner`).
    * jump cut: with two or more jumps in a step the chain keeps the mass
      in its state, while the true path moves by y - x.  The M/G/1 path
      gains the sum S of the jumps, loses delta to service and at most
      idles that back: y - x lies in [S - delta, S].  So |y - x| <= S,
      except where S < delta / 2, where it is at most delta - S <= S +
      delta; S < delta / 2 needs a first jump below delta / 2, of
      probability at most F(delta / 2) whatever the number of jumps.  The
      spectrally negative path drifts up by delta and loses S, stopped at
      0: y - x lies in [delta - S, delta], so |y - x| <= S except where
      S < delta (a first jump below delta, probability at most F(delta)),
      where it is at most delta <= S + delta.  E[S; N >= 2] is
      x (1 - e^{-x}) E[B], so the charge is that plus delta P(N >= 2)
      F(delta / 2) (M/G/1) or delta P(N >= 2) F(delta) (spectrally
      negative), with P(N >= 2) = 1 - (1 + x) e^{-x}.  Spectrally negative
      jumps are stopped at 0, so the displacement is also at most M + delta
      on that event; a law without a mean takes that cap.
    * truncation: mass that should leave [0, M] stays inside.  For the
      M/G/1 queue, a single jump from state i that leaves [0, M] costs at
      most its size: q * E[B; B > M - i delta] per unit of mass at i.  In
      the spectrally negative model only the top interval crosses M, by at
      most delta when no jump comes: delta e^{-x} per unit of its mass.  A
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
        mean_b = job.mean()
        # P(N >= 2) without the cancellation of 1 - (1 + x) e^{-x}
        two_or_more = float(-np.expm1(-lam * d) - q)
        if spec.kind is ModelKind.MG1:
            if mean_b is None:
                raise CertificationError(
                    "the M/G/1 Wasserstein bound requires a finite job-size mean"
                )
            cut = lam * d * (1.0 - enl) * mean_b + d * two_or_more * float(job.cdf(d / 2))
            trunc = grid_values(lambda x: job.tail_mean(grid.m - x), d, 0, grid.m_delta)
            trunc *= q
            terms = [("truncation_weighted", 1.0, trunc)]
        else:
            cut = two_or_more * (grid.m + d)
            if mean_b is not None:
                drift = d * two_or_more * float(job.cdf(d))
                cut = min(lam * d * (1.0 - enl) * mean_b + drift, cut)
            top = np.zeros(grid.m_delta)
            top[-1] = 1.0  # p @ top is exactly p[-1]
            overshoot = 2.0 * d * lam * d * enl * float(job.cdf(d))
            terms = [("truncation_weighted", d * enl, top), ("slack", overshoot, top)]
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
