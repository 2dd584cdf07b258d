"""Error components: frozen closed-form values, scaling laws, refinement."""

import copy

import numpy as np
import pytest

from levyq import (
    CertificationError,
    Deterministic,
    Erlang,
    Exponential,
    GeneralMeasure,
    Grid,
    JobSize,
    ModelKind,
    ModelSpec,
    OneJumpRefiner,
    Pareto,
    SimConfig,
    TabulatedCdf,
    Uniform,
    build_kernel,
    empirical_wasserstein,
    simulate,
    solve,
)
from levyq import bounds, oracle
from levyq.bounds import SUBGRID, BoundContext, StepComponents

REF_MG1 = ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0))


SN = ModelKind.SPECTRALLY_NEGATIVE


def chain_states(spec, grid):
    """The chain's state indices on ``grid``, as the kernel lays them out."""
    return build_kernel(spec, grid).states()


def basic_context(kind, lam, job, delta, m_delta):
    """The basic-mode charges of one model and grid, and the chain's states."""
    spec = ModelSpec(kind, lam, job)
    grid = Grid(delta, m_delta)
    return BoundContext(spec, grid, refined=False), chain_states(spec, grid)


def basic_row(kind, lam, job, delta, m_delta=10):
    """The constant charges of a basic-mode step: aggregation, cut, slack."""
    return BoundContext(ModelSpec(kind, lam, job), Grid(delta, m_delta), refined=False).row


def cut_at(ctx, states, i):
    """State i's jump-cut charge per unit mass, read as truncation_at reads
    its truncation charge."""
    return ctx.components((states == i).astype(float)).jump_cut


def truncation_at(ctx, states, i):
    """State i's truncation charge per unit mass: a step's charge from a
    point mass at i (an einsum with a unit vector is exact)."""
    return ctx.components((states == i).astype(float)).truncation_weighted


class TestJumpAggregationBasic:
    def test_frozen_value(self):
        # lam = 1/4, delta = 1/500, evaluated at 40-digit precision
        row = basic_row(ModelKind.MG1, 0.25, Uniform(1.0, 5.0), 1 / 500)
        assert row.jump_aggregation == pytest.approx(
            9.995001249791692705729383665055532e-7, rel=1e-13, abs=0
        )

    def test_leading_order(self):
        lam = 0.7
        for d in [1e-3, 1e-4, 1e-5]:
            row = basic_row(ModelKind.MG1, lam, Uniform(1.0, 5.0), d)
            assert row.jump_aggregation / d**2 == pytest.approx(lam, rel=2 * lam * d, abs=0)

    def test_vanishes_with_rate(self):
        row = basic_row(ModelKind.MG1, 1e-300, Uniform(1.0, 5.0), 0.1)
        assert row.jump_aggregation == pytest.approx(0.0, abs=1e-280)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_rejects_nonpositive(self, lam):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.MG1, lam, Uniform(1.0, 5.0))


class TestJumpCut:
    def test_mg1_frozen_value(self):
        row = basic_row(ModelKind.MG1, 0.25, Uniform(1.0, 5.0), 1 / 500)  # E[B] = 3
        assert row.jump_cut == pytest.approx(
            7.498125312460941405924502416701e-7, rel=1e-13, abs=0
        )

    def test_mg1_quadratic_scaling(self):
        vals = [
            basic_row(ModelKind.MG1, 0.25, Uniform(1.0, 5.0), d).jump_cut
            for d in (1e-2, 5e-3, 2.5e-3)
        ]
        assert vals[0] / vals[1] == pytest.approx(4.0, rel=1e-2, abs=0)
        assert vals[1] / vals[2] == pytest.approx(4.0, rel=1e-2, abs=0)

    def test_mg1_zero_mean(self):
        # zero jobs move nothing, but the ignored steps still serve delta
        two_or_more = -np.expm1(-0.05) - 0.05 * np.exp(-0.05)
        assert basic_row(ModelKind.MG1, 0.5, Deterministic(0.0), 0.1).jump_cut == (
            pytest.approx(0.1 * two_or_more, rel=1e-14, abs=0)
        )

    def test_mg1_requires_mean(self):
        with pytest.raises(CertificationError):
            basic_row(ModelKind.MG1, 0.5, Pareto(1.0, 0.9), 0.1)

    # lam = 1/3, delta = 1/100, M = 55: r = lam * delta = 1/300, and at 40
    # digits E[N; N >= 2] = r (1 - e^{-r}) and P(N >= 2) = 1 - (1 + r) e^{-r}
    # are 1.109261315158892826599090672759e-5 and
    # 5.543225294934074729929591672267e-6.  Pareto(1, alpha) has E[min(B,
    # x)] = 1 + (x^{1 - alpha} - 1) / (1 - alpha) for x >= 1, and F(delta) = 0

    def test_specneg_frozen_branches(self):
        # alpha = 1.5: E[min(B, x)] = 3 - 2 / sqrt(x) takes the Wald branch;
        # below x_min, E[min(B, x)] = x and the cap P(N >= 2) x is smaller
        ctx, states = basic_context(SN, 1 / 3, Pareto(1.0, 1.5), 1 / 100, 5500)
        at_5, top = cut_at(ctx, states, 500), cut_at(ctx, states, 5500)
        assert at_5 == pytest.approx(2.335630463274237562887294326244e-5, rel=1e-13, abs=0)
        assert top == pytest.approx(3.028638415030310248760220671373e-5, rel=1e-13, abs=0)
        at_half = cut_at(ctx, states, 50)
        assert at_half == pytest.approx(2.771612647467037364964795836133e-6, rel=1e-13, abs=0)
        # both below the constant E[N; N >= 2] E[B]
        assert top < 3.327783945476678479797272018278e-5

    def test_specneg_without_mean_takes_capped_branch(self):
        # alpha = 0.9: at x = 5 the cap P(N >= 2) x is smaller, at x = 55
        # E[N; N >= 2] (1 + (55^0.1 - 1) / 0.1) is
        ctx, states = basic_context(SN, 1 / 3, Pareto(1.0, 0.9), 1 / 100, 5500)
        at_5, top = cut_at(ctx, states, 500), cut_at(ctx, states, 5500)
        assert at_5 == pytest.approx(2.771612647467037364964795836133e-5, rel=1e-13, abs=0)
        assert top == pytest.approx(6.577022001745683230089048214125e-5, rel=1e-12, abs=0)
        # and below P(N >= 2) (M + delta), the displacement's cap
        assert top < 3.049328234743234508934268378914e-4

    def test_specneg_bottom_state_moves_by_delta(self):
        ctx, states = basic_context(SN, 1 / 3, Pareto(1.0, 0.9), 1 / 100, 5500)
        p_two = 5.543225294934074729929591672267e-6
        assert cut_at(ctx, states, 1) == pytest.approx(p_two / 100, rel=1e-13, abs=0)

    def test_specneg_quadratic_scaling(self):
        for job in (Pareto(1.0, 1.5), Pareto(1.0, 0.9)):  # E[B] = 3, no mean
            for x in (5.0, 10.0):  # a state inside, and the top (M = 10)
                vals = []
                for d in (1e-2, 5e-3, 2.5e-3):
                    ctx, states = basic_context(SN, 0.25, job, d, round(10.0 / d))
                    vals.append(cut_at(ctx, states, round(x / d)))
                assert vals[0] / vals[1] == pytest.approx(4.0, rel=2e-2, abs=0)
                assert vals[1] / vals[2] == pytest.approx(4.0, rel=2e-2, abs=0)

    @pytest.mark.parametrize("job", [
        Uniform(0.5, 3.0), Erlang(2, 1.0), Pareto(1.0, 1.5), Pareto(1.0, 0.9),
        Deterministic(0.3), TabulatedCdf([0.0, 0.5, 1.0, 3.0], [0.0, 0.2, 0.6, 1.0]),
        Exponential(500.0),
    ], ids=["uniform", "erlang", "pareto-1.5", "pareto-0.9", "deterministic",
            "tabulated-gap", "exponential-small"])
    @pytest.mark.parametrize("lam, delta, m_delta", [
        (1 / 3, 1 / 20, 200), (2.0, 1 / 50, 500), (50.0, 0.3, 30),
    ])
    def test_specneg_no_state_pays_more_than_the_constant(self, job, lam, delta, m_delta):
        # the state-free bound min(E[N; N >= 2] E[B] + delta P(N >= 2)
        # F(delta), P(N >= 2) (M + delta)), the first only for a law with a
        # mean.  Each state's x - J(x) may round up by about ulp(M), times
        # E[N; N >= 2]
        ctx, states = basic_context(SN, lam, job, delta, m_delta)
        r = lam * delta
        jumps, p_two = r * -np.expm1(-r), -np.expm1(-r) - r * np.exp(-r)
        m = m_delta * delta
        state_free = p_two * (m + delta)
        if job.mean() is not None:
            state_free = min(jumps * job.mean() + delta * p_two * float(job.cdf(delta)),
                             state_free)
        charges = np.array([cut_at(ctx, states, i) for i in states])
        assert np.all(charges <= state_free + 2.0 * jumps * np.spacing(m))
        assert np.all(charges > 0.0)


class TestJumpCutDrift:
    """Jobs far below delta: with two or more jumps the true path moves by
    about the drift, delta, while the chain keeps the mass in place."""

    @pytest.mark.parametrize("job", [Deterministic(1 / 500), Exponential(500.0)],
                             ids=["deterministic", "exponential"])
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_small_jobs_within_certificate(self, kind, job):
        spec = ModelSpec(kind, 50.0, job)  # lam * delta = 1
        grid = Grid(1 / 50, 250)  # M = 5
        mu0 = GeneralMeasure.dirac(1.0)
        dist, bound = solve(spec, grid, mu0, 25).at_time(0.5)
        samples = simulate(SimConfig(spec, mu0, 0.5, 20_000, seed=7))
        est, se = empirical_wasserstein(samples, dist, seed=7)
        assert est <= bound + 3.0 * se, (est, bound, se)


class TestSpecnegCutWithinCertificate:
    """The per-state cut where it is smallest: a path stopped at 0 falls by
    at most its height, so starts near 0 pay far less than E[B] per jump.
    No allowance for the empirical W1's bias: 400 000 paths keep it small."""

    @pytest.mark.parametrize("job, lam, delta, m_delta, x0", [
        # bound 0.129 at t = 2; E[N; N >= 2] E[B] per step would give 0.692
        pytest.param(Uniform(0.5, 3.0), 2.0, 1 / 20, 200, 0.5, id="uniform"),
        # no mean: bound 0.0154 at t = 2; P(N >= 2) (M + delta) per step
        # would give 0.0543
        pytest.param(Pareto(1.0, 0.9), 1 / 3, 1 / 50, 1000, 2.0, id="pareto-0.9"),
    ])
    def test_exact_samples_within_certificate(self, job, lam, delta, m_delta, x0):
        spec = ModelSpec(SN, lam, job)
        mu0 = GeneralMeasure.dirac(x0)
        dist, bound = solve(spec, Grid(delta, m_delta), mu0, round(2.0 / delta)).at_time(2.0)
        samples = simulate(SimConfig(spec, mu0, 2.0, 400_000, seed=7))
        est, se = empirical_wasserstein(samples, dist, seed=7)
        assert est <= bound + 3.0 * se, (est, bound, se)


class TestTruncation:
    def test_mg1_zero_beyond_support(self):
        ctx, states = basic_context(ModelKind.MG1, 0.25, Uniform(1.0, 5.0), 0.5, 100)  # M = 50
        for i in range(0, 80):  # M - i*d >= 10 > sup support
            assert truncation_at(ctx, states, i) == 0.0

    def test_mg1_top_state_full_mean(self):
        ctx, states = basic_context(ModelKind.MG1, 0.25, Uniform(1.0, 5.0), 0.5, 100)
        expected = 0.25 * 0.5 * np.exp(-0.125) * 3.0
        assert truncation_at(ctx, states, 100) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_mg1_uniform_tail_value(self):
        # M - i*d = 3: tail integral of x over (3, 5] at density 1/4 is 2
        ctx, states = basic_context(ModelKind.MG1, 0.25, Uniform(1.0, 5.0), 0.5, 100)
        v = truncation_at(ctx, states, 94)  # 50 - 47 = 3
        assert v == pytest.approx(0.25 * 0.5 * np.exp(-0.125) * 2.0, rel=1e-12, abs=0)

    def test_specneg_only_top_interval(self):
        ctx, states = basic_context(SN, 0.5, Pareto(1.0, 1.5), 0.1, 50)
        for i in range(1, 50):
            assert truncation_at(ctx, states, i) == 0.0
        top = truncation_at(ctx, states, 50)
        assert top == pytest.approx(0.1 * np.exp(-0.05), rel=1e-13, abs=0)
        assert top <= 0.1

    def test_specneg_zero_rate_limit(self):
        ctx, states = basic_context(SN, 1e-14, Pareto(1.0, 1.5), 0.1, 50)
        assert truncation_at(ctx, states, 50) == pytest.approx(0.1, rel=1e-12, abs=0)


class TestMonotoneInRate:
    def test_all_components_nondecreasing(self):
        d = 0.01
        lams = np.linspace(1e-3, 1.0 / d, 60)
        agg, cut, cut_sn, trunc = [], [], [], []
        for lam in lams:
            ctx, states = basic_context(ModelKind.MG1, lam, Uniform(1.0, 5.0), d, 2000)
            agg.append(ctx.row.jump_aggregation)
            cut.append(ctx.row.jump_cut)
            trunc.append(truncation_at(ctx, states, 2000))
            sn, sn_states = basic_context(SN, lam, Pareto(1.0, 1.5), d, 2000)  # M = 20
            cut_sn.append([cut_at(sn, sn_states, 500), cut_at(sn, sn_states, 2000)])
        for seq in (agg, cut, trunc, *np.transpose(cut_sn)):
            assert np.all(np.diff(seq) >= -1e-15)
        assert min(map(min, cut_sn)) > 0.0


def oracle_mixture_wd(spec, grid, p, fine=256):
    """Independent sub-grid evaluation of the one-jump mixture deviation."""
    d, n = grid.delta, grid.m_delta
    J = spec.job.prefix_cdf
    K = spec.job.prefix_x_cdf
    ys = np.linspace(0, grid.m, n * fine + 1)
    G = np.zeros_like(ys)
    if spec.kind is ModelKind.MG1:
        G += p[0] * (J(ys + d) - J(ys)) / d
        G += p[1] * (2 / d**2) * (
            (ys + d) * (J(ys + d) - J(ys)) - (K(ys + d) - K(ys))
        )
        for i in range(2, n + 1):
            if p[i] == 0:
                continue
            G += p[i] * (J(ys - (i - 2) * d) - J(ys - (i - 1) * d)) / d
    else:
        for i in range(1, n + 1):
            if p[i - 1] == 0:
                continue
            G += (
                p[i - 1]
                * np.minimum(1.0, ys / d)
                * (1.0 - (J((i + 1) * d - ys) - J(i * d - ys)) / d)
            )
    H = np.interp(ys, ys[::fine], G[::fine])
    return float(np.trapezoid(np.abs(G - H), ys))


def one_jump_probability(spec, grid):
    """lam * delta * e^{-lam delta}: the chance of exactly one jump in a step."""
    lam, d = spec.lam, grid.delta
    return lam * d * float(np.exp(-lam * d))


def refined_charge(refiner, p):
    """The refined value and its slack, as BoundContext charges them for p."""
    q = one_jump_probability(refiner.spec, refiner.grid)
    return q * float(p @ refiner.w), q * float(p @ refiner.s)


class TestRefined:
    CASES = [
        (ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0)), (0.5, 30)),
        (ModelSpec(ModelKind.MG1, 0.4, Erlang(6, 2.0)), (0.2, 40)),
        (ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 1 / 3, Pareto(1.0, 1.5)), (0.25, 40)),
        (ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.5, Uniform(0.3, 2.2)), (0.2, 30)),
    ]

    def test_certified_against_subgrid_oracle(self):
        rng = np.random.default_rng(11)
        for spec, args in self.CASES:
            grid = Grid(*args)
            refiner = OneJumpRefiner(spec, grid)
            scale = spec.lam * grid.delta * np.exp(-spec.lam * grid.delta)
            n_states = len(chain_states(spec, grid))
            for _ in range(3):
                p = rng.random(n_states)
                p /= p.sum()
                value, slack = refined_charge(refiner, p)
                oracle = oracle_mixture_wd(spec, grid, p)
                # certified: value + slack covers the truth
                assert value + slack >= scale * oracle - 1e-13
            # a start in a single interval is charged its own distance: the
            # value tracks the truth up to the slack, and covers it with it
            for i in range(n_states):
                p = np.zeros(n_states)
                p[i] = 1.0
                value, slack = refined_charge(refiner, p)
                oracle = oracle_mixture_wd(spec, grid, p)
                assert value + slack >= scale * oracle - 1e-13
                assert value <= scale * oracle + slack + 1e-13

    def test_point_mass_initial_distribution(self):
        # one-hot from a point mass at 1, coarse grid for oracle speed
        grid = Grid(0.1, 200)
        p = np.zeros(201)
        p[10] = 1.0
        value, slack = refined_charge(OneJumpRefiner(REF_MG1, grid), p)
        scale = 0.25 * 0.1 * np.exp(-0.025)
        oracle = oracle_mixture_wd(REF_MG1, grid, p, fine=256)
        assert value + slack >= scale * oracle - 1e-14
        assert value <= scale * (oracle + 0.02 * oracle) + slack

    def test_grid_aligned_deterministic_jobs_vanish(self):
        # job size a multiple of delta: the one-jump law is exactly uniform
        # on single intervals, so the refined term is 0 for interior states
        spec = ModelSpec(ModelKind.MG1, 0.25, Deterministic(2.0))
        grid = Grid(0.5, 30)
        p = np.zeros(31)
        p[10] = 1.0
        value, _ = refined_charge(OneJumpRefiner(spec, grid), p)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_state_one_block_sums_within_f_rise(self):
        # f1 on block c lies in [F(c delta), F((c + 2) delta-)], so each of
        # its block sums is at most delta^2 c1[c].  Uncapped, the rounding of
        # the K differences that f1 scales by 2 / delta^2 reads w[1] = 1.70e-6
        # at M = 50, against w[2] = 2.2e-7
        spec = ModelSpec(ModelKind.MG1, 0.25, Exponential(1 / 3))
        refiner = OneJumpRefiner(spec, Grid(1 / 500, 25_000))
        assert refiner.w[1] < 1e-6

    def test_slope_bound_reads_left_limits(self):
        # an atom on the grid point (c + 2) delta does not steepen g on block
        # c, where v + delta stays below it, so the slope bound reads F's left
        # limit there: here F at the float below x
        job, d, n = Deterministic(3 / 50), 1 / 50, 300
        refiner = OneJumpRefiner(ModelSpec(ModelKind.MG1, 0.5, job), Grid(d, n))
        F = job.cdf
        c1 = {c: (F(np.nextafter((c + 2) * d, -np.inf)) - F(c * d)) / d for c in range(-1, n)}
        q = d**2 / (4 * SUBGRID)

        def s_gen(i):  # a start in interval i >= 1 reads block c at y-block c + i - 1
            return q * sum(c1[c] for c in range(-1, n) if 0 <= c + i - 1 < n)

        # state 0 reads as state 1 on g, and state 1's f1 has twice the slope
        want = [s_gen(1), 2.0 * s_gen(1)] + [s_gen(i) for i in range(2, n + 1)]
        np.testing.assert_allclose(refiner.s, want, rtol=1e-12, atol=0)

    def test_refined_below_basic_plus_slack(self):
        rng = np.random.default_rng(12)
        for spec, args in self.CASES:
            grid = Grid(*args)
            basic = BoundContext(spec, grid, refined=False).row.jump_aggregation
            refiner = OneJumpRefiner(spec, grid)
            for _ in range(3):
                p = rng.random(len(chain_states(spec, grid)))
                p /= p.sum()
                value, _ = refined_charge(refiner, p)
                assert value <= basic + 1e-15

    def test_refined_solve_on_tabulated_callable(self):
        job = TabulatedCdf.from_cdf(Uniform(1.0, 5.0).cdf, 5.0, 401)
        spec = ModelSpec(ModelKind.MG1, 0.25, job)
        grid = Grid(0.5, 20)
        res = solve(spec, grid, GeneralMeasure.dirac(1.0), 20, bound_mode="refined")
        charge = 0.25 * 0.5 * job.w1_bound
        assert charge > 0.0
        assert np.all(res.ledger.rows[:, 3] >= charge)
        assert np.isfinite(res.ledger.final)


class TestWorkBudget:
    """The refiner sweeps its blocks in chunks of a fixed work budget."""

    GRIDS = [
        pytest.param(REF_MG1, 1 / 50, 400, id="mg1-uniform"),
        # finite support below M: the bottom pass also runs above the support
        pytest.param(
            ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.5, Uniform(0.5, 1.5)), 1 / 50, 300,
            id="specneg-uniform",
        ),
        pytest.param(
            ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 1 / 3, Pareto(1.0, 1.5)), 1 / 20, 200,
            id="specneg-pareto",
        ),
        # Erlang's K(x) once rounded with the number of points per call
        pytest.param(
            ModelSpec(ModelKind.MG1, 0.4, Erlang(3, 2.0)), 1 / 100, 200, id="mg1-erlang"
        ),
    ]

    @pytest.mark.parametrize("spec, delta, m_delta", GRIDS)
    def test_chunk_size_leaves_values_bit_identical(self, monkeypatch, spec, delta, m_delta):
        # each row sum runs over one block, so chunking cannot reorder it
        grid = Grid(delta, m_delta)
        ref = OneJumpRefiner(spec, grid)
        for blocks in (1, 7, m_delta + 10):  # the last holds every block at once
            monkeypatch.setattr(bounds, "WORK_BUDGET", blocks * SUBGRID)
            got = OneJumpRefiner(spec, grid)
            assert got._chunk == blocks
            assert got.w.tobytes() == ref.w.tobytes()
            assert got.s.tobytes() == ref.s.tobytes()

    def test_fine_grid_build_stays_within_budget(self, traced_peak):
        # 25 001 states: 0.8 MiB traced, of which w and s are 0.4 MiB; one
        # temporary of a 256-block chunk alone would take 0.5 MiB
        grid = Grid(1 / 500, 25_000)
        assert traced_peak(lambda: OneJumpRefiner(REF_MG1, grid)) < 1.05 * 2**20


def extent(job, grid):
    """(a, b) from F at the grid points j delta, j = 0..n+1: a is the first j
    with F > 0 (n + 2 if none), b the last with F < 1 (-1 if none)."""
    n = grid.m_delta
    f = job.cdf(np.arange(n + 2) * grid.delta)
    moved, below_one = np.flatnonzero(f > 0.0), np.flatnonzero(f < 1.0)
    return (moved[0] if len(moved) else n + 2), (below_one[-1] if len(below_one) else -1)


def swept_blocks(spec, grid):
    """The blocks c of g(v) = (J(v + delta) - J(v)) / delta that the refiner
    sweeps, for both models: g equals its chord where F is constant (see
    TestExtent), and the starts read blocks -1..n-1 only."""
    a, b = extent(spec.job, grid)
    return range(max(-1, a - 2), min(grid.m_delta - 1, b) + 1)


def reference_block_sums(fn, ks, d, L=SUBGRID):
    """Sampled integral of |fn - chord| on each block k, the shape evaluated
    point by point at (k + m / L) * delta with its chord through the block's
    ends at k * delta and (k + 1) * delta."""
    frac = np.arange(L) / L
    sums = []
    for k in ks:
        lo, hi = fn(k * d), fn((k + 1) * d)
        dev = fn((k + frac) * d) - (lo + (hi - lo) * frac)
        dev[0] = 0.0
        sums.append(d / L * np.abs(dev).sum())
    return np.array(sums)


def count_table_points(monkeypatch) -> dict:
    """Count, per primitive, the points at which J and K are evaluated."""
    points = {"prefix_cdf": 0, "prefix_x_cdf": 0}
    for name in points:
        def counted(job, x, name=name, primitive=getattr(JobSize, name)):
            points[name] += np.size(x)
            return primitive(job, x)

        monkeypatch.setattr(JobSize, name, counted)
    return points


def table_budget(spec, grid, chunk: int) -> int:
    """The most points a refiner build may evaluate per primitive: each
    chunk's table spans its blocks, a halo of one block and the last block's
    end."""
    blocks = len(swept_blocks(spec, grid))
    chunks = -(-blocks // chunk)
    return (blocks + chunks) * SUBGRID + chunks


class BareUniform(JobSize):
    """Uniform(1, 2) as a family that writes only its closed forms, in
    Uniform's expressions, and says nothing about where its mass lies."""

    def _cdf(self, x):
        return np.clip(x - 1.0, 0.0, 1.0)

    def _J(self, x):
        return (np.clip(x, 1.0, 2.0) - 1.0) ** 2 / 2.0 + np.maximum(x - 2.0, 0.0)

    def _K(self, x):
        w = np.clip(x, 1.0, 2.0) - 1.0
        return w**2 / 2.0 + w**3 / 3.0 + np.where(x > 2.0, (x**2 - 4.0) / 2.0, 0.0)

    def _tail_mean(self, a):
        return (4.0 - np.clip(a, 1.0, 2.0) ** 2) / 2.0

    def mean(self):
        return 1.5


class TestTableSweep:
    """Every shape is read from one table of J (and K) per chunk of blocks."""

    @pytest.mark.parametrize(
        "spec, delta, m_delta",
        [p for p in TestWorkBudget.GRIDS if p.id in ("mg1-uniform", "specneg-pareto")],
    )
    def test_primitives_evaluated_once_per_table_point(
        self, monkeypatch, spec, delta, m_delta
    ):
        grid = Grid(delta, m_delta)
        points = count_table_points(monkeypatch)
        refiner = OneJumpRefiner(spec, grid)
        most = table_budget(spec, grid, refiner._chunk)
        assert 0 < points["prefix_cdf"] <= most
        assert points["prefix_x_cdf"] <= most

    @pytest.mark.parametrize("kind", [ModelKind.MG1, SN], ids=["mg1", "specneg"])
    def test_bare_family_is_swept_where_its_cdf_moves(self, monkeypatch, kind):
        # the sweep reads the law's extent off F, so a family that writes
        # only its closed forms gets the same charges as Uniform(1, 2), from
        # as few evaluations, and not from a sweep over the whole grid
        uniform = ModelSpec(kind, 0.5, Uniform(1.0, 2.0))
        grid = Grid(1 / 50, 300)
        ref = OneJumpRefiner(uniform, grid)
        points = count_table_points(monkeypatch)
        got = OneJumpRefiner(ModelSpec(kind, 0.5, BareUniform()), grid)
        assert got.w.tobytes() == ref.w.tobytes()
        assert got.s.tobytes() == ref.s.tobytes()
        most = table_budget(uniform, grid, got._chunk)
        assert 0 < points["prefix_cdf"] <= most
        assert points["prefix_x_cdf"] <= most

    @pytest.mark.parametrize(
        "spec, args", TestRefined.CASES, ids=["mg1-uniform", "mg1-erlang",
                                             "specneg-pareto", "specneg-uniform"]
    )
    def test_block_sums_match_pointwise_shapes(self, spec, args):
        grid = Grid(*args)
        refiner = OneJumpRefiner(spec, grid)
        J, K = spec.job.prefix_cdf, spec.job.prefix_x_cdf
        d, n, L = grid.delta, grid.m_delta, SUBGRID
        if spec.kind is ModelKind.MG1:
            ks = range(-2, n + 1)  # phi's blocks over every block the sweep may visit

            def phi(u):
                return (J(u + 2 * d) - J(u + d)) / d

            def f1(y):
                return (2.0 / d**2) * ((y + d) * (J(y + d) - J(y)) - (K(y + d) - K(y)))

            # phi(u) = g(u + delta): phi's block k is g's block k + 1, and
            # f1's y-block k reads g's block k
            got_g, got_f1 = refiner._sweep(ks[0], ks[-1] + 1)
            want_phi = reference_block_sums(phi, ks, d)
            np.testing.assert_allclose(got_g[1:], want_phi, rtol=0, atol=1e-14)
            # f1 amplifies differences of K by 2 / delta^2 (50 here), and on the
            # Erlang grid K reaches ~12, so moving a sample argument by one ulp
            # moves a block sum by up to 1.1e-14 (either side is as close to a
            # high-precision evaluation as the other)
            want_f1 = reference_block_sums(f1, ks, d)
            np.testing.assert_allclose(got_f1[:-1], want_f1, rtol=0, atol=2e-14)
        else:
            # every block a start reads: the bottom of start i is g's block
            # c = i - 1
            cs = range(-1, n)

            def psi(u):
                return 1.0 - (J(d - u) - J(-u)) / d

            # psi(u) = 1 - g(-u): psi's block k = -1 - c is g's block c
            # reflected, with the same deviation up to sign
            got, bottom_mass, b_val, _ = refiner._sweep(cs[0], cs[-1])
            want = reference_block_sums(psi, [-1 - c for c in cs], d)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
            # the bottom pass: start i reads generic block -i and psi at its edges
            # (off the support that block's deviation is 0 up to rounding)
            frac = np.arange(L) / L
            for i in range(1, n + 1):
                lo, hi = psi(-i * d), psi((1 - i) * d)
                dev = psi((-i + frac) * d) - (lo + (hi - lo) * frac)
                dev[0] = 0.0
                dev_bottom = frac * (dev + (lo - hi) * (1.0 - frac))
                assert bottom_mass[i - 1] == pytest.approx(hi, rel=0, abs=1e-14)
                assert b_val[i - 1] == pytest.approx(
                    d / L * np.abs(dev_bottom).sum(), rel=0, abs=1e-14
                )

    @pytest.mark.parametrize(
        "job, top",
        [(Deterministic(1.23), 1.23), (Deterministic(0.0), 0.0), (Uniform(0.3, 2.7), 2.7)],
        ids=["deterministic", "deterministic-zero", "uniform"],
    )
    def test_specneg_above_support_starts_carry_exact_zeros(self, job, top):
        # a start i >= ceil(top / delta) + 2, for the top of the job's
        # support, ends one jump above i delta - top >= 2 delta, so it never
        # reaches y-block 0: its bottom values are 0 exactly, and no rounding
        # dust makes a charge negative
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.5, job)
        grid = Grid(1 / 100, 5500)
        refiner = OneJumpRefiner(spec, grid)
        assert np.all(refiner.w >= 0.0)
        assert np.all(refiner.s >= 0.0)
        cs = swept_blocks(spec, grid)
        _, bottom_mass, b_val, b_lip = refiner._sweep(cs[0], cs[-1])
        first = int(np.ceil(top / grid.delta)) + 2
        assert first < grid.m_delta
        for values in (bottom_mass, b_val, b_lip):
            assert np.all(values[first - 1 :] == 0.0)

    @pytest.mark.parametrize(
        "job", [Deterministic(1.23), Uniform(0.3, 2.7)], ids=["deterministic", "uniform"]
    )
    def test_specneg_below_support_starts_charge_exact_zeros(self, job):
        # F is 0 up to (a - 1) delta, so one jump takes a start i <= a - 2 to
        # 0, and the rest of the step spreads it uniformly on y-block 0: its
        # one-jump law is its own projection, and the sweep skips its block
        spec = ModelSpec(SN, 0.5, job)
        grid = Grid(1 / 100, 5500)
        refiner = OneJumpRefiner(spec, grid)
        a, _ = extent(job, grid)
        assert a > 2
        assert swept_blocks(spec, grid)[0] == a - 2
        assert np.all(refiner.w[: a - 2] == 0.0)
        assert np.all(refiner.s[: a - 2] == 0.0)

    def test_jobs_beyond_the_grid_build(self):
        # every job leaves [0, M]: the swept blocks read F where it is 0, and
        # nothing is charged for aggregation (the jump is the truncation
        # term's)
        spec = ModelSpec(ModelKind.MG1, 0.25, Uniform(10.0, 15.0))
        grid = Grid(0.5, 10)
        refiner = OneJumpRefiner(spec, grid)
        assert np.all(refiner.w == 0.0)
        res = solve(spec, grid, GeneralMeasure.dirac(1.0), 4, bound_mode="refined")
        assert np.all(res.ledger.rows[:, 0] == 0.0)
        assert np.isfinite(res.ledger.final)


EXTENT_LAWS = [
    pytest.param(Uniform(1.0, 2.0), id="uniform"),
    pytest.param(Deterministic(3 / 50), id="deterministic-on-grid"),
    pytest.param(Deterministic(1.23), id="deterministic-off-grid"),
    pytest.param(Deterministic(0.0), id="deterministic-zero"),
    pytest.param(Pareto(1.0, 1.5), id="pareto"),
    pytest.param(Exponential(8.0), id="exponential"),  # F rounds to 1 below M
    pytest.param(Erlang(3, 2.0), id="erlang"),
    pytest.param(
        TabulatedCdf(np.array([0.0, 0.5, 1.0, 3.0]), np.array([0.0, 0.2, 0.6, 1.0])),
        id="tabulated-gap",
    ),
    pytest.param(Uniform(7.0, 9.0), id="above-m"),
]


@pytest.mark.parametrize("kind", [ModelKind.MG1, SN], ids=["mg1", "specneg"])
@pytest.mark.parametrize("job", EXTENT_LAWS)
class TestExtent:
    """The refiner reads from F at the grid points which blocks to sweep;
    every block it skips has shapes equal to their chords."""

    DELTA, M_DELTA = 1 / 50, 300  # M = 6

    def test_skipped_blocks_read_constant_f(self, monkeypatch, job, kind):
        spec = ModelSpec(kind, 0.5, job)
        grid = Grid(self.DELTA, self.M_DELTA)
        d, n, F = grid.delta, grid.m_delta, job.cdf
        sweep, calls = OneJumpRefiner._sweep, []

        def recorded(refiner, *args):
            calls.append(args)
            return sweep(refiner, *args)

        monkeypatch.setattr(OneJumpRefiner, "_sweep", recorded)
        OneJumpRefiner(spec, grid)
        ((c_lo, c_hi),) = calls
        swept = range(c_lo, c_hi + 1)
        assert swept == swept_blocks(spec, grid)
        # both models read g's blocks -1..n-1: block c (g, M/G/1 state 1's
        # f1 and the spectrally negative bottom of start c + 1) reads F on
        # [c delta, (c + 2) delta], and a skipped block has F 0 or 1 there
        for c in sorted(set(range(-1, n)) - set(swept)):
            assert F(c * d) in (0.0, 1.0) and F((c + 2) * d) == F(c * d), c

    def test_skipped_blocks_carry_nothing(self, monkeypatch, job, kind):
        spec = ModelSpec(kind, 0.5, job)
        grid = Grid(self.DELTA, self.M_DELTA)
        got = OneJumpRefiner(spec, grid)
        # an extent that spans the grid sweeps every block
        monkeypatch.setattr(OneJumpRefiner, "_extent", lambda r: (0, r.grid.m_delta + 1))
        full = OneJumpRefiner(spec, grid)
        # on a skipped block the full sweep adds only rounding: state 1's f1
        # scales K differences by 2 / delta^2 = 5 000, and K reaches ~18 here,
        # so its flat blocks read up to ~2e-11 in w[1], and the bottom pass
        # rebuilds zeros from J as dust of ~3e-18 in s; a skipped block where
        # F moved would add a block sum of order 1e-4 or a slope bound to s
        np.testing.assert_allclose(got.w, full.w, rtol=0, atol=5e-11)
        np.testing.assert_allclose(got.s, full.s, rtol=1e-12, atol=1e-17)


class TestStepBound:
    def test_zero_rate_limit_mg1(self):
        spec = ModelSpec(ModelKind.MG1, 1e-12, Uniform(1.0, 5.0))
        grid = Grid(0.5, 100)
        p = np.ones(101) / 101
        comp = BoundContext(spec, grid, refined=False).components(p)
        assert sum(comp) < 1e-11

    def test_interior_mass_has_no_truncation_term(self):
        spec = ModelSpec(ModelKind.MG1, 0.4, Uniform(1.0, 3.0))
        grid = Grid(0.25, 80)
        p = np.zeros(81)
        p[10] = 1.0
        comp = BoundContext(spec, grid, refined=False).components(p)
        assert comp.truncation_weighted == 0.0
        enl = np.exp(-0.4 * 0.25)
        assert comp.jump_aggregation == pytest.approx(0.4 * 0.25**2 * enl, rel=1e-14, abs=0)
        assert comp.jump_cut == pytest.approx(
            0.4 * 0.25 * (1.0 - enl) * 2.0, rel=1e-14, abs=0  # E[B] = 2
        )

    def test_specneg_top_state_truncation(self):
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.5, Pareto(1.0, 1.5))
        grid = Grid(0.1, 50)
        p = np.zeros(50)
        p[-1] = 1.0
        comp = BoundContext(spec, grid, refined=False).components(p)
        assert comp.truncation_weighted == pytest.approx(
            0.1 * np.exp(-0.05), rel=1e-13
        )

    def test_mean_required_for_mg1(self):
        spec = ModelSpec(ModelKind.MG1, 0.5, Pareto(1.0, 0.9))
        grid = Grid(0.25, 20)
        with pytest.raises(CertificationError):
            BoundContext(spec, grid, refined=False).components(np.ones(21) / 21)

    def test_specneg_heavy_tail_allowed(self):
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.5, Pareto(1.0, 0.9))
        grid = Grid(0.25, 20)
        ctx = BoundContext(spec, grid, refined=False)
        comp = ctx.components(np.ones(20) / 20)
        assert sum(comp) > 0.0


def with_w1_bound(spec, w1):
    """The same model, its law carrying a tabulation charge of w1."""
    job = copy.copy(spec.job)
    object.__setattr__(job, "w1_bound", w1)
    return ModelSpec(spec.kind, spec.lam, job)


def reference_components(spec, grid, refiner, p):
    """The step rule as four branches per step, writing every charge anew.

    Its products are the step rule's own reduction, einsum (not BLAS's dot).
    """
    lam, d, job = spec.lam, grid.delta, spec.job
    enl = float(np.exp(-lam * d))
    q = one_jump_probability(spec, grid)
    slack = lam * d * job.w1_bound
    if refiner is not None:
        agg = q * float(np.einsum("i,i", p, refiner.w))
        slack += q * float(np.einsum("i,i", p, refiner.s))
    else:
        agg = lam * d**2 * enl
    two_or_more = float(-np.expm1(-lam * d) - lam * d * enl)
    jumps = lam * d * (1.0 - enl)  # the mean number of ignored jumps
    if spec.kind is ModelKind.MG1:
        # their mean size, plus delta where the service outweighs them
        cut = jumps * job.mean() + d * two_or_more * float(job.cdf(d / 2))
        trunc_vec = q * job.tail_mean(grid.m - chain_states(spec, grid) * d)
        trunc = float(np.einsum("i,i", p, trunc_vec))
    else:
        # from x <= i delta a path falls by at most x: E[min(B, x)] = x - J(x)
        # per jump, or x once, plus delta where the drift outweighs the jumps;
        # the bottom state moves by at most delta
        x = chain_states(spec, grid) * d
        reach = np.minimum(jumps * (x - job.prefix_cdf(x)), two_or_more * x)
        reach = reach + d * two_or_more * float(job.cdf(d))
        reach[0] = d * two_or_more
        cut = float(np.einsum("i,i", p, reach))
        trunc = d * enl * float(p[-1])
        overshoot_rate = 2.0 * d * lam * d * enl * float(job.cdf(d))
        slack += overshoot_rate * float(p[-1])
    return StepComponents(agg, cut, trunc, slack)


class TestStepRule:
    """The per-run charge terms reproduce the per-step branches bit for bit."""

    @pytest.mark.parametrize("refined", [False, True], ids=["basic", "refined"])
    @pytest.mark.parametrize(
        "spec, delta, m_delta",
        [
            pytest.param(REF_MG1, 1 / 50, 400, id="mg1-uniform"),
            pytest.param(ModelSpec(ModelKind.MG1, 0.4, Erlang(6, 2.0)), 1 / 20, 200,
                         id="mg1-erlang"),
            pytest.param(ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 1 / 3, Pareto(1.0, 1.5)),
                         1 / 20, 200, id="specneg-pareto"),
            # F(delta) > 0: the top state carries an overshoot charge
            pytest.param(ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.5, Exponential(2.0)),
                         1 / 20, 200, id="specneg-exponential"),
            # F(delta / 2) > 0: the cut carries the drift term
            pytest.param(ModelSpec(ModelKind.MG1, 0.5, Exponential(2.0)),
                         1 / 20, 200, id="mg1-exponential"),
        ],
    )
    def test_matches_reference_exactly(self, spec, delta, m_delta, refined):
        grid = Grid(delta, m_delta)
        refiner = OneJumpRefiner(spec, grid) if refined else None
        rng = np.random.default_rng(11)
        # charges lam * delta * w1 near the other slack charges
        for w1 in (1.1e-5, 3.7e-4):
            charged = with_w1_bound(spec, w1)
            ctx = BoundContext(charged, grid, refined)
            assert ctx.row[3] > 0.0
            for top_weight in (0.0, 1.0, 1e3):
                for _ in range(8):
                    p = rng.random(len(chain_states(spec, grid)))
                    p[-1] *= 1.0 + top_weight
                    p /= p.sum()
                    got = ctx.components(p)
                    want = reference_components(charged, grid, refiner, p)
                    assert got == want
                    assert sum(got) == sum(want)


class SquareRootLaw(JobSize):
    """B = 5 sqrt(U), so F(x) = (x/5)^2 on [0, 5], sampled exactly."""

    def sample(self, rng, n):
        return 5.0 * np.sqrt(rng.random(n))


def square_cdf(x):
    return min(max(x / 5.0, 0.0), 1.0) ** 2


class TestTabulationCharge:
    """A tabulated CDF callable certifies the callable's own law."""

    def test_exact_samples_within_certificate(self):
        # M/G/1 with F(x) = (x/5)^2, lam = 1/4, delta = 1/50, M = 50, t = 2
        job = TabulatedCdf.from_cdf(square_cdf, 5.0, 50_000)
        spec = ModelSpec(ModelKind.MG1, 0.25, job)
        grid = Grid(1 / 50, 2500)
        mu0 = GeneralMeasure.dirac(1.0)
        res = solve(spec, grid, mu0, 100, bound_mode="refined")
        dist, bound = res.at_time(2.0)
        n = 100_000
        exact = ModelSpec(ModelKind.MG1, 0.25, SquareRootLaw())
        samples = simulate(SimConfig(exact, mu0, 2.0, n, seed=17))
        est, se = empirical_wasserstein(samples, dist, seed=17)
        # E W1(F_n, F) <= J1(F) / sqrt(n) (Bobkov & Ledoux): the empirical bias
        allowance = 3.0 * se + oracle.bias_allowance(dist, n)
        assert est <= bound + allowance, (est, bound, se)


class TestScalingLaws:
    def test_per_step_order_delta_squared(self):
        # away from truncation, step components shrink like delta^2
        ratios = []
        prev = None
        for m_delta, d in [(50 * 4, 1 / 50), (100 * 4, 1 / 100), (200 * 4, 1 / 200),
                           (400 * 4, 1 / 400)]:
            grid = Grid(d, m_delta)  # M = 4 fixed
            p = np.zeros(len(chain_states(REF_MG1, grid)))
            p[1] = 1.0
            ctx = BoundContext(REF_MG1, grid, refined=False)
            comp = ctx.components(p)
            scaled = (comp.jump_aggregation + comp.jump_cut) / d**2
            if prev is not None:
                ratios.append(scaled / prev)
            prev = scaled
        assert all(0.5 < r < 2.0 for r in ratios)

    def test_cumulative_order_delta_at_fixed_horizon(self):
        # halving delta roughly halves the bound at t = 1 (truncation excluded)
        mu0 = GeneralMeasure.dirac(1.0)
        totals = []
        for d_inv in (50, 100, 200):
            grid = Grid(1 / d_inv, 10 * d_inv)  # M = 10
            res = solve(REF_MG1, grid, mu0, d_inv, bound_mode="refined")
            # the final bound without its truncation charges, summed as the
            # ledger sums its steps
            rows = res.ledger.rows
            trunc = rows[:, StepComponents._fields.index("truncation_weighted")]
            totals.append(res.ledger.b0 + np.cumsum(sum(rows.T) - trunc)[-1])
        for hi, lo in zip(totals, totals[1:]):
            assert 1.7 <= hi / lo <= 2.3
