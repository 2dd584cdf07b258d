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
    JobSize,
    ModelKind,
    ModelSpec,
    OneJumpRefiner,
    Pareto,
    SimConfig,
    TabulatedCdf,
    Uniform,
    empirical_wasserstein,
    simulate,
    solve,
)
from levyq import bounds
from levyq.bounds import SUBGRID, BoundContext, StepComponents

REF_MG1 = ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0))


SN = ModelKind.SPECTRALLY_NEGATIVE


def basic_context(kind, lam, job, delta, m_delta):
    """The basic-mode charges of one model and grid, and the grid."""
    spec = ModelSpec(kind, lam, job)
    grid = spec.grid_for(delta, m_delta)
    return BoundContext(spec, grid, refined=False), grid


def basic_row(kind, lam, job, delta, m_delta=10):
    """The constant charges of a basic-mode step: aggregation, cut, slack."""
    return basic_context(kind, lam, job, delta, m_delta)[0].row


def truncation_at(ctx, grid, i):
    """State i's truncation charge per unit mass: a step's charge from a
    point mass at i (an einsum with a unit vector is exact)."""
    return ctx.components((grid.states() == i).astype(float)).truncation_weighted


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

    def test_specneg_frozen_branches(self):
        # lam = 1/3, delta = 1/100, M = 55, E[B] = 3: first branch is smaller
        value = basic_row(SN, 1 / 3, Pareto(1.0, 1.5), 1 / 100, 5500).jump_cut
        branch1 = 3.327783945476678479797272018278e-5
        branch2 = 3.049328234743234508934268378913e-4
        assert value == pytest.approx(branch1, rel=1e-13, abs=0)
        assert value < branch2

    def test_specneg_without_mean_takes_capped_branch(self):
        capped = basic_row(SN, 1 / 3, Pareto(1.0, 0.9), 1 / 100, 5500).jump_cut
        assert capped == pytest.approx(3.049328234743234508934268378913e-4, rel=1e-12, abs=0)

    def test_specneg_quadratic_scaling(self):
        for job in (Pareto(1.0, 1.5), Pareto(1.0, 0.9)):  # E[B] = 3, no mean
            vals = [
                basic_row(SN, 0.25, job, d, round(10.0 / d)).jump_cut  # M = 10
                for d in (1e-2, 5e-3, 2.5e-3)
            ]
            assert vals[0] / vals[1] == pytest.approx(4.0, rel=2e-2, abs=0)


class TestJumpCutDrift:
    """Jobs far below delta: with two or more jumps the true path moves by
    about the drift, delta, while the chain keeps the mass in place."""

    @pytest.mark.parametrize("job", [Deterministic(1 / 500), Exponential(500.0)],
                             ids=["deterministic", "exponential"])
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_small_jobs_within_certificate(self, kind, job):
        spec = ModelSpec(kind, 50.0, job)  # lam * delta = 1
        grid = spec.grid_for(1 / 50, 250)  # M = 5
        mu0 = GeneralMeasure.dirac(1.0)
        dist, bound = solve(spec, grid, mu0, 25).at_time(0.5)
        samples = simulate(SimConfig(spec, mu0, 0.5, 20_000, seed=7))
        est, se = empirical_wasserstein(samples, dist, seed=7)
        assert est <= bound + 3.0 * se, (est, bound, se)


class TestTruncation:
    def test_mg1_zero_beyond_support(self):
        ctx, grid = basic_context(ModelKind.MG1, 0.25, Uniform(1.0, 5.0), 0.5, 100)  # M = 50
        for i in range(0, 80):  # M - i*d >= 10 > sup support
            assert truncation_at(ctx, grid, i) == 0.0

    def test_mg1_top_state_full_mean(self):
        ctx, grid = basic_context(ModelKind.MG1, 0.25, Uniform(1.0, 5.0), 0.5, 100)
        expected = 0.25 * 0.5 * np.exp(-0.125) * 3.0
        assert truncation_at(ctx, grid, 100) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_mg1_uniform_tail_value(self):
        # M - i*d = 3: tail integral of x over (3, 5] at density 1/4 is 2
        ctx, grid = basic_context(ModelKind.MG1, 0.25, Uniform(1.0, 5.0), 0.5, 100)
        v = truncation_at(ctx, grid, 94)  # 50 - 47 = 3
        assert v == pytest.approx(0.25 * 0.5 * np.exp(-0.125) * 2.0, rel=1e-12, abs=0)

    def test_specneg_only_top_interval(self):
        ctx, grid = basic_context(SN, 0.5, Pareto(1.0, 1.5), 0.1, 50)
        for i in range(1, 50):
            assert truncation_at(ctx, grid, i) == 0.0
        top = truncation_at(ctx, grid, 50)
        assert top == pytest.approx(0.1 * np.exp(-0.05), rel=1e-13, abs=0)
        assert top <= 0.1

    def test_specneg_zero_rate_limit(self):
        ctx, grid = basic_context(SN, 1e-14, Pareto(1.0, 1.5), 0.1, 50)
        assert truncation_at(ctx, grid, 50) == pytest.approx(0.1, rel=1e-12, abs=0)


class TestMonotoneInRate:
    def test_all_components_nondecreasing(self):
        d = 0.01
        lams = np.linspace(1e-3, 1.0 / d, 60)
        agg, cut, cut_sn, trunc = [], [], [], []
        for lam in lams:
            ctx, grid = basic_context(ModelKind.MG1, lam, Uniform(1.0, 5.0), d, 2000)
            agg.append(ctx.row.jump_aggregation)
            cut.append(ctx.row.jump_cut)
            trunc.append(truncation_at(ctx, grid, 2000))
            cut_sn.append(basic_row(SN, lam, Pareto(1.0, 1.5), d, 2000).jump_cut)  # M = 20
        for seq in (agg, cut, cut_sn, trunc):
            assert np.all(np.diff(seq) >= -1e-15)


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
            grid = spec.grid_for(*args)
            refiner = OneJumpRefiner(spec, grid)
            scale = spec.lam * grid.delta * np.exp(-spec.lam * grid.delta)
            for _ in range(3):
                p = rng.random(grid.n_states)
                p /= p.sum()
                value, slack = refined_charge(refiner, p)
                oracle = oracle_mixture_wd(spec, grid, p)
                # certified: value + slack covers the truth
                assert value + slack >= scale * oracle - 1e-13
            # a start in a single interval is charged its own distance: the
            # value tracks the truth up to the slack, and covers it with it
            for i in range(grid.n_states):
                p = np.zeros(grid.n_states)
                p[i] = 1.0
                value, slack = refined_charge(refiner, p)
                oracle = oracle_mixture_wd(spec, grid, p)
                assert value + slack >= scale * oracle - 1e-13
                assert value <= scale * oracle + slack + 1e-13

    def test_point_mass_initial_distribution(self):
        # one-hot from a point mass at 1, coarse grid for oracle speed
        grid = REF_MG1.grid_for(0.1, 200)
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
        grid = spec.grid_for(0.5, 30)
        p = np.zeros(31)
        p[10] = 1.0
        value, _ = refined_charge(OneJumpRefiner(spec, grid), p)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_refined_below_basic_plus_slack(self):
        rng = np.random.default_rng(12)
        for spec, args in self.CASES:
            grid = spec.grid_for(*args)
            basic = BoundContext(spec, grid, refined=False).row.jump_aggregation
            refiner = OneJumpRefiner(spec, grid)
            for _ in range(3):
                p = rng.random(grid.n_states)
                p /= p.sum()
                value, _ = refined_charge(refiner, p)
                assert value <= basic + 1e-15

    def test_refined_solve_on_tabulated_callable(self):
        job = TabulatedCdf.from_cdf(Uniform(1.0, 5.0).cdf, 5.0, 401)
        spec = ModelSpec(ModelKind.MG1, 0.25, job)
        grid = spec.grid_for(0.5, 20)
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
        grid = spec.grid_for(delta, m_delta)
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
        grid = REF_MG1.grid_for(1 / 500, 25_000)
        assert traced_peak(lambda: OneJumpRefiner(REF_MG1, grid)) < 1.05 * 2**20


def swept_blocks(spec, grid):
    """The blocks k whose shape samples the refiner sweeps: the generic
    one-jump shape is constant off the job support."""
    job, d, n = spec.job, grid.delta, grid.m_delta
    if spec.kind is ModelKind.MG1:
        k_lo = max(-2, int(np.floor(job.inf_support / d)) - 2)
        k_hi = n if not np.isfinite(job.sup_support) else min(
            n, int(np.ceil(job.sup_support / d)) + 1
        )
        return range(k_lo, k_hi + 1)
    if not np.isfinite(job.sup_support):
        return range(-n, 1)
    return range(max(-n, -(int(np.ceil(job.sup_support / d)) + 1)), 1)


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


class TestTableSweep:
    """Every shape is read from one table of J (and K) per chunk of blocks."""

    @pytest.mark.parametrize(
        "spec, delta, m_delta",
        [p for p in TestWorkBudget.GRIDS if p.id in ("mg1-uniform", "specneg-pareto")],
    )
    def test_primitives_evaluated_once_per_table_point(
        self, monkeypatch, spec, delta, m_delta
    ):
        grid = spec.grid_for(delta, m_delta)
        points = {"prefix_cdf": 0, "prefix_x_cdf": 0}
        for name in points:
            def counted(job, x, name=name, primitive=getattr(JobSize, name)):
                points[name] += np.size(x)
                return primitive(job, x)

            monkeypatch.setattr(JobSize, name, counted)
        refiner = OneJumpRefiner(spec, grid)
        blocks = len(swept_blocks(spec, grid))
        chunks = -(-blocks // refiner._chunk)
        # each chunk's table spans its blocks, a halo of at most two blocks
        # and the last block's end, once per primitive
        most = (blocks + 2 * chunks) * SUBGRID + chunks
        assert 0 < points["prefix_cdf"] <= most
        assert points["prefix_x_cdf"] <= most

    @pytest.mark.parametrize(
        "spec, args", TestRefined.CASES, ids=["mg1-uniform", "mg1-erlang",
                                             "specneg-pareto", "specneg-uniform"]
    )
    def test_block_sums_match_pointwise_shapes(self, spec, args):
        grid = spec.grid_for(*args)
        refiner = OneJumpRefiner(spec, grid)
        J, K = spec.job.prefix_cdf, spec.job.prefix_x_cdf
        d, n, L = grid.delta, grid.m_delta, SUBGRID
        if spec.kind is ModelKind.MG1:
            ks = range(-2, n + 1)  # every block the sweep may visit

            def phi(u):
                return (J(u + 2 * d) - J(u + d)) / d

            def f1(y):
                return (2.0 / d**2) * ((y + d) * (J(y + d) - J(y)) - (K(y + d) - K(y)))

            got_phi, got_f1 = refiner._sweep_mg1(ks[0], ks[-1])
            want_phi = reference_block_sums(phi, ks, d)
            np.testing.assert_allclose(got_phi, want_phi, rtol=0, atol=1e-14)
            # f1 amplifies differences of K by 2 / delta^2 (50 here), and on the
            # Erlang grid K reaches ~12, so moving a sample argument by one ulp
            # moves a block sum by up to 1.1e-14 (either side is as close to a
            # high-precision evaluation as the other)
            want_f1 = reference_block_sums(f1, ks, d)
            np.testing.assert_allclose(got_f1, want_f1, rtol=0, atol=2e-14)
        else:
            # the blocks the refiner sweeps: on the uniform grid, starts above
            # the job support read no block, and their bottom values stay 0
            ks = swept_blocks(spec, grid)

            def psi(u):
                return 1.0 - (J(d - u) - J(-u)) / d

            got, bottom_mass, b_val, _ = refiner._sweep_specneg(ks[0], np.zeros(len(ks)))
            want = reference_block_sums(psi, ks, d)
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
        "job", [Deterministic(1.23), Deterministic(0.0), Uniform(0.3, 2.7)],
        ids=["deterministic", "deterministic-zero", "uniform"],
    )
    def test_specneg_above_support_starts_carry_exact_zeros(self, job):
        # a start i >= ceil(sup B / delta) + 2 ends one jump above
        # i delta - sup B >= 2 delta, so it never reaches y-block 0: its bottom
        # values are 0 exactly, and no rounding dust makes a charge negative
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.5, job)
        grid = spec.grid_for(1 / 100, 5500)
        refiner = OneJumpRefiner(spec, grid)
        assert np.all(refiner.w >= 0.0)
        assert np.all(refiner.s >= 0.0)
        ks = swept_blocks(spec, grid)
        _, bottom_mass, b_val, b_lip = refiner._sweep_specneg(ks[0], np.zeros(len(ks)))
        first = int(np.ceil(job.sup_support / grid.delta)) + 2
        assert first < grid.m_delta
        for values in (bottom_mass, b_val, b_lip):
            assert np.all(values[first - 1 :] == 0.0)

    def test_jobs_beyond_the_grid_build(self):
        # every job leaves [0, M]: no block is swept and nothing is charged
        # for aggregation (the jump is the truncation term's)
        spec = ModelSpec(ModelKind.MG1, 0.25, Uniform(10.0, 15.0))
        grid = spec.grid_for(0.5, 10)
        refiner = OneJumpRefiner(spec, grid)
        assert np.all(refiner.w == 0.0)
        res = solve(spec, grid, GeneralMeasure.dirac(1.0), 4, bound_mode="refined")
        assert np.all(res.ledger.rows[:, 0] == 0.0)
        assert np.isfinite(res.ledger.final)


class TestStepBound:
    def test_zero_rate_limit_mg1(self):
        spec = ModelSpec(ModelKind.MG1, 1e-12, Uniform(1.0, 5.0))
        grid = spec.grid_for(0.5, 100)
        p = np.ones(101) / 101
        comp = BoundContext(spec, grid, refined=False).components(p)
        assert sum(comp) < 1e-11

    def test_interior_mass_has_no_truncation_term(self):
        spec = ModelSpec(ModelKind.MG1, 0.4, Uniform(1.0, 3.0))
        grid = spec.grid_for(0.25, 80)
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
        grid = spec.grid_for(0.1, 50)
        p = np.zeros(50)
        p[-1] = 1.0
        comp = BoundContext(spec, grid, refined=False).components(p)
        assert comp.truncation_weighted == pytest.approx(
            0.1 * np.exp(-0.05), rel=1e-13
        )

    def test_mean_required_for_mg1(self):
        spec = ModelSpec(ModelKind.MG1, 0.5, Pareto(1.0, 0.9))
        grid = spec.grid_for(0.25, 20)
        with pytest.raises(CertificationError):
            BoundContext(spec, grid, refined=False).components(np.ones(21) / 21)

    def test_specneg_heavy_tail_allowed(self):
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.5, Pareto(1.0, 0.9))
        grid = spec.grid_for(0.25, 20)
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
    # the mean of the ignored jumps, plus delta where the drift can outweigh them
    mean_cut = None if job.mean() is None else lam * d * (1.0 - enl) * job.mean()
    if spec.kind is ModelKind.MG1:
        cut = mean_cut + d * two_or_more * float(job.cdf(d / 2))
        trunc_vec = q * job.tail_mean(grid.m - grid.states() * d)
        trunc = float(np.einsum("i,i", p, trunc_vec))
    else:
        cut = two_or_more * (grid.m + d)
        if mean_cut is not None:
            cut = min(mean_cut + d * two_or_more * float(job.cdf(d)), cut)
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
        grid = spec.grid_for(delta, m_delta)
        refiner = OneJumpRefiner(spec, grid) if refined else None
        rng = np.random.default_rng(11)
        # charges lam * delta * w1 near the other slack charges
        for w1 in (1.1e-5, 3.7e-4):
            charged = with_w1_bound(spec, w1)
            ctx = BoundContext(charged, grid, refined)
            assert ctx.row[3] > 0.0
            for top_weight in (0.0, 1.0, 1e3):
                for _ in range(8):
                    p = rng.random(grid.n_states)
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


def lifted_j1(dist):
    """Upper sum of J1(F) = int sqrt(F (1 - F)) for a lifted law's CDF.

    F is linear on each interval and sqrt(u (1 - u)) is concave, so by
    Jensen each interval contributes at most its width times the value at
    the interval's mean F.
    """
    edges = dist.atom0 + np.concatenate([[0.0], np.cumsum(dist.interval_mass)])
    mean_f = np.clip((edges[:-1] + edges[1:]) / 2.0, 0.0, 1.0)
    return dist.grid.delta * float(np.sqrt(mean_f * (1.0 - mean_f)).sum())


class TestTabulationCharge:
    """A tabulated CDF callable certifies the callable's own law."""

    def test_exact_samples_within_certificate(self):
        # M/G/1 with F(x) = (x/5)^2, lam = 1/4, delta = 1/50, M = 50, t = 2
        job = TabulatedCdf.from_cdf(square_cdf, 5.0, 50_000)
        spec = ModelSpec(ModelKind.MG1, 0.25, job)
        grid = spec.grid_for(1 / 50, 2500)
        mu0 = GeneralMeasure.dirac(1.0)
        res = solve(spec, grid, mu0, 100, bound_mode="refined")
        dist, bound = res.at_time(2.0)
        n = 100_000
        exact = ModelSpec(ModelKind.MG1, 0.25, SquareRootLaw())
        samples = simulate(SimConfig(exact, mu0, 2.0, n, seed=17))
        est, se = empirical_wasserstein(samples, dist, seed=17)
        # E W1(F_n, F) <= J1(F) / sqrt(n) (Bobkov & Ledoux): the empirical bias
        allowance = 3.0 * se + lifted_j1(dist) / np.sqrt(n)
        assert est <= bound + allowance, (est, bound, se)


class TestScalingLaws:
    def test_per_step_order_delta_squared(self):
        # away from truncation, step components shrink like delta^2
        ratios = []
        prev = None
        for m_delta, d in [(50 * 4, 1 / 50), (100 * 4, 1 / 100), (200 * 4, 1 / 200),
                           (400 * 4, 1 / 400)]:
            grid = REF_MG1.grid_for(d, m_delta)  # M = 4 fixed
            p = np.zeros(grid.n_states)
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
            grid = REF_MG1.grid_for(1 / d_inv, 10 * d_inv)  # M = 10
            res = solve(REF_MG1, grid, mu0, d_inv, bound_mode="refined")
            # the final bound without its truncation charges, summed as the
            # ledger sums its steps
            rows = res.ledger.rows
            trunc = rows[:, StepComponents._fields.index("truncation_weighted")]
            totals.append(res.ledger.b0 + np.cumsum(sum(rows.T) - trunc)[-1])
        for hi, lo in zip(totals, totals[1:]):
            assert 1.7 <= hi / lo <= 2.3
