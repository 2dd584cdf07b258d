"""End-to-end solver behavior: initialization, iteration, certificates."""

import numpy as np
import pytest

from levyq import (
    CertificationError,
    Deterministic,
    GeneralMeasure,
    Grid,
    GridError,
    ModelKind,
    ModelSpec,
    Pareto,
    SupportError,
    Uniform,
    certified_tail,
    discretize_initial,
    lift,
    rescale_for_speed,
    solve,
    wasserstein,
)

REF_MG1 = ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0))
REF_SN = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 1 / 3, Pareto(1.0, 1.5))


class TestDiscretizeInitial:
    def test_dirac_one_fine_grid(self):
        grid = Grid(1 / 500, 25000)
        p, b0 = discretize_initial(GeneralMeasure.dirac(1.0), grid)
        assert p[500] == 1.0
        assert b0 == pytest.approx(0.001, abs=1e-12)

    def test_dirac_five_hundredth_grid(self):
        grid = Grid(1 / 100, 5500)
        p, b0 = discretize_initial(GeneralMeasure.dirac(5.0), grid)
        assert p[500] == 1.0  # interval 500; entry 0 is the mass at 0
        assert b0 == pytest.approx(0.005, abs=1e-12)

    def test_grid_aligned_measure_has_zero_error(self):
        grid = Grid(0.5, 20)
        mu0 = GeneralMeasure(
            atoms=[(0.0, 0.25)], pieces=[(0.5, 1.0, 0.5), (2.0, 2.5, 0.25)]
        )
        _, b0 = discretize_initial(mu0, grid)
        assert b0 == pytest.approx(0.0, abs=1e-14)

    def test_b0_never_exceeds_delta(self):
        rng = np.random.default_rng(0)
        grid = Grid(0.3, 30)
        for _ in range(50):
            atoms = [(float(rng.uniform(0, 9)), 0.5)]
            pieces = [(1.0, 1.0 + float(rng.uniform(0.1, 5)), 0.5)]
            mu0 = GeneralMeasure(atoms=atoms, pieces=pieces)
            _, b0 = discretize_initial(mu0, grid)
            assert b0 <= grid.delta + 1e-14

    def test_support_beyond_truncation_rejected(self):
        grid = Grid(0.5, 10)  # M = 5
        with pytest.raises(SupportError, match="increase truncation"):
            discretize_initial(GeneralMeasure.dirac(6.0), grid)

    @pytest.mark.parametrize("m_delta", [1, 10])
    @pytest.mark.parametrize("mu0", [GeneralMeasure.dirac(0.0), GeneralMeasure.dirac(0.5)],
                             ids=["atom-at-0", "atom-at-edge"])
    def test_mass_at_zero_then_every_interval(self, mu0, m_delta):
        # one layout on every grid: the model, not the grid, decides whether
        # entry 0 is a chain state
        p, _ = discretize_initial(mu0, Grid(0.5, m_delta))
        assert p.shape == (m_delta + 1,)
        assert p[0] == mu0.mass_at_zero()
        assert p.sum() == 1.0

    def test_atom_at_zero_needs_zero_state(self):
        # the spectrally negative chain has no state for the mass at 0
        grid = Grid(0.5, 10)
        with pytest.raises(GridError, match="no zero state"):
            solve(REF_SN, grid, GeneralMeasure.dirac(0.0), 1)
        mu0 = GeneralMeasure(atoms=[(0.0, 1e-300), (1.0, 1.0 - 1e-300)])
        with pytest.raises(GridError, match="no zero state"):
            solve(REF_SN, grid, mu0, 0)

    def test_roundtrip_through_lift(self):
        grid = Grid(0.5, 12)
        rng = np.random.default_rng(1)
        p = rng.random(13)
        p /= p.sum()
        lifted = lift(grid, p)
        mu0 = GeneralMeasure(
            atoms=[(0.0, lifted.atom0)],
            pieces=[
                (i * 0.5, (i + 1) * 0.5, float(m))
                for i, m in enumerate(lifted.interval_mass)
                if m > 0
            ],
        )
        p_again, b0 = discretize_initial(mu0, grid)
        assert np.max(np.abs(p_again - p)) < 1e-12
        assert b0 == pytest.approx(0.0, abs=1e-12)


    def test_fine_grid_projection_stays_within_budget(self, traced_peak):
        # 25 001 states: the elementwise stages of the projection and of b0
        # run in work slices, leaving ~9 full-length arrays (1.9 MiB traced)
        grid = Grid(1 / 500, 25_000)
        mu0 = GeneralMeasure(atoms=[(1.0, 0.5)], pieces=[(2.0, 3.5, 0.5)])
        assert traced_peak(lambda: discretize_initial(mu0, grid)) < 2.5 * 2**20


class TestLift:
    def test_one_hot_zero_state(self):
        grid = Grid(0.5, 4)
        p = np.zeros(5)
        p[0] = 1.0
        m = lift(grid, p)
        assert m.atom0 == 1.0
        assert m.interval_mass.sum() == 0.0

    def test_uniform_vector(self):
        grid = Grid(0.5, 4)
        m = lift(grid, np.ones(5) / 5)
        assert m.atom0 == pytest.approx(0.2)
        assert np.allclose(m.densities(), 0.4)


class TestSolve:
    def test_horizon_zero(self):
        grid = Grid(0.5, 20)
        res = solve(REF_MG1, grid, GeneralMeasure.dirac(1.0), 0)
        assert len(res.times) == 1
        assert res.ledger.final == res.ledger.b0

    def test_zero_rate_pure_drift(self):
        spec = ModelSpec(ModelKind.MG1, 1e-13, Uniform(1.0, 5.0))
        grid = Grid(0.25, 40)
        res = solve(spec, grid, GeneralMeasure.dirac(1.0), 4, bound_mode="basic")
        final, bound = res.distributions[-1], res.bounds[-1]
        assert final.atom0 == pytest.approx(1.0, abs=1e-10)
        assert bound == pytest.approx(res.ledger.b0, abs=1e-11)

    def test_mass_conservation(self):
        grid = Grid(0.1, 300)
        res = solve(
            REF_MG1, grid, GeneralMeasure.dirac(1.0), 100, snapshot_steps=range(0, 101, 20)
        )
        for m in res.distributions:
            assert abs(m.atom0 + m.interval_mass.sum() - 1.0) < 1e-10

    def test_zero_atom_no_arrival_floor(self):
        # paths that never see an arrival stay at 0
        spec = ModelSpec(ModelKind.MG1, 0.4, Uniform(1.0, 3.0))
        grid = Grid(0.1, 100)
        res = solve(
            spec,
            grid,
            GeneralMeasure(atoms=[(0.0, 1.0)]),
            80,
            snapshot_steps=range(0, 81, 10),
        )
        for k, m in zip(res.snapshot_steps, res.distributions):
            assert m.atom0 >= np.exp(-0.4 * k * 0.1) - 1e-9

    def test_specneg_on_a_grid_built_directly(self):
        # the grid carries no model facts: the same Grid serves both chains
        grid = Grid(1 / 10, 50)
        for spec in (REF_SN, REF_MG1):
            res = solve(spec, grid, GeneralMeasure.dirac(1.0), 10)
            final = res.distributions[-1]
            assert final.atom0 + final.interval_mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert final.atom0 > 0.0  # M/G/1 idles at 0
        assert res.ledger.final > 0.0

    def test_specneg_drift_spike(self):
        res = solve(
            REF_SN,
            Grid(0.1, 120),
            GeneralMeasure.dirac(5.0),
            30,
            snapshot_steps=range(0, 31, 10),
        )
        for k, m in zip(res.snapshot_steps, res.distributions):
            pos = 5.0 + k * 0.1
            idx = int(round(pos / 0.1)) - 1
            assert m.interval_mass[idx] >= np.exp(-REF_SN.lam * k * 0.1) - 1e-9

    @pytest.mark.parametrize("extra, step", [(1e-11, 101), (np.nan, 1)], ids=["drift", "nan"])
    def test_mass_drift_refused(self, leak_mass, extra, step):
        # the bound does not charge for mass the chain gains or loses, so the
        # first step whose total leaves 1 +- 1e-9 ends the run with a typed error
        leak_mass(extra)
        grid = Grid(0.5, 20)
        with pytest.raises(CertificationError, match=rf"chain mass .* after step {step}$"):
            solve(REF_MG1, grid, GeneralMeasure.dirac(1.0), 400)

    def test_cumulative_bound_nondecreasing(self):
        grid = Grid(0.25, 80)
        res = solve(REF_MG1, grid, GeneralMeasure.dirac(1.0), 40)
        assert np.all(np.diff(res.ledger.cumulative) >= -1e-18)
        # every charge is an upper bound, so no entry may be negative, not
        # even by rounding: a start far above a bounded job support once
        # charged the rounding dust of its exactly-zero bottom values
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.5, Deterministic(1.23))
        res = solve(spec, Grid(1 / 100, 5500), GeneralMeasure.dirac(50.0), 20)
        assert np.all(res.ledger.rows >= 0.0)
        assert res.ledger.b0 >= 0.0
        assert np.all(np.diff(res.ledger.cumulative) >= 0.0)

    def test_triangle_inequality_between_resolutions(self):
        # both runs approximate the same law, so their mutual distance is
        # bounded by the sum of the certified bounds
        mu0 = GeneralMeasure.dirac(1.0)
        grid_c = Grid(1 / 20, 20 * 12)
        grid_f = Grid(1 / 40, 40 * 12)
        res_c = solve(REF_MG1, grid_c, mu0, 20 * 2)
        res_f = solve(REF_MG1, grid_f, mu0, 40 * 2)
        d = wasserstein(res_c.distributions[-1], res_f.distributions[-1])
        assert d <= res_c.bounds[-1] + res_f.bounds[-1] + 1e-12

    def test_snapshot_selection(self):
        grid = Grid(0.5, 20)
        res = solve(
            REF_MG1, grid, GeneralMeasure.dirac(1.0), 10, snapshot_steps=[2, 4]
        )
        assert list(res.snapshot_steps) == [0, 2, 4, 10]
        res = solve(
            REF_MG1, grid, GeneralMeasure.dirac(1.0), np.int64(10),
            snapshot_steps=np.array([2, 4]),
        )
        assert list(res.snapshot_steps) == [0, 2, 4, 10]
        with pytest.raises(ValueError):
            solve(REF_MG1, grid, GeneralMeasure.dirac(1.0), 10, snapshot_steps=[11])

    @pytest.mark.parametrize(
        "horizon_steps, snapshot_steps",
        [(10, [2.7]), (10, [True]), (10, [np.float64(4.0)]), (10.0, None), (True, None)],
        ids=["float-snapshot", "bool-snapshot", "numpy-float-snapshot", "float-horizon",
             "bool-horizon"],
    )
    def test_refuses_non_integer_steps(self, horizon_steps, snapshot_steps):
        grid = Grid(0.5, 20)
        with pytest.raises(ValueError, match="integer"):
            solve(REF_MG1, grid, GeneralMeasure.dirac(1.0), horizon_steps, snapshot_steps)

    def test_ledger_matches_time_axis(self):
        grid = Grid(0.5, 20)
        res = solve(
            REF_MG1, grid, GeneralMeasure.dirac(1.0), 10, snapshot_steps=range(0, 11, 5)
        )
        assert len(res.ledger.cumulative) == 11
        assert np.allclose(res.times, [0.0, 2.5, 5.0])


class TestCertifiedTail:
    def _result(self):
        grid = Grid(0.25, 60)
        return solve(
            REF_MG1, grid, GeneralMeasure.dirac(1.0), 16, snapshot_steps=range(0, 17, 8)
        )

    def test_bracket_order(self):
        res = self._result()
        for x in np.linspace(0.0, 16.0, 23):
            lo, hi = certified_tail(res, 2, float(x), 0.25)
            assert 0.0 <= lo <= hi <= 1.0

    def test_beyond_support(self):
        res = self._result()
        b = float(res.bounds[2])
        lo, hi = certified_tail(res, 2, res.grid.m + 1.0, 0.5)
        assert lo == 0.0
        assert hi == pytest.approx(min(1.0, b / 0.5), rel=1e-12)

    def test_zero_bound_tight_limit(self):
        # a grid-aligned initial law has b0 = 0: with shrinking slack the
        # bracket collapses to the exact lifted tail mass
        grid = Grid(0.25, 60)
        mu0 = GeneralMeasure(pieces=[(1.0, 1.25, 0.5), (3.0, 3.25, 0.5)])
        res = solve(REF_MG1, grid, mu0, 0)
        assert res.bounds[0] == 0.0
        m = res.distributions[0]
        for x in [0.5, 1.0, 5.0]:
            exact = m.threshold_mass(x)
            lo, hi = certified_tail(res, 0, x, 1e-9)
            assert lo <= exact <= hi
            assert hi - lo < 1e-5

    def test_slack_monotonicity(self):
        res = self._result()
        x = 3.0
        widths = []
        for slack in [0.1, 0.2, 0.4]:
            lo, hi = certified_tail(res, 2, x, slack)
            assert lo <= hi
            widths.append((lo, hi))
        # lower bounds stay valid (no crossing) as slack grows
        for (lo1, hi1), (lo2, hi2) in zip(widths, widths[1:]):
            assert lo2 <= hi1 + 1e-12

    def test_requires_positive_slack(self):
        res = self._result()
        with pytest.raises(ValueError):
            certified_tail(res, 0, 1.0, 0.0)

    def test_bracket_contains_monte_carlo_estimate(self):
        # exceedance probability at t = 1 against exact path simulation
        from levyq import SimConfig, simulate

        grid = Grid(1 / 200, 200 * 12)
        res = solve(REF_MG1, grid, GeneralMeasure.dirac(1.0), 200)
        snap = len(res.times) - 1
        lo, hi = certified_tail(res, snap, 5.0, 0.1)
        samples = simulate(SimConfig(REF_MG1, GeneralMeasure.dirac(1.0), 1.0, 100_000, 3))
        mc = float(np.mean(samples > 5.0))
        se = np.sqrt(mc * (1 - mc) / 100_000)
        assert lo - 4 * se <= mc <= hi + 4 * se


class TestLongHorizon:
    def test_paper_chain_mean_floor(self):
        # The paper chain's lifted mean settles about 6.2 delta below the
        # Pollaczek-Khinchine mean lam E[B^2] / (2 (1 - rho)) = 31/6 (the
        # same multiple of delta at delta = 1/100).  The mean is 1-Lipschitz,
        # so that gap is a floor under the chain's W1 error at long horizons.
        # E[W_t] still rises by about 0.1 delta between t = 400 and t = 800,
        # hence the band's width.
        d = 1 / 50
        grid = Grid(d, 5000)  # M = 100
        res = solve(REF_MG1, grid, GeneralMeasure.dirac(1.0), 20_000, bound_mode="basic")
        assert res.times[-1] == 400.0
        gap = 31 / 6 - res.distributions[-1].mean()
        assert 5.5 * d <= gap <= 7.0 * d


class TestSpeedRescaling:
    def test_solution_maps_back(self):
        from levyq import rescale_for_speed

        # a unit-speed model solved directly equals the r-speed model solved
        # after normalization, with workloads scaled by r
        r = 2.0
        base = ModelSpec(ModelKind.MG1, 0.3, Uniform(1.0, 3.0))
        normalized, scale = rescale_for_speed(base, r)
        assert scale == r
        assert normalized.job.mean() == pytest.approx(base.job.mean() / r)
        grid = Grid(0.25 / r, 80)
        res = solve(normalized, grid, GeneralMeasure.dirac(1.0 / r), 8)
        assert res.ledger.final > 0

    @pytest.mark.parametrize(
        "r", [float("nan"), float("inf"), 0.0, -1.0], ids=["nan", "inf", "zero", "negative"]
    )
    def test_non_positive_or_non_finite_speed_refused(self, r):
        from levyq import Exponential, rescale_for_speed

        base = ModelSpec(ModelKind.MG1, 0.3, Exponential(1.0))
        with pytest.raises(ValueError, match="speed must be positive and finite"):
            rescale_for_speed(base, r)


NAN, INF = float("nan"), float("inf")
BAD_QUERIES = [
    pytest.param(lambda res: res.at_time(NAN), KeyError, id="at-time-nan"),
    pytest.param(lambda res: res.at_time(INF), KeyError, id="at-time-inf"),
    pytest.param(lambda res: certified_tail(res, 1, 5.0, NAN), ValueError, id="tail-slack-nan"),
    pytest.param(lambda res: certified_tail(res, 1, NAN, 0.1), ValueError, id="tail-x-nan"),
    pytest.param(lambda res: certified_tail(res, 1, 5.0, True), ValueError, id="tail-slack-bool"),
    pytest.param(lambda res: certified_tail(res, True, 5.0, 0.1), ValueError,
                 id="tail-snapshot-bool"),
    pytest.param(lambda res: certified_tail(res, -1, 5.0, 0.1), ValueError,
                 id="tail-snapshot-minus-one"),
    pytest.param(lambda res: certified_tail(res, len(res.times), 5.0, 0.1), ValueError,
                 id="tail-snapshot-len"),
    pytest.param(lambda res: res.distributions[1].threshold_mass(NAN), ValueError,
                 id="threshold-nan"),
    pytest.param(lambda res: rescale_for_speed(res.spec, True), ValueError, id="speed-bool"),
]


class TestQueryArguments:
    """Queries refuse NaN, infinite and bool arguments instead of answering."""

    @pytest.fixture(scope="class")
    def res(self):
        # 201 states, delta = 0.1, snapshots at t = 0, 1, 2
        grid = Grid(0.1, 200)
        return solve(REF_MG1, grid, GeneralMeasure.dirac(1.0), 20, snapshot_steps=[10])

    @pytest.mark.parametrize("query, error", BAD_QUERIES)
    def test_refused(self, res, query, error):
        with pytest.raises(error):
            query(res)
