"""Exact path simulator: distributional sanity and reproducibility."""

import numpy as np
import pytest

from levyq import (
    Erlang,
    GeneralMeasure,
    Grid,
    LiftedDistribution,
    ModelKind,
    ModelSpec,
    Pareto,
    SimConfig,
    Uniform,
    empirical_wasserstein,
    simulate,
    wasserstein,
)

REF_MG1 = ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0))
HEAVY = ModelSpec(ModelKind.MG1, 0.4, Erlang(6, 2.0))
REF_SN = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 1 / 3, Pareto(1.0, 1.5))


class TestSimulate:
    def test_reproducible(self):
        cfg = SimConfig(REF_MG1, GeneralMeasure.dirac(1.0), 2.0, 70_000, seed=5)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a, b)
        c = simulate(SimConfig(REF_MG1, GeneralMeasure.dirac(1.0), 2.0, 70_000, seed=6))
        assert not np.array_equal(a, c)

    def test_batching_invariant_prefix(self):
        # the first paths do not depend on how many more are requested
        small = simulate(SimConfig(REF_MG1, GeneralMeasure.dirac(1.0), 1.0, 1000, 7))
        large = simulate(SimConfig(REF_MG1, GeneralMeasure.dirac(1.0), 1.0, 5000, 7))
        assert np.array_equal(small, large[:1000])

    def test_no_jump_frequency(self):
        # share of paths still at the deterministic drift point ~ e^{-lam t}
        t, n = 1.5, 200_000
        samples = simulate(SimConfig(REF_MG1, GeneralMeasure.dirac(3.0), t, n, 11))
        hit = np.mean(samples == 3.0 - t)
        p = np.exp(-REF_MG1.lam * t)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(hit - p) < 4 * se

    def test_mg1_drift_exact_value(self):
        # jump-free paths drain exactly t units of work
        samples = simulate(SimConfig(REF_MG1, GeneralMeasure.dirac(1.0), 0.5, 50_000, 3))
        assert np.min(samples) == pytest.approx(0.5, abs=1e-12)
        assert np.mean(samples == 0.5) > 0.8  # e^{-1/8} ~ 0.88

    def test_mg1_reflection_at_zero(self):
        spec = ModelSpec(ModelKind.MG1, 0.1, Uniform(1.0, 5.0))
        samples = simulate(SimConfig(spec, GeneralMeasure.dirac(0.5), 2.0, 20_000, 4))
        assert np.min(samples) >= 0.0
        assert np.mean(samples == 0.0) > 0.5

    def test_specneg_jump_stopped_at_zero(self):
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 3.0, Pareto(1.0, 1.5))
        samples = simulate(SimConfig(spec, GeneralMeasure.dirac(0.5), 1.0, 20_000, 9))
        assert np.min(samples) >= 0.0

    def test_specneg_no_jump_drift(self):
        samples = simulate(SimConfig(REF_SN, GeneralMeasure.dirac(5.0), 3.0, 100_000, 13))
        frac = np.mean(samples == 8.0)
        p = np.exp(-1.0)
        se = np.sqrt(p * (1 - p) / 100_000)
        assert abs(frac - p) < 4 * se

    def test_busy_period_stability(self):
        # rho < 1: workload stabilizes; rho = 6/5 > 1: it keeps growing
        stable = REF_MG1  # rho = 0.75
        m1 = np.mean(simulate(SimConfig(stable, GeneralMeasure.dirac(0.0), 40.0, 30_000, 21)))
        m2 = np.mean(simulate(SimConfig(stable, GeneralMeasure.dirac(0.0), 80.0, 30_000, 22)))
        assert m2 < m1 * 1.5 + 1.0
        g1 = np.mean(simulate(SimConfig(HEAVY, GeneralMeasure.dirac(0.0), 40.0, 30_000, 23)))
        g2 = np.mean(simulate(SimConfig(HEAVY, GeneralMeasure.dirac(0.0), 80.0, 30_000, 24)))
        assert g2 > g1 + 4.0  # drift ~ rho - 1 = 0.2 per unit time

    def test_initial_law_sampling(self):
        mu0 = GeneralMeasure(atoms=[(2.0, 0.5)], pieces=[(0.0, 1.0, 0.5)])
        samples = simulate(SimConfig(REF_MG1, mu0, 0.0, 50_000, 31))
        assert np.mean(samples == 2.0) == pytest.approx(0.5, abs=0.02)
        assert np.mean(samples < 1.0) == pytest.approx(0.5, abs=0.02)

    def test_empirical_atom_against_discretization(self):
        # empirical P(Q = 0) at t = 1 vs the discretized chain's atom
        from levyq import solve

        mu0 = GeneralMeasure.dirac(1.0)
        grid = REF_MG1.grid_for(1 / 100, 1200)
        res = solve(REF_MG1, grid, mu0, 100)
        dist, bound = res.at_time(1.0)
        n = 100_000
        samples = simulate(SimConfig(REF_MG1, mu0, 1.0, n, 8))
        freq = float(np.mean(samples == 0.0))
        se = np.sqrt(freq * (1.0 - freq) / n)
        assert abs(freq - dist.atom0) <= bound + 4 * se


class TestEmpiricalWasserstein:
    def _lifted(self):
        g = Grid(0.5, 8)
        w = np.array([0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.0])
        return LiftedDistribution(g, 0.1, w)

    def test_single_atom_matches_dirac(self):
        g = Grid(0.5, 2)
        m = LiftedDistribution(g, 1.0, np.zeros(2))
        est, se = empirical_wasserstein(np.zeros(1000), m)
        assert est == 0.0
        assert se == 0.0

    def test_consistency_rate(self):
        # samples drawn from the lifted law itself: distance ~ n^{-1/2}
        m = self._lifted()
        rng = np.random.default_rng(17)
        mu = GeneralMeasure(
            atoms=[(0.0, m.atom0)],
            pieces=[
                (i * 0.5, (i + 1) * 0.5, float(w))
                for i, w in enumerate(m.interval_mass)
                if w > 0
            ],
        )
        prev = None
        for n in (1000, 10_000, 100_000):
            est, _ = empirical_wasserstein(mu.sample(rng, n), m, n_boot=10)
            if prev is not None:
                assert est < prev  # decreasing
            prev = est
        assert prev < 0.02  # ~ c / sqrt(1e5)

    def test_bootstrap_se_scale(self):
        m = self._lifted()
        rng = np.random.default_rng(18)
        mu = GeneralMeasure(atoms=[(0.0, 0.1)], pieces=[(0.0, 4.0, 0.9)])
        samples = mu.sample(rng, 4000)
        est, se = empirical_wasserstein(samples, m, n_boot=200, seed=1)
        assert se > 0.0
        # the estimate is a distance between fixed measures up to ~n^{-1/2}
        # noise; the bootstrap spread must be of that order, not wildly off
        assert se < est
        assert se > 1e-4

    def test_matches_per_resample_measures(self):
        # reference: each resample's empirical measure built from the same
        # draws; samples have ties, sit on the atom at 0 and pass M = 4
        m = self._lifted()
        samples = np.round(np.random.default_rng(20).uniform(0.0, 4.6, 300), 1)
        n, n_boot, seed = len(samples), 30, 3

        def empirical(xs):
            values, counts = np.unique(xs, return_counts=True)
            return GeneralMeasure(atoms=list(zip(values, counts / len(xs))))

        key = np.array([seed, 2**32], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        stats = [
            wasserstein(empirical(samples[rng.integers(0, n, n)]), m)
            for _ in range(n_boot)
        ]
        est, se = empirical_wasserstein(samples, m, n_boot=n_boot, seed=seed)
        assert est == pytest.approx(wasserstein(empirical(samples), m), rel=1e-12)
        assert se == pytest.approx(np.std(stats, ddof=1), rel=1e-12)

    def test_deterministic_given_seed(self):
        m = self._lifted()
        samples = np.random.default_rng(19).uniform(0, 4, 3000)
        a = empirical_wasserstein(samples, m, seed=7)
        b = empirical_wasserstein(samples, m, seed=7)
        assert a == b

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            empirical_wasserstein(np.array([1.0]), self._lifted())
