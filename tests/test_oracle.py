"""Exact path simulator: distributional sanity and reproducibility."""

import numpy as np
import pytest

from levyq import (
    Deterministic,
    Erlang,
    Exponential,
    GeneralMeasure,
    Grid,
    LiftedDistribution,
    ModelKind,
    ModelSpec,
    Pareto,
    SimConfig,
    TabulatedCdf,
    Uniform,
    empirical_wasserstein,
    simulate,
    wasserstein,
)
from levyq import oracle
from levyq.measure import empirical_distance

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

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_integer_time_samples_like_float(self, kind):
        # the drift since the last jump is a float even when t is an int
        spec = ModelSpec(kind, 2.0, Uniform(0.5, 3.0))
        a = simulate(SimConfig(spec, GeneralMeasure.dirac(0.5), 2, 5_000, seed=11))
        b = simulate(SimConfig(spec, GeneralMeasure.dirac(0.5), 2.0, 5_000, seed=11))
        assert np.array_equal(a, b)

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
        grid = Grid(1 / 100, 1200)
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
        # draws, in the same call order (one multinomial over the tied values
        # and the pool of untied samples, then picks in the pool); samples
        # have ties, sit on the atom at 0 and pass M = 4, or lie inside
        # (0.5, 3.5), so that grid edges sit below and above every sample
        m = self._lifted()
        tied_only = np.round(np.random.default_rng(20).uniform(0.0, 4.6, 300), 1)
        mixed = np.concatenate([tied_only, np.random.default_rng(22).uniform(0.0, 4.6, 60)])
        inner = np.concatenate([
            np.round(np.random.default_rng(24).uniform(0.6, 3.4, 200), 1),
            np.random.default_rng(25).uniform(0.6, 3.4, 40),
        ])
        n_boot, seed = 30, 3

        def empirical(xs):
            values, counts = np.unique(xs, return_counts=True)
            return GeneralMeasure(atoms=list(zip(values, counts / len(xs))))

        for samples in (tied_only, mixed, inner):
            n = len(samples)
            values, inv, mult = np.unique(samples, return_inverse=True, return_counts=True)
            tied = values[mult > 1]
            untied = samples[mult[inv] == 1]
            distance = empirical_distance(values, m)
            # the segments between merged breakpoints, and m's CDF at their ends
            xs = np.union1d(values, m.grid.edges())
            m_start, m_end = m.cdf(xs[:-1]), m.cdf(xs[1:])  # m is continuous above 0
            crossing = 0
            key = np.array([seed, 2**32], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            stats = []
            for _ in range(n_boot):
                if len(untied):
                    c = rng.multinomial(n, np.append(mult[mult > 1], len(untied)) / n)
                    picks = untied[rng.integers(0, len(untied), c[-1])]
                    xs_b = np.concatenate([np.repeat(tied, c[:-1]), picks])
                else:
                    xs_b = np.repeat(tied, rng.multinomial(n, mult / n))
                stats.append(wasserstein(empirical(xs_b), m))
                counts = np.bincount(np.searchsorted(values, xs_b), minlength=len(values))
                assert distance(counts) == pytest.approx(stats[-1], rel=1e-12)
                f = np.searchsorted(np.sort(xs_b), xs[:-1], side="right") / n
                crossing += np.count_nonzero((m_start < f) & (f < m_end))
            est, se = empirical_wasserstein(samples, m, n_boot=n_boot, seed=seed)
            assert est == pytest.approx(wasserstein(empirical(samples), m), rel=1e-12)
            assert se == pytest.approx(np.std(stats, ddof=1), rel=1e-12)
        # the last set leaves edges 0 and 0.5 below it and 3.5 and 4 above it,
        # and its resampled CDFs cross m's inside a segment
        assert 0.5 < inner.min() and inner.max() < 3.5
        assert crossing > 0

    def test_deterministic_given_seed(self):
        m = self._lifted()
        samples = np.random.default_rng(19).uniform(0, 4, 3000)
        a = empirical_wasserstein(samples, m, seed=7)
        b = empirical_wasserstein(samples, m, seed=7)
        assert a == b

    @pytest.mark.parametrize(
        "samples, n_boot, seed, match",
        [
            ([1.0], 200, 0, "samples"),
            ([np.nan, 1.0, 2.0, 2.0], 200, 0, "samples"),
            ([np.inf, 1.0, 2.0], 200, 0, "samples"),
            ([[1.0, 2.0], [2.0, 3.0]], 200, 0, "samples"),
            ([1.0, 2.0, 2.0], 2.5, 0, "n_boot"),
            ([1.0, 2.0, 2.0], True, 0, "n_boot"),
            ([1.0, 2.0, 2.0], 1, 0, "n_boot"),
            ([1.0, 2.0, 2.0], 200, 1.5, "seed"),
            ([1.0, 2.0, 2.0], 200, True, "seed"),
            ([1.0, 2.0, 2.0], 200, -1, "seed"),
            ([1.0, 2.0, 2.0], 200, 2**64, "seed"),
        ],
        ids=[
            "one-sample", "nan", "inf", "2-d", "float-n_boot", "bool-n_boot", "one-resample",
            "float-seed", "bool-seed", "negative-seed", "huge-seed",
        ],
    )
    def test_refuses_bad_input(self, samples, n_boot, seed, match):
        with pytest.raises(ValueError, match=match):
            empirical_wasserstein(np.array(samples), self._lifted(), n_boot=n_boot, seed=seed)


class TestBiasAllowance:
    """J1(F_m) / sqrt(n), J1(F) = int sqrt(F (1 - F)), as an upper sum."""

    def test_jensen_sum_over_intervals(self):
        # F is linear on each interval: the value at the interval's mean F
        # times its width, written out interval by interval
        grid = Grid(0.5, 4)
        m = LiftedDistribution(grid, 0.25, np.array([0.4, 0.2, 0.0, 0.15]))
        edges = [0.25, 0.65, 0.85, 0.85, 1.0]
        j1 = sum(0.5 * np.sqrt(f * (1.0 - f))
                 for f in ((a + b) / 2.0 for a, b in zip(edges, edges[1:])))
        assert oracle.bias_allowance(m, 400) == pytest.approx(j1 / 20.0, rel=1e-14, abs=0)

    def test_covers_the_exact_integral(self):
        # uniform on [0, 2]: J1 = 2 int_0^1 sqrt(u (1 - u)) du = pi / 4, and
        # the upper sum comes down to it as the grid refines
        values = []
        for n in (4, 40, 400):
            m = LiftedDistribution(Grid(2.0 / n, n), 0.0, np.full(n, 1.0 / n))
            values.append(oracle.bias_allowance(m, 1))
        assert all(v >= np.pi / 4 for v in values)
        assert values[-1] == pytest.approx(np.pi / 4, rel=1e-3, abs=0)
        assert values == sorted(values, reverse=True)

    def test_point_mass_has_no_allowance(self):
        m = LiftedDistribution(Grid(0.5, 4), 1.0, np.zeros(4))
        assert oracle.bias_allowance(m, 10) == 0.0


class TestSimConfig:
    MG1_ARGS = dict(spec=REF_MG1, mu0=GeneralMeasure.dirac(1.0), t=1.0, n_paths=10, seed=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t", float("nan")),
            ("t", float("inf")),
            ("t", -0.5),
            ("t", True),
            ("t", np.array([1.0])),
            ("n_paths", 1.5),
            ("n_paths", 10.0),
            ("n_paths", True),
            ("n_paths", 0),
            ("seed", -1),
            ("seed", 2**64),
            ("seed", 1.0),
        ],
    )
    def test_refuses_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{**self.MG1_ARGS, field: value})

    def test_kind_given_by_value_simulates_like_the_enum(self):
        # the kind decides which recursion runs
        by_value = ModelSpec("mg1", REF_MG1.lam, REF_MG1.job)
        cfg = {**self.MG1_ARGS, "n_paths": 1_000}
        assert np.array_equal(
            simulate(SimConfig(**{**cfg, "spec": by_value})), simulate(SimConfig(**cfg))
        )

    def test_accepts_numpy_integers_and_the_largest_seed(self):
        SimConfig(**{**self.MG1_ARGS, "n_paths": np.int64(3), "seed": np.uint64(2**64 - 1)})
        SimConfig(**{**self.MG1_ARGS, "t": 0.0, "seed": 2**64 - 1})


# -- frozen reference: the dense (paths, max jumps) simulator -----------------


def _reference_batch(cfg, rng, n):
    """The batch simulator as it was before the ragged jump arrays."""
    spec, t = cfg.spec, cfg.t
    q = cfg.mu0.sample(rng, n)
    if t == 0.0:
        return q
    counts = rng.poisson(spec.lam * t, n)
    kmax = int(counts.max()) if n else 0
    if kmax == 0:
        return _reference_drift(spec.kind, q, t)
    times = rng.uniform(0.0, t, (n, kmax))
    times[np.arange(kmax)[None, :] >= counts[:, None]] = np.inf
    times.sort(axis=1)
    sizes = spec.job.sample(rng, n * kmax).reshape(n, kmax)
    t_prev = np.zeros(n)
    for k in range(kmax):
        active = k < counts
        dt = times[:, k] - t_prev
        if spec.kind is ModelKind.MG1:
            moved = np.maximum(q - dt, 0.0) + sizes[:, k]
        else:
            moved = np.maximum(q + dt - sizes[:, k], 0.0)
        q = np.where(active, moved, q)
        t_prev = np.where(active, times[:, k], t_prev)
    return _reference_drift(spec.kind, q, t - t_prev)


def _reference_drift(kind, q, dt):
    if kind is ModelKind.MG1:
        return np.maximum(q - dt, 0.0)
    return q + dt


def _reference_simulate(cfg):
    out = np.empty(cfg.n_paths)
    for batch, start in enumerate(range(0, cfg.n_paths, oracle._BATCH)):
        n = min(oracle._BATCH, cfg.n_paths - start)
        rng = oracle._batch_rng(cfg.seed, batch)
        out[start : start + n] = _reference_batch(cfg, rng, oracle._BATCH)[:n]
    return out


def _reference_pooled_empirical_wasserstein(samples, m, n_boot=200, seed=0):
    """empirical_wasserstein with the pooled multinomial resampler, frozen."""
    samples = np.asarray(samples, dtype=float)
    values, inv = np.unique(samples, return_inverse=True)
    mult = np.bincount(inv)
    distance = empirical_distance(values, m)
    est = distance(mult)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2**32], dtype=np.uint64)))
    n, k = len(samples), len(values)
    tied = np.flatnonzero(mult > 1)
    single = inv[mult[inv] == 1]
    stats = np.empty(n_boot)
    for b in range(n_boot):
        if len(single):
            c = rng.multinomial(n, np.append(mult[tied], len(single)) / n)
            counts = np.bincount(single[rng.integers(0, len(single), c[-1])], minlength=k)
            counts[tied] = c[:-1]
        else:
            counts = rng.multinomial(n, mult / n)
        stats[b] = distance(counts)
    return est, float(stats.std(ddof=1))


def _reference_empirical_wasserstein(samples, m, n_boot=200, seed=0):
    """empirical_wasserstein as it was, deduplicating with np.unique."""
    samples = np.asarray(samples, dtype=float)
    values, inv = np.unique(samples, return_inverse=True)
    distance = empirical_distance(values, m)
    est = distance(np.bincount(inv))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2**32], dtype=np.uint64)))
    n, k = len(samples), len(values)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        stats[b] = distance(np.bincount(inv[rng.integers(0, n, n)], minlength=k))
    return est, float(stats.std(ddof=1))


FAMILIES = [
    pytest.param(Uniform(1.0, 5.0), id="uniform"),
    pytest.param(Exponential(1.5), id="exponential"),
    pytest.param(Erlang(3, 2.0), id="erlang3"),
    pytest.param(Erlang(10, 4.0), id="erlang10"),
    pytest.param(Pareto(1.0, 1.5), id="pareto"),
    pytest.param(Deterministic(2.0), id="deterministic"),
    pytest.param(
        TabulatedCdf(np.array([0.5, 1.5, 4.0]), np.array([0.2, 0.7, 1.0])), id="tabulated"
    ),
]
INITIAL = [
    pytest.param(GeneralMeasure.dirac(1.0), id="dirac"),
    pytest.param(
        GeneralMeasure(atoms=[(0.0, 0.2), (2.0, 0.3)], pieces=[(0.5, 3.0, 0.5)]),
        id="atoms-pieces",
    ),
]


class TestStreamIdentity:
    """The ragged simulator draws the same stream as the dense reference."""

    @pytest.mark.parametrize("job", FAMILIES)
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("mu0", INITIAL)
    @pytest.mark.parametrize("t", [0.0, 1 / 100, 0.5, 10.0])
    def test_batch_matches_reference(self, job, kind, mu0, t):
        cfg = SimConfig(ModelSpec(kind, 0.5, job), mu0, t, 1, seed=3)
        got = oracle._simulate_batch(cfg, oracle._batch_rng(3, 1), 3000)
        want = _reference_batch(cfg, oracle._batch_rng(3, 1), 3000)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("budget", [1, 37])
    def test_slice_size_leaves_samples_unchanged(self, monkeypatch, budget):
        cfg = SimConfig(HEAVY, INITIAL[1].values[0], 10.0, 1, seed=4)
        monkeypatch.setattr(oracle, "WORK_BUDGET", budget)
        got = oracle._simulate_batch(cfg, oracle._batch_rng(4, 0), 500)
        want = _reference_batch(cfg, oracle._batch_rng(4, 0), 500)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", [HEAVY, REF_SN], ids=["mg1-erlang", "specneg-pareto"])
    def test_simulate_matches_reference_over_two_batches(self, spec):
        cfg = SimConfig(spec, GeneralMeasure.dirac(1.0), 10.0, 70_000, seed=12)
        assert np.array_equal(simulate(cfg), _reference_simulate(cfg))

    @pytest.mark.parametrize("job", FAMILIES)
    def test_sliced_draws_equal_one_draw(self, job):
        whole = job.sample(oracle._batch_rng(8, 0), 1777)
        rng = oracle._batch_rng(8, 0)
        parts = np.concatenate([job.sample(rng, 1000), job.sample(rng, 777)])
        assert np.array_equal(parts, whole)

    @pytest.mark.parametrize(
        "samples, reference",
        [
            # tied samples draw from the pooled multinomial's stream
            pytest.param(
                np.round(np.random.default_rng(20).uniform(0.0, 4.6, 500), 1),
                _reference_pooled_empirical_wasserstein,
                id="ties",
            ),
            pytest.param(
                np.concatenate([
                    np.round(np.random.default_rng(20).uniform(0.0, 4.6, 500), 1),
                    np.random.default_rng(23).uniform(0.0, 4.6, 80),
                ]),
                _reference_pooled_empirical_wasserstein,
                id="mixed",
            ),
            # a single value or no ties: the index bootstrap's stream, unchanged
            pytest.param(np.full(40, 1.3), _reference_empirical_wasserstein, id="one-value"),
            pytest.param(
                np.random.default_rng(21).uniform(0.0, 4.6, 500),
                _reference_empirical_wasserstein,
                id="distinct",
            ),
        ],
    )
    def test_empirical_wasserstein_matches_unique_reference(self, samples, reference):
        g = Grid(0.5, 8)
        m = LiftedDistribution(g, 0.1, np.array([0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.0]))
        got = empirical_wasserstein(samples, m, n_boot=25, seed=6)
        assert got == reference(samples, m, n_boot=25, seed=6)


class TestResampler:
    """The pooled count draw has the law of n uniform sample indices."""

    @staticmethod
    def _draws(samples, n_resamples, seed=9):
        values, inv = np.unique(samples, return_inverse=True)
        mult = np.bincount(inv)
        resample = oracle._resampler(inv, mult)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        return mult, np.array([resample(rng) for _ in range(n_resamples)])

    def test_counts_have_the_multinomial_law(self):
        # values of multiplicity 1, 2 and 5: three untied, two pairs, one five
        samples = np.random.default_rng(3).permutation(
            [0.5, 1.5, 2.5, 3.0, 3.0, 4.0, 4.0, 6.0, 6.0, 6.0, 6.0, 6.0]
        )
        n, r = len(samples), 40_000
        mult, counts = self._draws(samples, r)
        assert np.all(counts.sum(axis=1) == n)
        p = mult / n

        def within_4se(terms, want):
            return abs(terms.mean() - want) <= 4 * terms.std(ddof=1) / np.sqrt(r)

        for v in range(len(mult)):
            assert within_4se(counts[:, v], mult[v])
            centred = counts[:, v] - mult[v]
            assert within_4se(centred**2, n * p[v] * (1 - p[v]))
        pair, five = np.flatnonzero(mult == 2)[0], np.flatnonzero(mult == 5)[0]
        products = (counts[:, pair] - mult[pair]) * (counts[:, five] - mult[five])
        assert within_4se(products, -n * p[pair] * p[five])

    def test_all_samples_tied(self):
        # no pool: only the multinomial draws, and one value never moves
        mult, counts = self._draws(np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0]), 200)
        assert np.all(counts.sum(axis=1) == 7)
        assert counts.std(axis=0).min() > 0
        _, counts = self._draws(np.full(9, 2.5), 20)
        assert np.all(counts == 9)
        _, se = empirical_wasserstein(np.full(9, 2.5), TestEmpiricalWasserstein()._lifted())
        assert se == 0.0

    def test_no_ties_draws_uniform_indices(self):
        samples = np.random.default_rng(4).uniform(0.0, 3.0, 257)
        values, inv = np.unique(samples, return_inverse=True)
        resample = oracle._resampler(inv, np.bincount(inv))
        rng, ref = (np.random.Generator(np.random.Philox(key=7)) for _ in range(2))
        for _ in range(5):
            want = np.bincount(inv[ref.integers(0, 257, 257)], minlength=len(values))
            assert np.array_equal(resample(rng), want)

    def test_two_resamples(self):
        samples = np.concatenate([np.zeros(30), np.random.default_rng(5).uniform(0.0, 4.0, 30)])
        m = TestEmpiricalWasserstein()._lifted()
        got = empirical_wasserstein(samples, m, n_boot=2, seed=1)
        assert got == _reference_pooled_empirical_wasserstein(samples, m, n_boot=2, seed=1)
        assert got[1] > 0.0


class TestOracleMemory:
    """The oracle's traced peak is O(batch + jumps), not O(batch * max jumps)."""

    def test_specneg_simulate(self, traced_peak):
        # dense jump arrays traced 9.1 MiB
        cfg = SimConfig(REF_SN, GeneralMeasure.dirac(5.0), 0.5, 100_000, seed=42)
        assert traced_peak(lambda: simulate(cfg)) <= 5 * 2**20

    def test_heavy_mg1_simulate(self, traced_peak):
        # ~4 jumps per path, up to ~20; dense jump arrays traced 66 MiB
        cfg = SimConfig(HEAVY, GeneralMeasure.dirac(0.0), 10.0, 100_000, seed=42)
        assert traced_peak(lambda: simulate(cfg)) <= 12 * 2**20

    def test_empirical_wasserstein(self, traced_peak):
        # np.unique's dedupe traced 4.0 MiB; keeping the per-sample index
        # and every segment through the resamples traced 3.0 MiB
        samples = simulate(SimConfig(REF_SN, GeneralMeasure.dirac(5.0), 0.5, 100_000, 42))
        grid = Grid(1 / 100, 5500)
        m = LiftedDistribution(grid, 0.0, np.full(5500, 1 / 5500))
        peak = traced_peak(lambda: empirical_wasserstein(samples, m, n_boot=5))
        assert peak <= 2.5 * 2**20
