"""Job-size families: closed forms against independent quadrature oracles."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate

from levyq import (
    Deterministic,
    Erlang,
    Exponential,
    Pareto,
    TabulatedCdf,
    Uniform,
)
from reference_integrals import cdf_integral, weighted_cdf_diff_integral

ALL_FAMILIES = [
    Uniform(1.0, 5.0),
    Uniform(0.0, 2.0),
    Exponential(1.0),
    Exponential(2.5),
    Erlang(6, 2.0),
    Erlang(3, 0.7),
    Pareto(1.0, 1.5),
    Pareto(0.5, 2.5),
    Deterministic(2.0),
    TabulatedCdf(np.array([0.5, 1.0, 2.5]), np.array([0.2, 0.5, 1.0])),
]


def riemann_weighted(job, delta, a, b, c, n=2_000_000):
    """Independent oracle for int_a^b (c - s)(F(s + delta) - F(s)) ds."""
    s = np.linspace(a, b, n + 1)
    mid = (s[:-1] + s[1:]) / 2.0
    f = (c - mid) * (job.cdf(mid + delta) - job.cdf(mid))
    return float(np.sum(f) * (b - a) / n)


def _kink_points(job):
    """CDF jumps and kinks, where quad's error estimate is unreliable."""
    if isinstance(job, TabulatedCdf):
        return list(job.xs)
    if isinstance(job, Deterministic):
        return [job.value]
    if isinstance(job, Uniform):
        return [job.lo, job.hi]
    if isinstance(job, Pareto):
        return [job.x_min]
    return []


class TestCdf:
    def test_uniform_below_support(self):
        assert Uniform(1.0, 5.0).cdf(0.0) == 0.0

    def test_uniform_midpoint(self):
        assert Uniform(1.0, 5.0).cdf(3.0) == 0.5

    def test_pareto_closed_form(self):
        # 1 - 4^{-1.5} = 0.875, cross-checked by integrating the density
        job = Pareto(1.0, 1.5)
        assert job.cdf(4.0) == pytest.approx(0.875, abs=1e-12)
        dens = lambda x: 1.5 * x ** (-2.5)
        val, err = integrate.quad(dens, 1.0, 4.0)
        assert job.cdf(4.0) == pytest.approx(val, abs=10 * err + 1e-10)

    def test_negative_arguments_are_zero(self):
        for job in ALL_FAMILIES:
            assert job.cdf(-0.5) == 0.0

    def test_deterministic_right_continuous(self):
        job = Deterministic(2.0)
        assert job.cdf(2.0) == 1.0
        assert job.cdf(np.nextafter(2.0, 0.0)) == 0.0


class TestCdfIntegral:
    def test_uniform_below_support_is_zero(self):
        assert cdf_integral(Uniform(1.0, 5.0), 0.0, 1.0) == 0.0

    def test_uniform_full_support(self):
        # antiderivative of (s-1)/4 over [1, 5]
        job = Uniform(1.0, 5.0)
        assert cdf_integral(job, 1.0, 5.0) == pytest.approx(2.0, abs=1e-12)
        val, err = integrate.quad(job.cdf, 1.0, 5.0)
        assert cdf_integral(job, 1.0, 5.0) == pytest.approx(val, abs=10 * err + 1e-10)

    def test_exponential_prefix(self):
        # int_0^t (1 - e^{-s}) ds = t - 1 + e^{-t}
        job = Exponential(1.0)
        assert cdf_integral(job, 0.0, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_reversed_bounds_raise(self):
        with pytest.raises(ValueError):
            cdf_integral(Uniform(1.0, 5.0), 2.0, 1.0)

    def test_additivity(self):
        rng = np.random.default_rng(0)
        for job in ALL_FAMILIES:
            for _ in range(40):
                a, b, c = np.sort(rng.uniform(-1.0, 8.0, 3))
                whole = cdf_integral(job, a, c)
                split = cdf_integral(job, a, b) + cdf_integral(job, b, c)
                assert whole == pytest.approx(split, rel=1e-12, abs=1e-15)

    def test_bounded_by_length(self):
        rng = np.random.default_rng(1)
        for job in ALL_FAMILIES:
            for _ in range(40):
                a, b = np.sort(rng.uniform(-1.0, 10.0, 2))
                v = cdf_integral(job, a, b)
                assert -1e-12 <= v <= (b - a) + 1e-12

    def test_against_quadrature_oracle_randomized(self):
        # 1000 randomized (family, interval) cases vs adaptive quadrature
        rng = np.random.default_rng(2)
        for case in range(1000):
            job = ALL_FAMILIES[case % len(ALL_FAMILIES)]
            a, b = np.sort(rng.uniform(0.0, 9.0, 2))
            # tell quad about jumps and kinks, its error estimate misses them
            pts = [x for x in _kink_points(job) if a < x < b] or None
            val, err = integrate.quad(job.cdf, a, b, limit=200, points=pts)
            assert cdf_integral(job, a, b) == pytest.approx(
                val, abs=10 * err + 1e-9
            ), f"family {job}, interval [{a}, {b}]"


class TestWeightedCdfDiffIntegral:
    def test_empty_interval(self):
        for job in ALL_FAMILIES:
            v = weighted_cdf_diff_integral(job, 0.5, 2.0, 2.0, 2.0)
            assert v == 0.0

    def test_zero_jump_sizes(self):
        # F(s + delta) - F(s) = 0 for s >= 0 when all mass sits at 0
        v = weighted_cdf_diff_integral(Deterministic(0.0), 0.5, 1.0, 1.5, 1.5)
        assert v == 0.0

    def test_uniform_against_riemann_oracle(self):
        job = Uniform(1.0, 5.0)
        v = weighted_cdf_diff_integral(job, 0.5, 1.0, 1.5, 1.5)
        oracle = riemann_weighted(job, 0.5, 1.0, 1.5, 1.5)
        assert v == pytest.approx(oracle, abs=1e-7)
        # the window sits where the increment is constant 1/8: exact value
        assert v == pytest.approx(0.125 * 0.5**2 / 2.0, abs=1e-12)

    def test_randomized_against_riemann(self):
        rng = np.random.default_rng(3)
        for job in [Exponential(1.3), Erlang(3, 1.1), Pareto(1.0, 2.0)]:
            for _ in range(5):
                a = rng.uniform(0.0, 3.0)
                d = rng.uniform(0.1, 0.7)
                b = a + d
                v = weighted_cdf_diff_integral(job, d, a, b, b)
                oracle = riemann_weighted(job, d, a, b, b, n=400_000)
                assert v == pytest.approx(oracle, rel=1e-5, abs=1e-9)

    def test_negative_window_clamps(self):
        job = Uniform(1.0, 5.0)
        v = weighted_cdf_diff_integral(job, 0.5, -0.5, 0.0, 0.0)
        # F vanishes on [-0.5, 0.5], so only F(s + delta) could contribute;
        # it does not reach the support either
        assert v == 0.0


class TestMeanAndTail:
    def test_means(self):
        assert Uniform(1.0, 5.0).mean() == 3.0
        assert Erlang(6, 2.0).mean() == 3.0
        assert Pareto(1.0, 1.5).mean() == pytest.approx(3.0, abs=1e-12)

    def test_pareto_mean_via_quadrature(self):
        val, err = integrate.quad(lambda x: x * 1.5 * x ** (-2.5), 1.0, np.inf)
        assert Pareto(1.0, 1.5).mean() == pytest.approx(val, abs=10 * err + 1e-9)

    def test_heavy_tail_mean_undefined(self):
        assert Pareto(1.0, 1.0).mean() is None
        assert Pareto(1.0, 0.8).mean() is None
        assert Pareto(1.0, 0.8).tail_mean(2.0) is None

    def test_tail_mean_at_zero_is_mean(self):
        for job in ALL_FAMILIES:
            m = job.mean()
            assert job.tail_mean(0.0) == pytest.approx(m, rel=1e-12)

    def test_tail_mean_above_support(self):
        assert Uniform(1.0, 5.0).tail_mean(5.0) == 0.0

    def test_exponential_tail_mean(self):
        # (a + 1) e^{-a} at a = 1
        assert Exponential(1.0).tail_mean(1.0) == pytest.approx(
            2.0 * np.exp(-1.0), abs=1e-12
        )
        val, err = integrate.quad(lambda x: x * np.exp(-x), 1.0, np.inf)
        assert Exponential(1.0).tail_mean(1.0) == pytest.approx(val, abs=10 * err)

    def test_tail_mean_nonincreasing(self):
        aa = np.linspace(0.0, 8.0, 60)
        for job in ALL_FAMILIES:
            tm = job.tail_mean(aa)
            assert np.all(np.diff(tm) <= 1e-12)

    def test_tail_mean_quadrature_randomized(self):
        rng = np.random.default_rng(4)
        for job in [Erlang(6, 2.0), Pareto(1.0, 1.5), Uniform(1.0, 5.0)]:
            for _ in range(5):
                a = rng.uniform(0.0, 6.0)
                hi = job.sup_support if np.isfinite(job.sup_support) else np.inf
                # integrate x dF via survival: a*S(a) + int_a^inf S
                surv, serr = integrate.quad(
                    lambda x: 1.0 - job.cdf(x), a, hi, limit=300
                )
                oracle = a * (1.0 - job.cdf(a)) + surv
                assert job.tail_mean(a) == pytest.approx(
                    oracle, rel=1e-6, abs=20 * serr + 1e-9
                )


class TestPrefixConsistency:
    """The higher antiderivatives must differentiate back to the lower ones."""

    def test_prefix_x_cdf_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for job in ALL_FAMILIES:
            for _ in range(8):
                x = rng.uniform(0.1, 8.0)
                pts = [p for p in _kink_points(job) if 0.0 < p < x] or None
                val, err = integrate.quad(
                    lambda s: s * job.cdf(s), 0.0, x, limit=200, points=pts
                )
                assert job.prefix_x_cdf(x) == pytest.approx(val, abs=20 * err + 1e-9)

    @pytest.mark.parametrize("shape", [3, 6, 10])
    def test_erlang_values_do_not_depend_on_call_size(self, shape):
        # the stage sums run in a fixed order, whatever the number of points
        job = Erlang(shape, 2.0)
        x = np.random.default_rng(9).uniform(0.0, 10.0, 4096)
        for fn in (job.prefix_cdf, job.prefix_x_cdf):
            whole = fn(x)
            for size in (1, 3, 17):
                parts = [fn(x[i : i + size]) for i in range(0, len(x), size)]
                assert np.concatenate(parts).tobytes() == whole.tobytes()


def erlang_decimal(shape, rate, x):
    """[F, J, K, tail mean] of Erlang(shape, rate) at the float x, from the
    Poisson(rate * x) terms summed in 50-digit decimal arithmetic.

    With mu = shape / rate: F = P(N >= n), J = x F - mu P(N >= n + 1),
    K = x^2/2 F - mu (n + 1) / (2 rate) P(N >= n + 2) and the tail mean is
    mu P(N <= n).  Every tail is a sum of positive terms, cut 60 standard
    deviations past the larger of lam and n + 2, where the rest is far below
    50 digits.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        x, r, n = Decimal(x), Decimal(rate), shape
        lam = r * x
        pmf, p = [], (-lam).exp()
        for k in range(max(int(lam), n + 2) + int(60 * (lam + 1).sqrt()) + 200):
            pmf.append(p)
            p = p * lam / (k + 1)
        mu = Decimal(n) / r
        f = sum(pmf[n:])
        j = x * f - mu * sum(pmf[n + 1 :])
        k = x * x / 2 * f - mu * (n + 1) / (2 * r) * sum(pmf[n + 2 :])
        return [float(v) for v in (f, j, k, mu * sum(pmf[: n + 1]))]


def erlang_queries(job, x):
    return [job.cdf(x), job.prefix_cdf(x), job.prefix_x_cdf(x), job.tail_mean(x)]


class TestErlangExact:
    """Erlang's F, J, K and tail mean against 50-digit sums of Poisson terms,
    on both sides of every switch between summed and complemented tails."""

    @pytest.mark.parametrize(
        "shape, rate", [(1, 2.0), (3, 0.7), (6, 2.0), (10, 0.5)], ids=str
    )
    def test_small_shapes(self, shape, rate):
        n = shape
        # at small x, J written as x - sum_m F_m / rate would cancel every digit
        rx = [0.0, 1e-6, 1e-3, 2e-3, 0.1, 1.0, n - 0.5, n, n + 0.5, n + 1, n + 1.5,
              n + 2, n + 2.5, n + 4, 2 * n + 10, 3 * n + 30]
        x = np.array(rx) / rate
        got = np.array(erlang_queries(Erlang(shape, rate), x)).T  # no RuntimeWarning at 0
        want = np.array([erlang_decimal(shape, rate, v) for v in x])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert not np.signbit(got[0, :3]).any()  # F(0) = J(0) = K(0) = +0.0

    def test_shape_1000_beyond_exp_underflow(self):
        # e^-(rate x) underflows from rate x > 745 on
        rx = np.array([300.0, 600.0, 760.0, 900.0, 999.0, 1000.0, 1001.0, 1002.0,
                       1003.0, 1100.0, 1300.0])
        x = rx / 2.0
        got = np.array(erlang_queries(Erlang(1000, 2.0), x)).T
        want = np.array([erlang_decimal(1000, 2.0, v) for v in x])
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    def test_large_shape_needs_no_stage_table(self, traced_peak):
        # a (shape, points) table of stage CDFs would take ~74 MB here
        job = Erlang(2000, 2.0)
        x = np.linspace(0.0, 1500.0, 4609)
        peak = traced_peak(lambda: job.prefix_x_cdf(x))
        assert peak < 1 << 20
        idx = [1000, 1300, 2660, 3066, 4000]  # rate x from 651 to 2603
        got = np.array(erlang_queries(job, x[idx])).T
        want = np.array([erlang_decimal(2000, 2.0, v) for v in x[idx]])
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-300)


def square_cdf(x):
    """F(x) = (x/5)^2 on [0, 5]."""
    return min(max(x / 5.0, 0.0), 1.0) ** 2


class TestFromCdf:
    """A CDF callable tabulated below itself, with its W1 charge."""

    CALLABLES = [
        pytest.param(square_cdf, 5.0, id="square"),
        pytest.param(Uniform(1.0, 5.0).cdf, 5.0, id="uniform"),
        pytest.param(Erlang(4, 1.5).cdf, 60.0, id="erlang"),
    ]

    @pytest.mark.parametrize("fn, hi", CALLABLES)
    def test_knots_and_values(self, fn, hi):
        law = TabulatedCdf.from_cdf(fn, hi, 101)
        assert law.xs[0] == 0.0 and law.xs[-1] == hi
        assert np.allclose(np.diff(law.xs), hi / 100, rtol=1e-12, atol=0)
        assert law.cdf_values[-1] == 1.0
        assert np.array_equal(law.cdf_values[:-1], [fn(x) for x in law.xs[:-1]])

    @pytest.mark.parametrize("fn, hi", CALLABLES)
    def test_step_law_lies_below(self, fn, hi):
        law = TabulatedCdf.from_cdf(fn, hi, 101)
        x = np.random.default_rng(5).uniform(-1.0, 1.2 * hi, 10_000)
        want = np.array([fn(v) if v < hi else 1.0 for v in x])
        want[x < 0] = 0.0
        assert np.all(law.cdf(x) <= want)

    @pytest.mark.parametrize("fn, hi", CALLABLES)
    def test_w1_bound_covers_the_distance(self, fn, hi):
        n_knots, sub = 101, 256
        law = TabulatedCdf.from_cdf(fn, hi, n_knots)
        # midpoint rule on sub-intervals aligned with the knots: F is smooth
        # between knots, and the step F~ is constant there
        h = hi / (n_knots - 1)
        mid = (np.arange((n_knots - 1) * sub) + 0.5) * (h / sub)
        gap = np.array([fn(v) for v in mid]) - law.cdf(mid)
        w1 = float(gap.sum()) * h / sub
        assert w1 > 0.0
        assert w1 <= law.w1_bound
        assert law.w1_bound <= h * (1.0 + 1e-12)  # telescopes to <= h, up to rounding

    def test_scaled_scales_knots_and_charge(self):
        law = TabulatedCdf.from_cdf(square_cdf, 5.0, 201)
        big = law.scaled(2.5)
        assert np.array_equal(big.xs, law.xs * 2.5)
        assert np.array_equal(big.cdf_values, law.cdf_values)
        assert big.w1_bound == law.w1_bound * 2.5 > 0.0

    def test_exact_laws_carry_no_charge(self):
        for job in ALL_FAMILIES:
            assert job.w1_bound == 0.0
            assert job.scaled(2.0).w1_bound == 0.0

    @pytest.mark.parametrize(
        "hi, n_knots",
        [(np.inf, 11), (float("nan"), 11), (0.0, 11), (-1.0, 11), (True, 11), (5.0, 1),
         (5.0, 2.5), (5.0, True)],
        ids=["inf", "nan", "zero", "negative", "bool-support", "one-knot", "float-knots",
             "bool-knots"],
    )
    def test_bad_support_or_knots_refused(self, hi, n_knots):
        with pytest.raises(ValueError):
            TabulatedCdf.from_cdf(square_cdf, hi, n_knots)

    def test_non_cdf_refused(self):
        with pytest.raises(ValueError):
            TabulatedCdf.from_cdf(lambda x: 1.0 - x / 5.0, 5.0, 11)


class TestTabulated:
    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedCdf(np.array([1.0, 0.5]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            TabulatedCdf(np.array([0.5, 1.0]), np.array([0.9, 0.8]))

    def test_atoms_mean(self):
        tab = TabulatedCdf(np.array([1.0, 3.0]), np.array([0.25, 1.0]))
        assert tab.mean() == pytest.approx(0.25 * 1.0 + 0.75 * 3.0, abs=1e-14)
        assert tab.tail_mean(1.0) == pytest.approx(0.75 * 3.0, abs=1e-14)

    def test_scaling(self):
        tab = TabulatedCdf(np.array([1.0, 3.0]), np.array([0.25, 1.0]))
        assert tab.scaled(2.0).mean() == pytest.approx(2 * tab.mean(), abs=1e-13)


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Exponential(NAN),
        lambda: Erlang(2, NAN),
        lambda: Pareto(NAN, 1.5),
        lambda: Pareto(1.0, NAN),
        lambda: Deterministic(NAN),
        lambda: TabulatedCdf(np.array([0.5, NAN, 2.0]), np.array([0.2, 0.5, 1.0])),
        lambda: TabulatedCdf(np.array([0.5, 1.0, 2.0]), np.array([0.2, NAN, 1.0])),
        lambda: TabulatedCdf(np.array([0.5, 1.0]), np.array([0.2, NAN])),
    ],
    ids=[
        "exponential-rate", "erlang-rate", "pareto-x_min", "pareto-alpha",
        "deterministic", "tabulated-xs", "tabulated-cdf", "tabulated-last-cdf",
    ],
)
def test_nan_parameter_refused(build):
    """NaN fails every comparison, so each check must be written to fail on it."""
    with pytest.raises(ValueError):
        build()


INF = float("inf")


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: Uniform(0, INF), "hi"),
        (lambda: Uniform(True, 5), "lo"),
        (lambda: Exponential(INF), "rate"),
        (lambda: Erlang(2, INF), "rate"),
        (lambda: Erlang(2.0, 1), "shape"),
        (lambda: Erlang(True, 1), "shape"),
        (lambda: Pareto(1, INF), "alpha"),
        (lambda: Pareto(INF, 1.5), "x_min"),
        (lambda: Deterministic(INF), "value"),
        (lambda: Deterministic("1"), "value"),
        (lambda: TabulatedCdf([0, INF], [0.5, 1]), "xs"),
    ],
    ids=[
        "uniform-inf-hi", "uniform-bool-lo", "exponential-inf-rate", "erlang-inf-rate",
        "erlang-float-shape", "erlang-bool-shape", "pareto-inf-alpha", "pareto-inf-x_min",
        "deterministic-inf", "deterministic-str", "tabulated-inf-knot",
    ],
)
def test_non_finite_bool_or_non_integer_parameter_refused(build, name):
    """Refused at construction, naming the parameter, not mid-solve or as a
    NaN certificate."""
    with pytest.raises(ValueError, match=name):
        build()


def test_numpy_scalar_parameters_accepted():
    assert Uniform(np.float64(0.5), np.int64(3)).hi == 3
    assert Erlang(np.int64(2), np.float32(1.5)).mean() == pytest.approx(2 / 1.5)
    assert Pareto(np.float64(1.0), np.float64(1.5)).mean() == pytest.approx(3.0)


class TestScaling:
    def test_scaled_mean(self):
        for job in [Uniform(1.0, 5.0), Exponential(1.5), Erlang(6, 2.0), Pareto(1.0, 1.5)]:
            assert job.scaled(0.5).mean() == pytest.approx(0.5 * job.mean(), rel=1e-12)

    def test_scaled_cdf(self):
        job = Erlang(6, 2.0)
        xs = np.linspace(0.1, 10.0, 33)
        assert np.allclose(job.scaled(2.0).cdf(xs), job.cdf(xs / 2.0), atol=1e-13)


CONVENTION_LAWS = [
    pytest.param(Uniform(1.0, 5.0), id="uniform"),
    pytest.param(Exponential(2.5), id="exponential"),
    pytest.param(Erlang(3, 0.7), id="erlang"),
    pytest.param(Pareto(1.0, 1.5), id="pareto"),
    pytest.param(Deterministic(2.0), id="deterministic"),
    pytest.param(TabulatedCdf(np.array([0.5, 1.0, 2.5]), np.array([0.2, 0.5, 1.0])),
                 id="tabulated"),
    pytest.param(TabulatedCdf.from_cdf(square_cdf, 5.0, 101), id="from-cdf"),
]


class TestArgumentConvention:
    """Every query extends a family's closed forms on [0, inf) the same way:
    0 (F, J, K) or E[B] (tail mean) below 0, the limits F = 1, J = K = inf
    and tail mean 0 at +inf, NaN for NaN, and a Python float for a scalar,
    with no warning."""

    LIMIT_AT_INF = {"cdf": 1.0, "prefix_cdf": INF, "prefix_x_cdf": INF, "tail_mean": 0.0}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("query", ["cdf", "prefix_cdf", "prefix_x_cdf", "tail_mean"])
    @pytest.mark.parametrize("job", CONVENTION_LAWS)
    def test_queries(self, job, query):
        f = getattr(job, query)
        below = f(0.0) if query == "tail_mean" else 0.0
        for x in (NAN, -INF, -1.0, 0.0, 0.3, 2.0, 1e9, INF):
            assert type(f(x)) is float
        assert np.isnan(f(NAN))
        out = f(np.array([NAN, -INF, -1.0, 0.0, 2.0, INF]))
        assert isinstance(out, np.ndarray) and out.shape == (6,)
        assert np.isnan(out[0]) and not np.isnan(out[1:]).any()
        assert out[1] == out[2] == f(-1.0) == below
        assert out[5] == f(INF) == self.LIMIT_AT_INF[query]
        if query == "tail_mean":
            assert below == pytest.approx(job.mean(), rel=1e-15, abs=0)
        elif query != "cdf":
            assert not np.signbit(f(0.0))  # J(0) = K(0) = +0.0

    @pytest.mark.parametrize("job", CONVENTION_LAWS)
    def test_support_brackets_samples(self, job):
        s = job.sample(np.random.default_rng(3), 10_000)
        assert job.inf_support <= s.min() and s.max() <= job.sup_support
