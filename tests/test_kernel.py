"""Transition kernels: entries against Riemann-sum oracles, structure against
an independently coded dense builder, stochasticity and limit behavior."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from levyq import (
    Deterministic,
    Erlang,
    Exponential,
    GeneralMeasure,
    Grid,
    GridError,
    ModelKind,
    ModelSpec,
    Pareto,
    TabulatedCdf,
    Uniform,
    build_kernel,
    solve,
)
from levyq import measure
from levyq.kernel import _fft_len
from reference_integrals import cdf_integral, weighted_cdf_diff_integral


def riemann_window(job, delta, a, b, n=500_000):
    """int_a^b (F(s + delta) - F(s)) ds by midpoint Riemann sum."""
    s = np.linspace(a, b, n + 1)
    mid = (s[:-1] + s[1:]) / 2.0
    return float(np.sum(job.cdf(mid + delta) - job.cdf(mid)) * (b - a) / n)


def riemann_triangle(job, delta, a, b, c, n=500_000):
    s = np.linspace(a, b, n + 1)
    mid = (s[:-1] + s[1:]) / 2.0
    f = (c - mid) * (job.cdf(mid + delta) - job.cdf(mid))
    return float(np.sum(f) * (b - a) / n)


def dense_mg1_oracle(spec, grid):
    """Row-by-row construction straight from the one-jump window formulas."""
    lam, d, n = spec.lam, grid.delta, grid.m_delta
    enl = np.exp(-lam * d)
    P = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1):
            if i == 0:
                w = _window(spec.job, d, (j - 1) * d, j * d)
                P[i, j] = enl * (float(j == 0) + lam * w)
            elif i == 1:
                w = weighted_cdf_diff_integral(spec.job, d, (j - 1) * d, j * d, j * d)
                P[i, j] = enl * (float(j == 0) + 2.0 * lam / d * w)
            else:
                w = _window(spec.job, d, (j - i) * d, (j - i + 1) * d)
                P[i, j] = enl * (float(j == i - 1) + lam * w)
    for i in range(n + 1):
        P[i, i] += 1.0 - P[i].sum()
    return P


def dense_specneg_oracle(spec, grid):
    lam, d, n = spec.lam, grid.delta, grid.m_delta
    enl = np.exp(-lam * d)
    P = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j == 1:
                P[i - 1, j - 1] = enl * lam * (d - cdf_integral(spec.job, (i - 1) * d, i * d))
            else:
                w = _window(spec.job, d, (i - j) * d, (i - j + 1) * d)
                P[i - 1, j - 1] = enl * (float(j == i + 1) + lam * w)
    for a in range(n):
        P[a, a] += 1.0 - P[a].sum()
    return P


def _window(job, delta, a, b):
    return cdf_integral(job, a + delta, b + delta) - cdf_integral(job, a, b)


REF_MG1 = ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0))
REF_SN = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 1 / 3, Pareto(1.0, 1.5))


class TestMg1Entries:
    def test_no_arrival_limit(self):
        spec = ModelSpec(ModelKind.MG1, 1e-12, Uniform(1.0, 5.0))
        grid = Grid(0.5, 20)
        kern = build_kernel(spec, grid)
        for i in range(1, 21):
            assert kern.row(i)[i - 1] == pytest.approx(1.0, abs=1e-11)
        assert kern.row(0)[0] == pytest.approx(1.0, abs=1e-11)

    def test_pure_shift_entry_below_support(self):
        # window below the job-size support: only the no-arrival shift remains
        grid = Grid(0.5, 100)
        kern = build_kernel(REF_MG1, grid)
        assert kern.row(4)[3] == pytest.approx(np.exp(-0.125), abs=1e-12)
        assert riemann_window(REF_MG1.job, 0.5, -0.5, 0.0) == 0.0

    def test_one_jump_entry_against_riemann(self):
        grid = Grid(0.5, 100)
        kern = build_kernel(REF_MG1, grid)
        # start interval 4, landing interval 6: window [1.0, 1.5]
        oracle = riemann_window(REF_MG1.job, 0.5, 1.0, 1.5)
        expected = np.exp(-0.125) * 0.25 * oracle
        assert kern.row(4)[6] == pytest.approx(expected, rel=1e-6)

    def test_row1_triangle_against_riemann(self):
        grid = Grid(0.5, 100)
        kern = build_kernel(REF_MG1, grid)
        for j in [3, 4, 5]:
            oracle = riemann_triangle(REF_MG1.job, 0.5, (j - 1) * 0.5, j * 0.5, j * 0.5)
            expected = np.exp(-0.125) * 2 * 0.25 / 0.5 * oracle
            assert kern.row(1)[j] == pytest.approx(expected, rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_nan_arrival_rate_refused(kind):
    with pytest.raises(ValueError):
        ModelSpec(kind, float("nan"), Uniform(1.0, 2.0))


NOT_A_FINITE_NUMBER = [
    pytest.param(v, id=name)
    for name, v in [("true", True), ("false", False), ("inf", float("inf")),
                    ("-inf", -float("inf")), ("str", "0.5"), ("none", None),
                    ("int-beyond-float", 10**400)]
]


@pytest.mark.parametrize("lam", NOT_A_FINITE_NUMBER)
@pytest.mark.parametrize("kind", list(ModelKind))
def test_rate_must_be_a_finite_number(kind, lam):
    # True once ran as rate 1 and "0.5" died with a bare TypeError
    with pytest.raises(ValueError, match="arrival rate"):
        ModelSpec(kind, lam, Uniform(1.0, 2.0))


@pytest.mark.parametrize("delta", NOT_A_FINITE_NUMBER)
def test_grid_step_must_be_a_finite_number(delta):
    with pytest.raises(GridError, match="delta"):
        measure.Grid(delta, 10)


@pytest.mark.parametrize("value", [1, 0.5, np.float64(0.5), np.int64(2)], ids=repr)
def test_python_and_numpy_numbers_accepted(value):
    assert ModelSpec(ModelKind.MG1, value, Uniform(1.0, 2.0)).lam == value
    assert measure.Grid(value, 10).delta == value


def test_kind_given_by_value_is_the_enum():
    # kept as a string, "mg1" would fail every "is ModelKind.MG1" test and
    # run as the spectrally negative chain, without the zero state
    spec = ModelSpec("mg1", 0.25, Uniform(1.0, 5.0))
    assert spec.kind is ModelKind.MG1
    assert build_kernel(spec, Grid(0.5, 10)).states()[0] == 0
    assert ModelSpec("spectrally_negative", 0.5, Pareto(1.0, 1.5)).kind is (
        ModelKind.SPECTRALLY_NEGATIVE
    )
    res = solve(spec, Grid(0.5, 10), GeneralMeasure.dirac(1.0), 2)
    assert len(res.ledger.rows) == 2


def test_unknown_kind_refused():
    with pytest.raises(ValueError, match="banana"):
        ModelSpec("banana", 0.25, Uniform(1.0, 5.0))


class TestSpecnegEntries:
    def test_pure_drift_limit(self):
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 1e-12, Pareto(1.0, 1.5))
        grid = Grid(0.5, 20)
        kern = build_kernel(spec, grid)
        for i in range(1, 20):
            assert kern.row(i)[i] == pytest.approx(1.0, abs=1e-11)  # state i+1
        assert kern.row(20)[19] == pytest.approx(1.0, abs=1e-11)  # retained at top

    def test_zero_jump_sizes_row_sum(self):
        # all jump mass at 0: Pcheck row sums are e^{-ld}(1 + ld) off the top
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 0.7, Deterministic(0.0))
        grid = Grid(0.25, 30)
        kern = build_kernel(spec, grid)
        lam_d = 0.7 * 0.25
        expected = np.exp(-lam_d) * (1.0 + lam_d)
        for i in range(1, 30):
            row = kern.row(i)
            checked = row.sum() - kern.diag[i - 1]
            assert checked == pytest.approx(expected, abs=1e-12)

    def test_bottom_column_against_riemann(self):
        grid = Grid(1 / 100, 5500)
        kern = build_kernel(REF_SN, grid)
        d = 1 / 100
        s = np.linspace(4.99, 5.0, 200_001)
        mid = (s[:-1] + s[1:]) / 2
        integral = float(np.sum(REF_SN.job.cdf(mid)) * 0.01 / 200_000)
        expected = np.exp(-REF_SN.lam * d) * REF_SN.lam * (d - integral)
        assert kern.col1[499] == pytest.approx(expected, rel=1e-8)


class TestParetoNextToSpecialAlpha:
    """Next to alpha = 1 (spectrally negative: J's power law degenerates) and
    alpha = 2 (M/G/1: K's) the kernel builds, with row sums within 1, and is
    the limit law's up to rounding."""

    @pytest.mark.parametrize(
        "kind, lam, alpha",
        [
            (ModelKind.SPECTRALLY_NEGATIVE, 1 / 3, 1.0),
            (ModelKind.MG1, 1 / 10, 2.0),
        ],
        ids=["specneg-alpha-1", "mg1-alpha-2"],
    )
    @pytest.mark.parametrize("step", [-1e-12, 1e-12])
    def test_matches_limit_kernel(self, kind, lam, alpha, step):
        def dense(a):
            spec = ModelSpec(kind, lam, Pareto(1.0, a))
            return build_kernel(spec, Grid(1 / 50, 1000)).dense()  # M = 20

        assert np.max(np.abs(dense(alpha + step) - dense(alpha))) < 1e-9


class TestDenseOracle:
    def test_mg1_matches_raw_formulas(self):
        rng = np.random.default_rng(0)
        jobs = [Uniform(1.0, 5.0), Erlang(3, 1.5), Pareto(1.0, 1.5), Deterministic(1.2)]
        for trial in range(8):
            job = jobs[trial % len(jobs)]
            lam = float(rng.uniform(0.05, 2.0))
            d = float(rng.uniform(0.1, 0.8))
            n = int(rng.integers(5, 40))
            spec = ModelSpec(ModelKind.MG1, lam, job)
            grid = Grid(d, n)
            kern = build_kernel(spec, grid)
            oracle = dense_mg1_oracle(spec, grid)
            assert np.max(np.abs(kern.dense() - oracle)) < 1e-12

    def test_specneg_matches_raw_formulas(self):
        rng = np.random.default_rng(1)
        jobs = [Uniform(0.5, 2.0), Erlang(2, 2.0), Pareto(0.8, 1.2), Deterministic(0.7)]
        for trial in range(8):
            job = jobs[trial % len(jobs)]
            lam = float(rng.uniform(0.05, 2.0))
            d = float(rng.uniform(0.1, 0.8))
            n = int(rng.integers(5, 40))
            spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, lam, job)
            grid = Grid(d, n)
            kern = build_kernel(spec, grid)
            oracle = dense_specneg_oracle(spec, grid)
            assert np.max(np.abs(kern.dense() - oracle)) < 1e-12


class TestApply:
    def test_stationary_at_zero_arrival(self):
        spec = ModelSpec(ModelKind.MG1, 1e-12, Uniform(1.0, 5.0))
        grid = Grid(0.5, 20)
        kern = build_kernel(spec, grid)
        p = np.zeros(21)
        p[0] = 1.0
        out = kern.apply(p)
        assert out[0] == pytest.approx(1.0, abs=1e-11)

    def test_one_hot_reproduces_rows(self):
        grid = Grid(0.5, 60)
        kern = build_kernel(REF_MG1, grid)
        for i in [0, 1, 2, 17, 60]:
            p = np.zeros(61)
            p[i] = 1.0
            out = kern.apply(p)
            assert np.max(np.abs(out - kern.row(i))) < 1e-14

    def test_repeated_apply_matches_matrix_power(self):
        grid = Grid(0.1, 500)
        kern = build_kernel(REF_MG1, grid)
        dense = kern.dense()
        p = np.zeros(501)
        p[10] = 1.0
        expected = p.copy()
        for _ in range(10):
            p = kern.apply(p)
            expected = expected @ dense
        assert np.max(np.abs(p - expected)) < 1e-12

    def test_grid_mismatch(self):
        # a state vector of the 61-interval grid on the 60-interval kernel
        grid = Grid(0.5, 60)
        kern = build_kernel(REF_MG1, grid)
        with pytest.raises(GridError):
            kern.apply(np.ones(62) / 62)

    @pytest.mark.parametrize("m_delta", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "job,delta",
        # band of length 1 (the jump leaves the grid) / band spanning the grid
        [(Deterministic(0.05), 0.01), (Pareto(1.0, 1.5), 0.5)],
        ids=["narrow-band", "full-band"],
    )
    @pytest.mark.parametrize(
        "kind",
        [ModelKind.MG1, ModelKind.SPECTRALLY_NEGATIVE],
        ids=["mg1", "specneg"],
    )
    def test_edge_sizes_match_dense(self, kind, job, delta, m_delta):
        spec = ModelSpec(kind, 0.5, job)
        grid = Grid(delta, m_delta)
        kern = build_kernel(spec, grid)
        p = np.random.default_rng(m_delta).dirichlet(np.ones(len(kern.states())))
        out = kern.apply(p)
        assert np.max(np.abs(out - p @ kern.dense())) < 1e-14


class TestStates:
    @pytest.mark.parametrize(
        "kind, first",
        [(ModelKind.MG1, 0), (ModelKind.SPECTRALLY_NEGATIVE, 1)],
        ids=["mg1", "specneg"],
    )
    def test_layout_is_the_models(self, kind, first):
        # one grid, two layouts: M/G/1 keeps state 0, the other chain does not
        grid = Grid(0.5, 100)
        kern = build_kernel(ModelSpec(kind, 0.25, Uniform(1.0, 5.0)), grid)
        np.testing.assert_array_equal(kern.states(), np.arange(first, 101))
        assert kern.dense().shape == (101 - first, 101 - first)
        n = len(kern.states())
        with pytest.raises(GridError, match=f"chain has {n} states"):
            kern.apply(np.ones(n + 1) / (n + 1))


@pytest.mark.parametrize("budget", [1, 7, 10**9])
@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0)),
        ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 1 / 3, Pareto(1.0, 1.5)),
    ],
    ids=["mg1", "specneg"],
)
def test_work_budget_leaves_kernel_bit_identical(monkeypatch, spec, budget):
    # grid values are sampled in work slices of elementwise job-size functions
    grid = Grid(0.01, 700)
    parts = ("toeplitz", "diag", "row1", "col1")

    def arrays():
        kern = build_kernel(spec, grid)
        return [getattr(kern, a) for a in parts if getattr(kern, a) is not None]

    ref = arrays()
    monkeypatch.setattr(measure, "WORK_BUDGET", budget)
    assert [a.tobytes() for a in arrays()] == [a.tobytes() for a in ref]


@dataclass(frozen=True, eq=False)
class CountingUniform(Uniform):
    """Uniform(lo, hi) that records every point each primitive is asked for."""

    seen: dict = field(default_factory=lambda: {"cdf": [], "prefix_cdf": [],
                                                "prefix_x_cdf": []})

    def cdf(self, x):
        self.seen["cdf"].append(np.ravel(x))
        return super().cdf(x)

    def prefix_cdf(self, x):
        self.seen["prefix_cdf"].append(np.ravel(x))
        return super().prefix_cdf(x)

    def prefix_x_cdf(self, x):
        self.seen["prefix_x_cdf"].append(np.ravel(x))
        return super().prefix_x_cdf(x)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_each_law_primitive_evaluated_once_per_grid_point(kind):
    job = CountingUniform(0.3, 2.2)
    spec = ModelSpec(kind, 0.7, job)
    grid = Grid(0.1, 40)
    kern = build_kernel(spec, grid)
    n, d = grid.m_delta, grid.delta
    table = np.arange(-1, n + 2) * d  # k d, k = -1..n+1
    used = ["cdf", "prefix_cdf"] + (["prefix_x_cdf"] if kind is ModelKind.MG1 else [])
    for name, calls in job.seen.items():
        points = np.concatenate(calls) if calls else np.empty(0)
        if name in used:
            assert np.array_equal(np.sort(points), table), name  # each point once
        else:
            assert len(points) == 0, name
    # the counting law builds the same kernel as the plain one
    plain = build_kernel(ModelSpec(kind, 0.7, Uniform(0.3, 2.2)), grid)
    for part in ("toeplitz", "diag", "row1", "col1"):
        a, b = getattr(kern, part), getattr(plain, part)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_fft_len_is_smallest_5_smooth():
    def smooth(m):
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        return m == 1

    expected = 1
    for n in range(1, 2049):
        while expected < n or not smooth(expected):
            expected += 1
        assert _fft_len(n) == expected


class TestStochasticity:
    def _random_spec_grid(self, rng):
        kind = ModelKind.MG1 if rng.random() < 0.5 else ModelKind.SPECTRALLY_NEGATIVE
        job = [
            Uniform(float(rng.uniform(0, 2)), float(rng.uniform(2.1, 6))),
            Erlang(int(rng.integers(1, 7)), float(rng.uniform(0.5, 3))),
            Pareto(float(rng.uniform(0.3, 2)), float(rng.uniform(0.7, 3))),
            Deterministic(float(rng.uniform(0, 3))),
        ][rng.integers(0, 4)]
        if kind is ModelKind.SPECTRALLY_NEGATIVE:
            rng.random()  # unused draw, kept so every other sampled config stays the same
        spec = ModelSpec(kind, float(rng.uniform(0.05, 3)), job)
        grid = Grid(float(rng.uniform(0.05, 0.8)), int(rng.integers(3, 60)))
        return spec, grid

    def test_rows_stochastic_and_diag_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            spec, grid = self._random_spec_grid(rng)
            kern = build_kernel(spec, grid)
            dense = kern.dense()
            assert np.all(dense >= -1e-15)
            assert np.max(np.abs(dense.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(kern.diag >= 0.0)

    @pytest.mark.parametrize(
        "job", [Exponential(1 / 3), Erlang(2, 2 / 3), Pareto(1.0, 2.5)],
        ids=["exponential", "erlang", "pareto"],
    )
    def test_fine_mg1_grid_with_mass_beyond_m(self, job):
        # at delta = 1/500, M = 50, row 1's K differences round at ~1e-13 per
        # window and once summed past 1 by ~1e-7
        kern = build_kernel(ModelSpec(ModelKind.MG1, 0.25, job), Grid(1 / 500, 25_000))
        assert np.all(kern.diag >= 0.0)
        for i in [0, 1, 2, 3, *range(500, 25_001, 500)]:
            assert abs(kern.row(i).sum() - 1.0) < 1e-12, i

    def test_substochastic_before_correction(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            spec, grid = self._random_spec_grid(rng)
            kern = build_kernel(spec, grid)
            dense = kern.dense()
            checked = dense - np.diag(kern.diag)
            sums = checked.sum(axis=1)
            assert np.all(sums <= 1.0 + 1e-12)

    def test_diag_matches_per_state_loop(self):
        # reference: the diagonal correction written one state at a time
        rng = np.random.default_rng(44)
        specs = [self._random_spec_grid(rng) for _ in range(100)]
        specs += [(REF_SN, Grid(0.5, m)) for m in (1, 2, 3)]
        for spec, grid in specs:
            kern = build_kernel(spec, grid)
            n, csum = grid.m_delta, np.cumsum(kern.toeplitz)
            last = len(csum) - 1
            if spec.kind is ModelKind.MG1:
                expected = [1.0 - csum[min(n - i + 1, last)] for i in range(2, n + 1)]
                got = kern.diag[2:]
            else:
                expected = []
                for a, i in enumerate(range(1, n + 1)):
                    moved = 0.0
                    if n >= 2:
                        moved = csum[min(i - 1, last)]
                        if i == n:
                            moved -= kern.toeplitz[0]
                    expected.append(1.0 - kern.col1[a] - moved)
                got = kern.diag
            assert np.array_equal(got, np.maximum(expected, 0.0))

    def test_mg1_interior_diag_value(self):
        # rows fully inside the truncation only lose multi-jump mass
        spec = ModelSpec(ModelKind.MG1, 0.4, Uniform(1.0, 3.0))
        grid = Grid(0.25, 80)  # M = 20
        kern = build_kernel(spec, grid)
        lam_d = 0.4 * 0.25
        expected = 1.0 - np.exp(-lam_d) * (1.0 + lam_d)
        for i in range(2, 60):  # i*d + sup B + d <= M
            assert kern.diag[i] == pytest.approx(expected, abs=1e-12)

    def test_rowsum_monotone_in_truncation(self):
        spec = ModelSpec(ModelKind.MG1, 0.4, Erlang(4, 1.0))
        g_small = Grid(0.25, 40)
        g_large = Grid(0.25, 80)
        k_small = build_kernel(spec, g_small)
        k_large = build_kernel(spec, g_large)
        for i in range(2, 41):
            s_small = 1.0 - k_small.diag[i]
            s_large = 1.0 - k_large.diag[i]
            assert s_large >= s_small - 1e-14


class TestTabulationCharge:
    """A tabulated CDF callable's W1 charge reaches every ledger row."""

    TABULATED = TabulatedCdf.from_cdf(Uniform(1.0, 5.0).cdf, 5.0, 41)

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_basic_ledger_carries_charge(self, kind):
        spec = ModelSpec(kind, 0.5, self.TABULATED)
        grid = Grid(0.5, 12)
        res = solve(spec, grid, GeneralMeasure.dirac(1.0), 20, bound_mode="basic")
        charge = 0.5 * 0.5 * self.TABULATED.w1_bound
        assert charge > 0.0
        slack = res.ledger.rows[:, 3]
        assert len(slack) == 20
        if kind is ModelKind.MG1:  # no other slack in basic M/G/1 rows
            assert np.all(slack == charge)
        else:  # plus the top state's overshoot charge
            assert np.all(slack >= charge)
