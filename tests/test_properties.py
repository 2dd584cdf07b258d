"""Property-based invariants over randomized inputs (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

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
    Uniform,
    discretize_initial,
    wasserstein,
)
from levyq.bounds import BoundContext
from reference_integrals import cdf_integral

finite = st.floats(
    min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False
)


@st.composite
def job_sizes(draw):
    which = draw(st.integers(0, 4))
    if which == 0:
        lo = draw(st.floats(0.0, 3.0))
        width = draw(st.floats(0.1, 4.0))
        return Uniform(lo, lo + width)
    if which == 1:
        return Exponential(draw(st.floats(0.1, 4.0)))
    if which == 2:
        return Erlang(draw(st.integers(1, 8)), draw(st.floats(0.2, 4.0)))
    if which == 3:
        return Pareto(draw(st.floats(0.2, 2.0)), draw(st.floats(0.6, 4.0)))
    return Deterministic(draw(st.floats(0.0, 4.0)))


@st.composite
def simple_measures(draw):
    atom_loc = draw(st.floats(0.0, 6.0))
    atom_w = draw(st.floats(0.0, 1.0))
    a = draw(st.floats(0.0, 5.0))
    width = draw(st.floats(0.05, 3.0))
    return GeneralMeasure(
        atoms=[(atom_loc, atom_w)], pieces=[(a, a + width, 1.0 - atom_w)]
    )


@given(job_sizes(), finite, finite, finite)
@settings(max_examples=200, deadline=None)
def test_cdf_integral_additive_and_bounded(job, x, y, z):
    a, b, c = sorted((x, y, z))
    whole = cdf_integral(job, a, c)
    assert abs(whole - (cdf_integral(job, a, b) + cdf_integral(job, b, c))) <= max(
        1e-12 * max(abs(whole), 1.0), 1e-13
    )
    assert -1e-12 <= whole <= (c - a) + 1e-12


@given(job_sizes(), finite, st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_tail_mean_monotone(job, a, gap):
    tm_a = job.tail_mean(a)
    if tm_a is None:
        assert job.mean() is None
        return
    assert job.tail_mean(a + gap) <= tm_a + 1e-12


@given(job_sizes(), st.floats(-2.0, 8.0))
@settings(max_examples=200, deadline=None)
def test_cdf_range_and_monotonicity(job, x):
    v = job.cdf(x)
    assert 0.0 <= v <= 1.0
    assert job.cdf(x + 0.5) >= v - 1e-15


@given(simple_measures(), simple_measures(), st.floats(0.0, 4.0))
@settings(max_examples=150, deadline=None)
def test_wasserstein_translation(a, b, c):
    d0 = wasserstein(a, b)
    shifted = GeneralMeasure(
        atoms=[(x + c, w) for x, w in a.atoms],
        pieces=[(lo + c, hi + c, w) for lo, hi, w in a.pieces],
    )
    assert abs(wasserstein(shifted, b) - d0) <= c + 1e-10


@given(simple_measures(), st.integers(2, 40), st.floats(0.05, 0.7))
@settings(max_examples=100, deadline=None)
def test_initial_projection_error_within_one_cell(mu0, m_per_unit, delta):
    spec = ModelSpec(ModelKind.MG1, 0.5, Uniform(1.0, 2.0))
    m_delta = int(np.ceil(10.0 / delta)) + 1
    grid = Grid(delta, m_delta)
    p, b0 = discretize_initial(mu0, grid)
    assert 0.0 <= b0 <= delta + 1e-12
    assert abs(p.sum() - 1.0) < 1e-9
    # the projection preserves interval masses, so it is idempotent
    p2, b0_again = discretize_initial(mu0, grid)
    assert np.array_equal(p, p2)


@given(st.floats(1e-3, 3.0), st.floats(1e-4, 0.5))
@settings(max_examples=200)
def test_jump_aggregation_dominated_by_width(lam, delta):
    spec = ModelSpec(ModelKind.MG1, lam, Uniform(1.0, 5.0))
    row = BoundContext(spec, Grid(delta, 1), refined=False).row
    assert 0.0 <= row.jump_aggregation <= lam * delta**2


@given(st.floats(1e-3, 3.0), st.floats(1e-4, 0.5), st.floats(0.1, 50.0))
@settings(max_examples=200)
def test_specneg_cut_branches_consistent(lam, delta, m):
    n = max(1, round(m / delta))  # M = m up to half an interval

    def cut(job):  # the charges of the bottom, a middle and the top state
        spec = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, lam, job)
        ctx = BoundContext(spec, Grid(delta, n), refined=False)
        return [ctx.components(np.eye(1, n, i)[0]).jump_cut for i in (0, n // 2, n - 1)]

    # Pareto(1, 1.5), of mean 3, is stochastically below Pareto(1, 0.9),
    # which has none: E[min(B, x)] is smaller at every x
    with_mean = cut(Pareto(1.0, 1.5))
    without = cut(Pareto(1.0, 0.9))
    assert np.all(np.array(with_mean) <= np.array(without) + 1e-15)


def _interval_interpolation_cdf(m, x):
    """The lifted CDF by interval arithmetic: atom plus the filled fraction."""
    d, n = m.grid.delta, m.grid.m_delta
    cum = np.concatenate([[m.atom0], m.atom0 + np.cumsum(m.interval_mass)])
    k = np.clip(np.floor(x / d).astype(int), 0, n)
    frac = np.clip(x / d - k, 0.0, 1.0)
    k_in = np.minimum(k, n - 1)
    inner = np.where(k >= n, cum[-1], cum[k_in] + frac * m.interval_mass[k_in])
    return np.where(x < 0.0, 0.0, np.where(x >= m.grid.m, cum[-1], inner))


@given(
    st.floats(1e-3, 2.0),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    st.floats(0.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_lifted_cdf_matches_interval_interpolation(delta, weights, fractions, beyond):
    w = np.array(weights)
    if w.sum() == 0.0:
        w[0] = 1.0
    w = w / w.sum()
    m = LiftedDistribution(Grid(delta, len(w) - 1), float(w[0]), w[1:])
    n = m.grid.m_delta
    k = np.arange(len(fractions)) % n
    x = np.concatenate([
        m.grid.edges(),  # edges, 0 and M included
        (k + np.array(fractions)) * delta,  # interior points
        [-beyond - 1e-9, m.grid.m + beyond],  # below 0, at or above M
    ])
    got = m.cdf(x)
    assert np.max(np.abs(got - _interval_interpolation_cdf(m, x))) <= 1e-15
    assert got[-2] == 0.0
