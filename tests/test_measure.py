"""Measures, CDFs, and the exact Wasserstein engine.

The engine is validated against an independent oracle on purely atomic
instances: sort-and-pair quantile coupling, which is the optimal transport
plan on the real line.
"""

import numpy as np
import pytest

from levyq import (
    GeneralMeasure,
    Grid,
    GridError,
    LiftedDistribution,
    ModelKind,
    ModelSpec,
    Uniform,
    measure,
    solve,
    wasserstein,
)


def quantile_coupling_distance(xs_a, ws_a, xs_b, ws_b):
    """Oracle: pair off mass in quantile order and sum |x - y| * mass."""
    ia = np.argsort(xs_a)
    ib = np.argsort(xs_b)
    xa, wa = list(xs_a[ia]), list(ws_a[ia])
    xb, wb = list(xs_b[ib]), list(ws_b[ib])
    total = 0.0
    i = j = 0
    while i < len(xa) and j < len(xb):
        m = min(wa[i], wb[j])
        total += m * abs(xa[i] - xb[j])
        wa[i] -= m
        wb[j] -= m
        if wa[i] <= 1e-15:
            i += 1
        if wb[j] <= 1e-15:
            j += 1
    return total


def random_atomic(rng, max_atoms=6):
    n = rng.integers(1, max_atoms + 1)
    xs = rng.uniform(0.0, 10.0, n)
    ws = rng.dirichlet(np.ones(n))
    return xs, ws


def random_measure(rng):
    """Random mixture of a few atoms and uniform pieces."""
    n_atoms = int(rng.integers(0, 4))
    n_pieces = int(rng.integers(0 if n_atoms else 1, 3))
    weights = rng.dirichlet(np.ones(max(n_atoms + n_pieces, 1)))
    atoms = [(float(rng.uniform(0, 8)), float(w)) for w in weights[:n_atoms]]
    pieces = []
    for w in weights[n_atoms:]:
        a = float(rng.uniform(0, 6))
        b = a + float(rng.uniform(0.1, 3))
        pieces.append((a, b, float(w)))
    return GeneralMeasure(atoms=atoms, pieces=pieces)


class TestGrid:
    def test_geometry(self):
        g = Grid(0.5, 100)
        assert g.m == 50.0
        assert len(g.edges()) == 101

    def test_invalid(self):
        with pytest.raises(GridError):
            Grid(0.0, 10)
        with pytest.raises(GridError):
            Grid(0.1, 0)

    @pytest.mark.parametrize("m_delta", [10.5, 10.0, True, "10"], ids=repr)
    def test_non_integer_size_refused(self, m_delta):
        # 10.5 would fail inside numpy and True would make one interval;
        # numpy integers stay accepted
        with pytest.raises(GridError, match="integer"):
            Grid(0.1, m_delta)
        assert Grid(0.1, np.int64(5)).m_delta == 5


class TestCdfOf:
    def test_pure_atom_at_zero(self):
        g = Grid(0.5, 4)
        m = LiftedDistribution(g, 1.0, np.zeros(4))
        assert m.cdf(0.0) == 1.0

    def test_single_uniform_piece(self):
        m = GeneralMeasure(pieces=[(0.0, 2.0, 1.0)])
        assert m.cdf(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_lift_of_dirac_interval(self):
        # all mass on the interval just below 1: cdf(1) = 1
        g = Grid(1 / 500, 1000)
        w = np.zeros(1000)
        w[499] = 1.0  # interval (0.998, 1.0]
        m = LiftedDistribution(g, 0.0, w)
        assert m.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        assert m.cdf(0.998) == pytest.approx(0.0, abs=1e-12)

    def test_right_continuity_at_atom(self):
        m = GeneralMeasure(atoms=[(1.0, 0.4)], pieces=[(2.0, 3.0, 0.6)])
        assert m.cdf(1.0) == pytest.approx(0.4, abs=1e-15)
        assert m.cdf(np.nextafter(1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("which", ["general", "lifted"])
    def test_nan_gives_nan(self, which):
        if which == "general":
            m = GeneralMeasure(atoms=[(1.0, 0.4)], pieces=[(2.0, 3.0, 0.6)])
        else:
            spec = ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0))
            res = solve(spec, Grid(0.1, 200), GeneralMeasure.dirac(1.0), 20)
            m = res.distributions[-1]
        out = m.cdf(np.array([np.nan, -1.0, 25.0]))
        assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == pytest.approx(1.0)
        assert np.isnan(m.cdf(np.nan)) and type(m.cdf(np.nan)) is float
        # the infinities give the limits, the CDF's value past its support
        assert m.cdf(-np.inf) == 0.0 and m.cdf(np.inf) == m.cdf(25.0)


class TestWasserstein:
    def test_identical_measures(self):
        m = GeneralMeasure(atoms=[(1.0, 0.3)], pieces=[(0.0, 2.0, 0.7)])
        assert wasserstein(m, m) == 0.0

    def test_dirac_vs_dirac(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = float(rng.uniform(0, 10))
            d = wasserstein(GeneralMeasure.dirac(0.0), GeneralMeasure.dirac(x))
            assert d == pytest.approx(x, rel=1e-14, abs=1e-14)

    def test_dirac_vs_adjacent_interval(self):
        # half the interval width, exactly
        delta = 1 / 500
        d = wasserstein(
            GeneralMeasure.dirac(1.0), GeneralMeasure(pieces=[(1.0 - delta, 1.0, 1.0)])
        )
        assert d == pytest.approx(0.001, abs=1e-12)

    def test_quantile_coupling_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            xa, wa = random_atomic(rng)
            xb, wb = random_atomic(rng)
            a = GeneralMeasure(atoms=list(zip(xa, wa)))
            b = GeneralMeasure(atoms=list(zip(xb, wb)))
            expected = quantile_coupling_distance(xa, wa, xb, wb)
            assert wasserstein(a, b) == pytest.approx(expected, abs=1e-10)

    def test_metric_axioms(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a, b, c = (random_measure(rng) for _ in range(3))
            dab = wasserstein(a, b)
            dba = wasserstein(b, a)
            dac = wasserstein(a, c)
            dcb = wasserstein(c, b)
            assert dab >= 0
            assert dab == pytest.approx(dba, abs=1e-10)
            assert dab <= dac + dcb + 1e-10
        for _ in range(50):
            a = random_measure(rng)
            assert wasserstein(a, a) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_measure(rng)
            b = random_measure(rng)
            c = float(rng.uniform(0, 3))
            a_shift = GeneralMeasure(
                atoms=[(x + c, w) for x, w in a.atoms],
                pieces=[(lo + c, hi + c, w) for lo, hi, w in a.pieces],
            )
            b_shift = GeneralMeasure(
                atoms=[(x + c, w) for x, w in b.atoms],
                pieces=[(lo + c, hi + c, w) for lo, hi, w in b.pieces],
            )
            d0 = wasserstein(a, b)
            assert wasserstein(a_shift, b_shift) == pytest.approx(d0, abs=1e-11)
            # shifting only one measure moves the distance by at most c
            assert abs(wasserstein(a_shift, b) - d0) <= c + 1e-11

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError):
            GeneralMeasure(atoms=[(1.0, 0.5)])

    def test_lifted_vs_general(self):
        g = Grid(0.5, 4)
        lifted = LiftedDistribution(g, 0.25, np.array([0.25, 0.25, 0.25, 0.0]))
        same = GeneralMeasure(
            atoms=[(0.0, 0.25)],
            pieces=[(0.0, 0.5, 0.25), (0.5, 1.0, 0.25), (1.0, 1.5, 0.25)],
        )
        assert wasserstein(lifted, same) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("budget", [1, 7, 10**9])
def test_work_budget_leaves_results_bit_identical(monkeypatch, budget):
    # the sliced stages are elementwise and every reduction runs whole
    grid = Grid(0.01, 3000)
    rng = np.random.default_rng(4)
    lifted = LiftedDistribution(grid, 0.1, 0.9 * rng.dirichlet(np.ones(3000)))
    mu = GeneralMeasure(atoms=[(0.0, 0.2), (7.0, 0.3)], pieces=[(1.0, 12.5, 0.5)])
    xs = np.linspace(-1.0, 31.0, 5001)

    def results():
        return [wasserstein(mu, lifted), *mu.cdf(xs), *lifted.cdf(xs)]

    ref = results()
    monkeypatch.setattr(measure, "WORK_BUDGET", budget)
    assert np.array(results()).tobytes() == np.array(ref).tobytes()


class TestThresholdMass:
    def grid_dist(self):
        g = Grid(0.5, 4)
        return LiftedDistribution(g, 0.25, np.array([0.25, 0.25, 0.25, 0.0]))

    def test_at_truncation_edge(self):
        assert self.grid_dist().threshold_mass(2.0) == 0.0

    def test_at_zero_excludes_atom(self):
        m = self.grid_dist()
        assert m.threshold_mass(0.0) == pytest.approx(0.75, abs=1e-14)

    def test_fractional_piece(self):
        g = Grid(1.0, 2)
        lifted = LiftedDistribution(g, 0.0, np.array([0.5, 0.5]))
        assert lifted.threshold_mass(0.5) == pytest.approx(0.75, abs=1e-14)


class TestMeasureValidation:
    def test_nan_refused(self):
        # a NaN total must not slip through |total - 1| > tol
        g = Grid(0.5, 4)
        with pytest.raises(ValueError):
            LiftedDistribution(g, np.nan, np.array([0.25, 0.25, 0.25, 0.25]))
        with pytest.raises(ValueError):
            GeneralMeasure(atoms=[(1.0, np.nan)])
        with pytest.raises(ValueError):
            GeneralMeasure(atoms=[(np.nan, 1.0)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GeneralMeasure.dirac(np.inf),
            lambda: GeneralMeasure(pieces=[(0.0, np.inf, 1.0)]),
        ],
        ids=["dirac-inf", "uniform-inf"],
    )
    def test_infinite_location_refused(self, build):
        with pytest.raises(ValueError, match="atom locations|uniform piece"):
            build()

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"atoms": [(True, 1.0)]}, "atom locations"),
            ({"atoms": [("2", 1.0)]}, "atom locations"),
            ({"atoms": [(1.0, True)]}, "atom masses"),
            ({"pieces": [(0.0, "3", 1.0)]}, "uniform piece ends"),
        ],
        ids=["bool-location", "string-location", "bool-mass", "string-piece-end"],
    )
    def test_bools_and_strings_refused(self, kwargs, field):
        # float() would take each of these as a number
        with pytest.raises(ValueError, match=field):
            GeneralMeasure(**kwargs)
