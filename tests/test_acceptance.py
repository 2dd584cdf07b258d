"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The finest-resolution
transient run is shared between criteria through module-scoped fixtures; the
full suite is budgeted to finish well inside the stated runtime limits.
"""

import time

import numpy as np
import pytest

from levyq import (
    Deterministic,
    Erlang,
    GeneralMeasure,
    Grid,
    ModelKind,
    ModelSpec,
    Pareto,
    SimConfig,
    StepComponents,
    Uniform,
    build_kernel,
    empirical_wasserstein,
    simulate,
    solve,
    wasserstein,
)

REF_MG1 = ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0))
HEAVY_ERLANG = ModelSpec(ModelKind.MG1, 0.4, Erlang(6, 2.0))
REF_SN = ModelSpec(ModelKind.SPECTRALLY_NEGATIVE, 1 / 3, Pareto(1.0, 1.5))
MC_SEED = 42


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def mg1_uniform_run():
    """Finest-resolution transient run: delta = 1/500, M = 50, t = 30."""
    grid = Grid(1 / 500, 25000)
    t0 = time.perf_counter()
    res = solve(
        REF_MG1,
        grid,
        GeneralMeasure.dirac(1.0),
        horizon_steps=15000,
        snapshot_steps=[500, 2500, 5000, 15000],
        bound_mode="refined",
    )
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def erlang_run():
    grid = Grid(1 / 100, 2000)
    t0 = time.perf_counter()
    res = solve(
        HEAVY_ERLANG,
        grid,
        GeneralMeasure.dirac(0.0),
        horizon_steps=1000,
        snapshot_steps=[100, 500, 1000],
        bound_mode="refined",
    )
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pareto_run():
    grid = Grid(1 / 100, 5500)
    t0 = time.perf_counter()
    res = solve(
        REF_SN,
        grid,
        GeneralMeasure.dirac(5.0),
        horizon_steps=300,
        snapshot_steps=[100, 300],
        bound_mode="refined",
    )
    return res, time.perf_counter() - t0


def test_01_initial_bound_exact(mg1_uniform_run):
    res, _ = mg1_uniform_run
    b0 = res.ledger.b0
    ok = abs(b0 - 0.001) <= 1e-12
    report(1, "initial-bound-exactness", ok, f"(b0 = {b0!r})")


def test_02_bound_trajectory(mg1_uniform_run):
    res, elapsed = mg1_uniform_run
    final = res.ledger.final
    in_window = 0.009 <= final <= 0.015
    # linear fit of the cumulative bound over all steps
    cum = res.ledger.cumulative
    t = np.arange(len(cum)) * res.grid.delta
    coef = np.polyfit(t, cum, 1)
    resid = cum - np.polyval(coef, t)
    rel_resid = float(np.max(np.abs(resid)) / (cum.max() - cum.min()))
    ok = in_window and rel_resid <= 0.05 and elapsed <= 600.0
    report(
        2,
        "fine-grid-bound-trajectory",
        ok,
        f"(bound(t=30) = {final:.6f}, rel residual = {rel_resid:.4%}, "
        f"runtime = {elapsed:.0f}s)",
    )


def test_03_coarse_grid_speed():
    grid = Grid(1 / 10, 500)
    t0 = time.perf_counter()
    res = solve(
        REF_MG1,
        grid,
        GeneralMeasure.dirac(1.0),
        horizon_steps=300,
        bound_mode="refined",
    )
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 5.0 and res.ledger.final > 0
    report(3, "coarse-grid-speed", ok, f"(solve+bounds in {elapsed:.2f}s <= 5s)")


def test_04_heavy_load_run(erlang_run):
    res, elapsed = erlang_run
    cum = res.ledger.cumulative
    half = cum[len(cum) // 2 :]
    second_diff = np.diff(half, 2)
    convex = bool(np.all(second_diff >= -1e-10))
    increasing = bool(np.all(np.diff(half) > 0))
    ok = elapsed <= 60.0 and convex and increasing
    report(
        4,
        "heavy-load-convex-bound",
        ok,
        f"(runtime = {elapsed:.1f}s <= 60s, min 2nd diff = {second_diff.min():.2e}, "
        f"bound(t=10) = {cum[-1]:.4f})",
    )


def test_05_order_delta_convergence():
    totals = []
    for d_inv in (50, 100, 200):
        grid = Grid(1 / d_inv, 10 * d_inv)  # M = 10 suffices to t=1
        res = solve(
            REF_MG1,
            grid,
            GeneralMeasure.dirac(1.0),
            horizon_steps=d_inv,
            bound_mode="refined",
        )
        # the final bound without its truncation charges, summed as the
        # ledger sums its steps
        rows = res.ledger.rows
        trunc = rows[:, StepComponents._fields.index("truncation_weighted")]
        totals.append(float(res.ledger.b0 + np.cumsum(sum(rows.T) - trunc)[-1]))
    r1 = totals[0] / totals[1]
    r2 = totals[1] / totals[2]
    ok = 1.7 <= r1 <= 2.3 and 1.7 <= r2 <= 2.3
    report(
        5,
        "order-delta-convergence",
        ok,
        f"(halving ratios {r1:.3f}, {r2:.3f} within [1.7, 2.3])",
    )


def test_06_oracle_consistency(mg1_uniform_run, erlang_run, pareto_run):
    cases = [
        ("mg1-uniform", REF_MG1, GeneralMeasure.dirac(1.0), mg1_uniform_run[0], 1.0),
        ("mg1-erlang", HEAVY_ERLANG, GeneralMeasure.dirac(0.0), erlang_run[0], 5.0),
        ("specneg-pareto", REF_SN, GeneralMeasure.dirac(5.0), pareto_run[0], 3.0),
    ]
    t0 = time.perf_counter()
    details = []
    ok = True
    for name, spec, mu0, res, t in cases:
        dist, bound = res.at_time(t)
        samples = simulate(SimConfig(spec, mu0, t, 100_000, MC_SEED))
        est, se = empirical_wasserstein(samples, dist, n_boot=200, seed=MC_SEED)
        passed = est <= bound + 3.0 * se
        ok = ok and passed
        details.append(f"{name}@t={t:g}: {est:.5f} <= {bound:.5f}+3*{se:.5f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 300.0
    report(6, "oracle-consistency", ok, f"({'; '.join(details)}; {elapsed:.0f}s)")


def _random_small_spec(rng):
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
    grid = Grid(float(rng.uniform(0.05, 0.6)), int(rng.integers(5, 201)))
    return spec, grid


def test_07_dense_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        spec, grid = _random_small_spec(rng)
        kern = build_kernel(spec, grid)
        dense = kern.dense()
        p = rng.random(len(kern.states()))
        p /= p.sum()
        out_struct = kern.apply(p)
        out_dense = p @ dense
        worst = max(worst, float(np.max(np.abs(out_struct - out_dense))))
    ok = worst < 1e-12
    report(7, "dense-oracle-equivalence", ok, f"(max |diff| = {worst:.2e} over 50 configs)")


def test_08_kernel_stochasticity():
    rng = np.random.default_rng(5678)
    worst_sum = 0.0
    diag_ok = True
    for _ in range(200):
        spec, grid = _random_small_spec(rng)
        kern = build_kernel(spec, grid)
        sums = kern.dense().sum(axis=1)
        worst_sum = max(worst_sum, float(np.max(np.abs(sums - 1.0))))
        diag_ok = diag_ok and bool(np.all(kern.diag >= 0.0))
    ok = worst_sum < 1e-12 and diag_ok
    report(
        8,
        "kernel-stochasticity",
        ok,
        f"(max |rowsum - 1| = {worst_sum:.2e} over 200 configs, diag >= 0: {diag_ok})",
    )


def test_09_wasserstein_engine():
    from test_measure import quantile_coupling_distance, random_atomic, random_measure

    rng = np.random.default_rng(91)
    worst = 0.0
    for _ in range(500):
        xa, wa = random_atomic(rng)
        xb, wb = random_atomic(rng)
        a = GeneralMeasure(atoms=list(zip(xa, wa)))
        b = GeneralMeasure(atoms=list(zip(xb, wb)))
        expected = quantile_coupling_distance(xa, wa, xb, wb)
        worst = max(worst, abs(wasserstein(a, b) - expected))
    metric_ok = True
    for _ in range(200):
        a, b, c = (random_measure(rng) for _ in range(3))
        dab, dba = wasserstein(a, b), wasserstein(b, a)
        metric_ok = metric_ok and abs(dab - dba) < 1e-10 and dab >= 0
        metric_ok = metric_ok and dab <= wasserstein(a, c) + wasserstein(c, b) + 1e-10
    ok = worst < 1e-10 and metric_ok
    report(
        9,
        "wasserstein-engine",
        ok,
        f"(max |engine - coupling oracle| = {worst:.2e}, metric axioms: {metric_ok})",
    )


def test_10_drift_spike(pareto_run):
    res, _ = pareto_run
    dist, _ = res.at_time(3.0)
    idx = int(round(8.0 / res.grid.delta)) - 1  # interval (8 - delta, 8]
    mass = float(dist.interval_mass[idx])
    cut_term = sum(c.jump_cut for c in res.ledger.steps)
    floor = np.exp(-1.0) - cut_term
    ok = mass >= floor and mass >= np.exp(-1.0) - 1e-9
    report(
        10,
        "drift-spike-mass",
        ok,
        f"(mass = {mass:.6f} >= e^-1 - cut = {floor:.6f})",
    )
