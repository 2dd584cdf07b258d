"""Scalar integrals of a job-size CDF F, for tests to use as oracles.

Each is one window's difference of the law's prefix integrals
J(x) = int_0^x F (``prefix_cdf``) and K(x) = int_0^x s F(s) ds
(``prefix_x_cdf``), which the kernel and the refiner difference over whole
grids.
"""


def cdf_integral(job, a: float, b: float) -> float:
    """int_a^b F(s) ds (treating F(s) = 0 for s < 0).

    Raises ValueError for reversed bounds.
    """
    if b < a:
        raise ValueError(f"reversed integration bounds: [{a}, {b}]")
    return float(job.prefix_cdf(b) - job.prefix_cdf(a))


def weighted_cdf_diff_integral(job, delta: float, a: float, b: float, c: float) -> float:
    """int_a^b (c - s) (F(s + delta) - F(s)) ds.

    The CDF increment weighted linearly, as it shows up when averaging over
    a uniformly distributed idle time (the M/G/1 state 1 row).
    """
    if b < a:
        raise ValueError(f"reversed integration bounds: [{a}, {b}]")
    J, K = job.prefix_cdf, job.prefix_x_cdf
    # split into the two plain integrals, substituting u = s + delta
    upper = (c + delta) * (J(b + delta) - J(a + delta)) - (K(b + delta) - K(a + delta))
    lower = c * (J(b) - J(a)) - (K(b) - K(a))
    return float(upper - lower)
