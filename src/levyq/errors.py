"""Exception types shared across the package."""


class LevyqError(Exception):
    """Base class for all package errors."""


class GridError(LevyqError):
    """Inconsistent discretization geometry (step size, truncation, states)."""


class SupportError(LevyqError):
    """A measure extends beyond the truncated state space [0, M]."""


class CertificationError(LevyqError):
    """A certified bound cannot be produced for the requested configuration.

    Typical causes: the job-size distribution has no finite mean, which the
    M/G/1 bound requires, or the chain's mass drifted outside 1 +- 1e-9.
    """


class ConfigError(LevyqError):
    """Invalid run configuration (CLI / config file level)."""
