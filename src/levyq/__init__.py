"""Certified transient distributions of queues with one-sided compound-Poisson input.

The package discretizes the M/G/1 workload process (and its spectrally
negative counterpart) into a finite Markov chain, lifts the chain's
distribution back to a piecewise-constant density on the original state
space, and accumulates an explicit Wasserstein-distance bound between the
lifted and the true transient law.  An exact event-driven Monte Carlo
simulator validates the certificates statistically.
"""

from .bounds import BoundLedger, OneJumpRefiner, StepComponents
from .errors import (
    CertificationError,
    ConfigError,
    GridError,
    LevyqError,
    SupportError,
)
from .jobsize import (
    Deterministic,
    Erlang,
    Exponential,
    JobSize,
    Pareto,
    TabulatedCdf,
    Uniform,
)
from .kernel import (
    ModelKind,
    ModelSpec,
    TransitionKernel,
    build_kernel,
    rescale_for_speed,
)
from .measure import (
    GeneralMeasure,
    Grid,
    LiftedDistribution,
    wasserstein,
)
from .oracle import SimConfig, empirical_wasserstein, simulate
from .solver import TransientResult, certified_tail, discretize_initial, lift, solve

__version__ = "0.1.0"

__all__ = [
    "BoundLedger",
    "CertificationError",
    "ConfigError",
    "Deterministic",
    "Erlang",
    "Exponential",
    "GeneralMeasure",
    "Grid",
    "GridError",
    "JobSize",
    "LevyqError",
    "LiftedDistribution",
    "ModelKind",
    "ModelSpec",
    "OneJumpRefiner",
    "Pareto",
    "SimConfig",
    "StepComponents",
    "SupportError",
    "TabulatedCdf",
    "TransientResult",
    "TransitionKernel",
    "Uniform",
    "build_kernel",
    "certified_tail",
    "discretize_initial",
    "empirical_wasserstein",
    "lift",
    "rescale_for_speed",
    "simulate",
    "solve",
    "wasserstein",
]
