"""Exact dyadic set arithmetic, stopping-time decompositions, dilation
covering checks, and averaged Fourier partial-sum moment experiments on
the one- and two-dimensional torus."""

from .czd import HeightTooLowError
from .estimates import (
    DensityRun,
    MomentReport,
    NotBandLimitedError,
    ScheduleInfeasibleError,
    StrongMeansReport,
    averaged_moment,
    averaged_moment_rect,
    decay_slope,
    density_subsequence,
    dyadic_schedule,
    strong_means_measure,
    verify_first_reduction,
    verify_second_reduction,
)
from .grid import GridFunction, tensor
from .spectral import AliasingError, valle_poussin
from .suites import SuiteResult, chain_suite, covering_suite, czd_suite

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "DensityRun",
    "GridFunction",
    "HeightTooLowError",
    "MomentReport",
    "NotBandLimitedError",
    "ScheduleInfeasibleError",
    "StrongMeansReport",
    "SuiteResult",
    "averaged_moment",
    "averaged_moment_rect",
    "chain_suite",
    "covering_suite",
    "czd_suite",
    "decay_slope",
    "density_subsequence",
    "dyadic_schedule",
    "strong_means_measure",
    "tensor",
    "valle_poussin",
    "verify_first_reduction",
    "verify_second_reduction",
]
