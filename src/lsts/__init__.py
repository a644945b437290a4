"""Stationarity testing for locally stationary time series.

A Kolmogorov-Smirnov type test built on the empirical spectral distance
process of the local periodogram, calibrated by an AR-sieve bootstrap, plus
simulation models and a Monte Carlo harness for rejection-rate studies.
"""

from .empirical import DistanceProcess, limit_covariance_h0
from .harness import ExperimentConfig, ExperimentReport, run_experiment
from .models import (
    ModelSpec,
    PiecewiseAR1,
    ScaledNoise,
    StationaryAR,
    StationaryMA,
    TvAR1Sqrt,
    TvMA1Lag,
    simulate,
    true_distance,
    true_spectral_density,
)
from .sieve import (
    ArFit,
    DegenerateSeriesError,
    TestResult,
    aic_select,
    ar_spectral_density,
    bootstrap_replicate,
    distance_process,
    run_test,
)
from .spectral import (
    BadWindowError,
    SpectralGrid,
    default_window,
    make_grid,
    pre_periodogram,
    pre_periodogram_matrix,
    stationary_periodogram_all,
)

__version__ = "0.1.0"

__all__ = [
    "ArFit",
    "BadWindowError",
    "DegenerateSeriesError",
    "DistanceProcess",
    "ExperimentConfig",
    "ExperimentReport",
    "ModelSpec",
    "PiecewiseAR1",
    "ScaledNoise",
    "SpectralGrid",
    "StationaryAR",
    "StationaryMA",
    "TestResult",
    "TvAR1Sqrt",
    "TvMA1Lag",
    "aic_select",
    "ar_spectral_density",
    "bootstrap_replicate",
    "default_window",
    "distance_process",
    "limit_covariance_h0",
    "make_grid",
    "pre_periodogram",
    "pre_periodogram_matrix",
    "run_experiment",
    "run_test",
    "simulate",
    "stationary_periodogram_all",
    "true_distance",
    "true_spectral_density",
]
