"""Empirical spectral distance processes and their sup-statistics.

The distance process contrasts the time-localized cumulative spectrum with
its time-averaged counterpart over a time/frequency grid of spectral
estimates; scaled by sqrt(T), its supremum over the unit square is the
Kolmogorov-Smirnov type test statistic.  `sieve.distance_process` builds it
for a series on the path that also computes the test statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

TWO_PI = 2.0 * np.pi


def distance_values(estimates: np.ndarray, denom: float) -> np.ndarray:
    """Cumulative-contrast values over all grid corners.

    For an R x C matrix P of spectral estimates this is

        V[j, k] = (1/denom) ( sum_{j'<=j, k'<=k} P - (j/R) sum_{j'<=R, k'<=k} P ),

    computed with one pass of 2-D cumulative sums.  Row j = R is exactly zero
    by cancellation.  Batched over leading axes.
    """
    S = estimates.cumsum(axis=-2, dtype=float)
    S.cumsum(axis=-1, out=S)
    R = S.shape[-2]
    frac = (np.arange(1, R + 1) / R)[:, None]
    S -= frac * S[..., -1:, :]
    S /= denom
    return S


def sup_statistic(values: np.ndarray, T: int) -> np.ndarray:
    """sqrt(T) * max |values| over the trailing two axes.

    The process is piecewise constant in (v, omega), so the max over grid
    corners exhausts the supremum over the whole unit square.
    """
    return np.sqrt(T) * np.abs(values).max(axis=(-2, -1))


@dataclass
class DistanceProcess:
    """Distance process of either estimator; values[j, k] is its value at (times[j], frequencies[k])."""

    values: np.ndarray
    times: np.ndarray
    frequencies: np.ndarray
    sup_stat: float

    def to_csv(self, fileobj) -> None:
        """Matrix as CSV: header row of frequencies, first column of times."""
        fileobj.write("u," + ",".join(f"{c:.10g}" for c in self.frequencies) + "\n")
        for u, row in zip(self.times, self.values):
            fileobj.write(f"{u:.10g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def limit_covariance_h0(
    f: Callable[[float], float], v1: float, omega1: float, v2: float, omega2: float
) -> float:
    """Covariance of the limiting Gaussian process under stationarity.

    (min(v1,v2) - v1 v2) / (2 pi) * int_0^{pi min(omega1,omega2)} f(l)^2 dl
    for a stationary spectral density f, by adaptive quadrature.
    """
    factor = (min(v1, v2) - v1 * v2) / TWO_PI
    upper = np.pi * min(omega1, omega2)
    if factor == 0.0 or upper <= 0.0:
        return 0.0
    integral, _ = quad(lambda lam: f(lam) ** 2, 0.0, upper, epsabs=1e-12, epsrel=1e-12, limit=200)
    return factor * integral
