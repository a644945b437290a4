"""Periodogram-type spectral estimators.

Three estimators share the package: the ordinary periodogram, used by the
order-selection criterion on the full sample and by the local periodogram on
each disjoint length-N block (the workhorse of the test), and the
lag-product pre-periodogram localized at single time points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

TWO_PI = 2.0 * np.pi


class BadWindowError(ValueError):
    """Window length N is odd, too small, or leaves fewer than two blocks."""


class NonDivisibleError(ValueError):
    """Window length N does not divide the sample size T."""


@dataclass
class SpectralGrid:
    """Block/frequency discretization T = N*M.

    Block midpoints u_j = (N(j-1) + N/2)/T for j = 1..M and frequencies
    lambda_k = 2 pi k / N for k = 1..N/2 (so lambda_{N/2} = pi exactly).
    """

    T: int
    N: int
    M: int
    midpoints: np.ndarray
    frequencies: np.ndarray


@dataclass
class LocalPeriodogramMatrix:
    """values[j-1, k-1] = local periodogram at (u_j, lambda_k)."""

    values: np.ndarray
    grid: SpectralGrid


def make_grid(T: int, N: int) -> SpectralGrid:
    T, N = int(T), int(N)
    if N % 2 != 0 or N < 4:
        raise BadWindowError(f"N must be an even integer >= 4, got {N}")
    if T <= 0 or T % N != 0:
        raise NonDivisibleError(f"N={N} does not divide T={T}")
    M = T // N
    if M < 2:
        raise BadWindowError(f"N={N} leaves only {M} block(s) for T={T}; need at least 2")
    midpoints = (N * np.arange(M) + N // 2) / T
    frequencies = np.pi * (2.0 * np.arange(1, N // 2 + 1) / N)
    return SpectralGrid(T=T, N=N, M=M, midpoints=midpoints, frequencies=frequencies)


def stationary_periodogram_all(x: np.ndarray) -> np.ndarray:
    """Periodogram (1/2 pi T)|sum_t X_t e^{-i lambda t}|^2 at 2 pi k/T, k = 1..T//2, of the last axis."""
    x = np.asarray(x, dtype=float)
    T = x.shape[-1]
    F = np.fft.rfft(x, axis=-1)[..., 1 : T // 2 + 1]
    return (F.real**2 + F.imag**2) / (TWO_PI * T)


# second name under which sieve times the local statistic's block periodograms
_block_periodograms = stationary_periodogram_all


def local_periodogram(x: np.ndarray, grid: SpectralGrid) -> LocalPeriodogramMatrix:
    """Local periodogram matrix over the grid.

    Entry (j, k) is (1/2 pi N)|sum_{s=0}^{N-1} X_{t_j - N/2 + 1 + s} e^{-i lambda_k s}|^2
    with t_j the j-th block midpoint, i.e. the plain periodogram of block j.
    With midpoint u_j all blocks lie inside 1..T, so the out-of-range-is-zero
    convention never triggers on the grid.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != grid.T:
        raise ValueError(f"series length {x.shape} does not match grid T={grid.T}")
    values = stationary_periodogram_all(x.reshape(grid.M, grid.N))
    return LocalPeriodogramMatrix(values=values, grid=grid)


def pre_periodogram(x: np.ndarray, t: int, lam):
    """Lag-product estimator at time point t (1-based), J(t/T, lam).

    Sums X_{floor(t + 1/2 + k/2)} X_{floor(t + 1/2 - k/2)} e^{-i lam k} over
    all integer lags k whose index pair lies in 1..T; the floors evaluate to
    t + floor((k+1)/2) and t - floor(k/2), so integer arithmetic is exact.
    Reading the indices as round(t +- k/2), half to even, would instead map
    every odd lag onto an even one and make the estimator blind to
    x_t -> (-1)^t x_t (acceptance criterion 5 shows why that matters).
    Imaginary parts cancel by k <-> -k symmetry and are never materialized.
    """
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    if not 1 <= t <= T:
        raise ValueError(f"t={t} out of range 1..{T}")
    k = np.arange(2 * T + 1)
    hi = (t - 1) + (k + 1) // 2
    lo = (t - 1) - k // 2
    ok = (hi >= 0) & (hi < T) & (lo >= 0) & (lo < T)
    c = np.zeros(2 * T + 1)
    c[ok] = x[hi[ok]] * x[lo[ok]]
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    out = (c[0] + 2.0 * (np.cos(np.outer(lam_arr, k[1:])) @ c[1:])) / TWO_PI
    if np.ndim(lam) == 0:
        return float(out[0])
    return out


def pre_periodogram_matrix(x: np.ndarray) -> np.ndarray:
    """All pre-periodogram values J(t/T, lambda_{k,T}), t = 1..T, k = 1..T//2.

    Folds the symmetric lag products modulo T and evaluates with one FFT per
    series, which is exact at the full-sample Fourier frequencies.  Accepts a
    batch of series in the leading axes: (..., T) -> (..., T, T//2).  Each
    series is transformed on its own, so a batch gives the same bits as its
    rows one at a time.
    """
    x = np.asarray(x, dtype=float)
    T = x.shape[-1]
    half = T // 2
    pad = np.zeros(x.shape[:-1] + (3 * T,))
    pad[..., T : 2 * T] = x
    # lag k at time t0 pairs pad[T + t0 + (k+1)//2] with pad[T + t0 - k//2]:
    # lags 2m read (T + t0 + m, T + t0 - m), lags 2m+1 read (T + t0 + m + 1, T + t0 - m)
    lead, s = pad.strides[:-1], pad.strides[-1]
    n_even = (T + 1) // 2
    up = as_strided(pad[..., T:], x.shape[:-1] + (T, n_even + 1), lead + (s, s))
    down = as_strided(pad[..., T:], x.shape[:-1] + (T, n_even), lead + (s, -s))
    L = np.empty(x.shape[:-1] + (T, T))
    np.multiply(up[..., :n_even], down, out=L[..., 0::2])
    np.multiply(up[..., 1 : half + 1], down[..., :half], out=L[..., 1::2])
    # lag k-T aliases onto bin k at 2 pi k'/T: bins k and T-k both hold L[k] + L[T-k]
    np.add(L[..., 1:n_even], L[..., : T - n_even : -1], out=L[..., 1:n_even])
    L[..., : T - n_even : -1] = L[..., 1:n_even]
    if T % 2 == 0:
        L[..., half] *= 2.0
    return np.fft.rfft(L, axis=-1).real[..., 1 : half + 1] / TWO_PI


