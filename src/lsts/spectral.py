"""Periodogram-type spectral estimators and the block/frequency grid.

Three estimators share the package: the ordinary periodogram, used by the
order-selection criterion on the full sample and by the local statistic on
each length-N block of `make_grid`, which holds the whole window rule, and
the lag-product pre-periodogram localized at single time points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

TWO_PI = 2.0 * np.pi


class BadWindowError(ValueError):
    """Window length N is odd, too small, or leaves fewer than two blocks."""


@dataclass
class SpectralGrid:
    """Block/frequency discretization T = N*M.

    Block midpoints u_j = (N(j-1) + N/2)/T for j = 1..M and frequencies
    lambda_k = 2 pi k / N for k = 1..N/2 (so lambda_{N/2} = pi exactly).
    The local periodogram at (u_j, lambda_k) is the periodogram of block j,
    stationary_periodogram_all(x[:T].reshape(M, N))[j-1, k-1].
    """

    T: int
    N: int
    M: int
    midpoints: np.ndarray
    frequencies: np.ndarray


def default_window(T: int) -> int:
    """Default block length: the even N in [T^0.5, T^0.75] closest to T^(5/8), divisors of T first.

    A non-divisor truncates the series tail to a multiple of N.  Ties prefer
    the larger window.  Every T >= 8 has a candidate; shorter series raise.
    """
    lo, hi, target = T**0.5, T**0.75, T**0.625
    candidates = [n for n in range(4, T // 2 + 1, 2) if lo <= n <= hi]
    if not candidates:
        raise ValueError(f"no admissible window length for T={T}")
    return min(candidates, key=lambda n: (T % n != 0, abs(n - target), -n))


def make_grid(T: int, N: int | None = None) -> SpectralGrid:
    """Block grid of a length-T series: N (default_window(T) if omitted) must be even,
    at least 4 and leave two blocks; a tail past a multiple of N is dropped with a warning."""
    T = int(T)
    N = default_window(T) if N is None else int(N)
    if N % 2 != 0 or N < 4:
        raise BadWindowError(f"N must be an even integer >= 4, got {N}")
    M = T // N
    if M < 2:
        raise BadWindowError(f"N={N} leaves {M} block(s) for T={T}; need at least 2")
    if T % N:
        warnings.warn(f"series length {T} not divisible by N={N}; truncating tail to T={M * N}", stacklevel=2)
        T = M * N
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


