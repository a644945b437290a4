"""Independent brute-force evaluations of the spectral definitions.

Everything here is written as a literal transcription of the defining
formulas (double/triple loops, explicit complex sums, direct linear solves),
deliberately sharing no code path with the package implementations.  The
exceptions are the two AIC references.  loop_aic_select, the per-order
reference for the batched AIC, reuses the package's autocovariance, Levinson
table and periodogram, and checks only how the residuals and the criterion are
assembled over orders.  per_series_aic_select is the package's earlier
one-series AIC, kept as the bit-for-bit reference of the fits over a batch of
series.
rounded_pre_periodogram_matrix is vectorized because it stands in for the
package's matrix inside whole bootstrap tests (criterion 5); it is itself
pinned to the literal sum naive_rounded_pre_periodogram.
take_pre_periodogram_matrix is the package's earlier index-gather kernel,
kept as the bit-for-bit reference of the strided one.  three_pass_default_window
is the package's earlier window rule, kept as the reference of the one-pass rule.
"""

import cmath
import math

import numpy as np

from lsts import sieve
from lsts.empirical import limit_covariance_h0
from lsts.sieve import (
    ArFit,
    DegenerateSeriesError,
    _block_rows,
    _check_range,
    _levinson_all,
    autocovariance,
)
from lsts.spectral import stationary_periodogram_all

TWO_PI = 2.0 * math.pi


def naive_local_periodogram(x, N, t_mid, lam):
    """(1/2 pi N)|sum_{s=0}^{N-1} X_{t_mid - N/2 + 1 + s} e^{-i lam s}|^2.

    x is 1-indexed conceptually; indices outside 1..T contribute zero.
    """
    T = len(x)
    total = 0.0 + 0.0j
    for s in range(N):
        idx = t_mid - N // 2 + 1 + s
        value = x[idx - 1] if 1 <= idx <= T else 0.0
        total += value * cmath.exp(-1j * lam * s)
    return abs(total) ** 2 / (TWO_PI * N)


def naive_pre_periodogram(x, t, lam):
    """Literal lag sum over k = -2T..2T with floating-point floors.

    Use T a power of two so that u*T = t is exact in floating point.
    """
    T = len(x)
    u = t / T
    total = 0.0 + 0.0j
    for k in range(-2 * T, 2 * T + 1):
        i1 = math.floor(u * T + 0.5 + k / 2)
        i2 = math.floor(u * T + 0.5 - k / 2)
        if 1 <= i1 <= T and 1 <= i2 <= T:
            total += x[i1 - 1] * x[i2 - 1] * cmath.exp(-1j * lam * k)
    assert abs(total.imag) < 1e-9
    return total.real / TWO_PI


def naive_rounded_pre_periodogram(x, t, lam):
    """Literal lag sum over k = -2T..2T with indices round(t +- k/2), half to even.

    This is the odd-lag-blind reading of the half-lag indices: for odd k both
    t + k/2 and t - k/2 are half-integers and round to even indices, so every
    product pairs two even positions.
    """
    T = len(x)
    total = 0.0 + 0.0j
    for k in range(-2 * T, 2 * T + 1):
        i1 = round(t + k / 2)
        i2 = round(t - k / 2)
        if 1 <= i1 <= T and 1 <= i2 <= T:
            total += x[i1 - 1] * x[i2 - 1] * cmath.exp(-1j * lam * k)
    assert abs(total.imag) < 1e-9
    return total.real / TWO_PI


def take_pre_periodogram_matrix(x):
    """The package's pre_periodogram_matrix as first written, with two np.take
    gathers over T x T index matrices and a copied fold; the strided kernel
    must reproduce it bit for bit."""
    x = np.asarray(x, dtype=float)
    T = x.shape[-1]
    half = T // 2
    pad = np.zeros(x.shape[:-1] + (3 * T,))
    pad[..., T : 2 * T] = x
    k = np.arange(T)
    t0 = np.arange(T)[:, None]
    hi = T + t0 + (k + 1) // 2
    lo = T + t0 - k // 2
    lagprod = np.take(pad, hi, axis=-1) * np.take(pad, lo, axis=-1)
    folded = lagprod.copy()
    folded[..., 1:] += lagprod[..., :0:-1]  # lag k-T aliases onto bin k at 2 pi k'/T
    return np.fft.rfft(folded, axis=-1).real[..., 1 : half + 1] / TWO_PI


def rounded_pre_periodogram_matrix(x):
    """Rounded-index reading of pre_periodogram_matrix, (..., T) -> (..., T, T//2).

    Same fold-and-rfft layout as the package, with the lag-k product taken at
    the 1-based indices np.round(t +- k/2) (half to even); indices outside
    1..T land on zero padding.  Lags |k| >= T never pair two in-range indices
    under this reading either, so the lags 0..T-1 and their mirrors suffice.
    """
    x = np.asarray(x, dtype=float)
    T = x.shape[-1]
    pad = np.zeros(x.shape[:-1] + (3 * T,))
    pad[..., T : 2 * T] = x
    k = np.arange(T)
    t = np.arange(1, T + 1)[:, None]
    hi = T - 1 + np.round(t + k / 2).astype(int)
    lo = T - 1 + np.round(t - k / 2).astype(int)
    lagprod = np.take(pad, hi, axis=-1) * np.take(pad, lo, axis=-1)
    folded = lagprod.copy()
    folded[..., 1:] += lagprod[..., :0:-1]
    return np.fft.rfft(folded, axis=-1).real[..., 1 : T // 2 + 1] / TWO_PI


def naive_stationary_periodogram(x, k):
    T = len(x)
    lam = TWO_PI * k / T
    total = sum(x[t - 1] * cmath.exp(-1j * lam * t) for t in range(1, T + 1))
    return abs(total) ** 2 / (TWO_PI * T)


def naive_distance_value(I_values, T, j, k):
    """Double-sum evaluation of the distance process at grid corner (j, k)."""
    M = I_values.shape[0]
    local = sum(I_values[jj, kk] for jj in range(j) for kk in range(k))
    overall = sum(I_values[jj, kk] for jj in range(M) for kk in range(k))
    return local / T - (j / M) * overall / T


def naive_pre_distance_value(J_values, T, j, k):
    local = sum(J_values[jj, kk] for jj in range(j) for kk in range(k))
    overall = sum(J_values[jj, kk] for jj in range(T) for kk in range(k))
    return local / T**2 - (j / T) * overall / T**2


def distance_at(I_values, T, v, omega):
    """Distance process at arbitrary (v, omega) via the floor indices."""
    M, halfN = I_values.shape
    j = math.floor(v * M)
    k = math.floor(omega * halfN)
    return naive_distance_value(I_values, T, j, k)


def toeplitz_yule_walker(gamma, p):
    """Direct dense solve of the Toeplitz moment equations."""
    G = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            G[i, j] = gamma[abs(i - j)]
    return np.linalg.solve(G, gamma[1 : p + 1])


def loop_aic_select(x, p_min, p_max):
    """Whittle-AIC order selection with one residual pass and one rfft per order."""
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    gamma = autocovariance(x, p_max)
    if gamma[0] == 0.0:
        raise DegenerateSeriesError("constant series: autocovariance at lag 0 is zero")
    table = _levinson_all(gamma, p_max)
    pgram = stationary_periodogram_all(x)

    orders = np.arange(p_min, p_max + 1)
    trace = np.empty(len(orders))
    sigmas = np.empty(len(orders))
    for i, p in enumerate(orders):
        coeffs = table[p - 1, :p]
        z = x[p:].copy()
        for j in range(1, p + 1):
            z -= coeffs[j - 1] * x[p - j : T - j]
        z -= z.mean()
        sigma2 = float(z @ z / (T - p))
        if not sigma2 > 0:
            raise DegenerateSeriesError(f"residual variance vanished at order {p}")
        poly = np.zeros(T)
        poly[0] = 1.0
        poly[1 : p + 1] = -coeffs
        gain = np.abs(np.fft.rfft(poly)[1 : T // 2 + 1]) ** 2
        f = sigma2 / (TWO_PI * gain)
        trace[i] = np.sum(np.log(f) + pgram / f) / T + p / T
        sigmas[i] = sigma2

    best = int(np.argmin(trace))
    p = int(orders[best])
    return ArFit(
        order=p,
        coeffs=table[p - 1, :p],
        sigma2=float(sigmas[best]),
        aic_trace=trace,
        candidate_orders=orders,
    )


def per_series_aic_select(x, p_min, p_max):
    """Whittle-AIC order selection of one series, over blocks of candidate orders sized by
    sieve._BLOCK_BYTES (read at call time), as the package ran it before fitting batches."""
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    if not 1 <= p_min <= p_max:
        raise ValueError(f"need 1 <= p_min <= p_max, got ({p_min}, {p_max})")
    if p_max >= T / 4:
        raise ValueError(f"p_max={p_max} too large for series length {T}")
    _check_range(x)
    if np.ptp(x) == 0:
        raise DegenerateSeriesError("constant series: autocovariance at lag 0 is zero")
    table = _levinson_all(autocovariance(x, p_max), p_max)
    pgram = stationary_periodogram_all(x)

    orders = np.arange(p_min, p_max + 1)
    sigmas = np.empty(len(orders))
    trace = np.empty(len(orders))
    step = _block_rows(8 * T, sieve._BLOCK_BYTES)
    for lo in range(0, len(orders), step):
        block = orders[lo : lo + step]
        n, q = len(block), block[-1]
        coeffs = np.zeros((n, q))
        for r, p in enumerate(block):
            coeffs[r, :p] = table[p - 1, :p]
        resid = np.tile(x, (n, 1))
        for j in range(1, q + 1):
            first = max(0, j - block[0])
            resid[first:, j:] -= coeffs[first:, j - 1, None] * x[: T - j]
        s = sigmas[lo : lo + n]
        for r, p in enumerate(block):
            z = resid[r, p:]
            z -= z.mean()
            s[r] = z @ z / (T - p)
        vanished = np.flatnonzero(~(s > 0))
        if vanished.size:
            raise DegenerateSeriesError(f"residual variance vanished at order {block[vanished[0]]}")

        poly = np.zeros((n, T))
        poly[:, 0] = 1.0
        poly[:, 1 : q + 1] = -coeffs
        gain = np.abs(np.fft.rfft(poly)[:, 1 : T // 2 + 1]) ** 2
        f = s[:, None] / (TWO_PI * gain)
        trace[lo : lo + n] = np.sum(np.log(f) + pgram / f, axis=1) / T + block / T

    best = int(np.argmin(trace))
    p = int(orders[best])
    return ArFit(
        order=p,
        coeffs=table[p - 1, :p],
        sigma2=float(sigmas[best]),
        aic_trace=trace,
        candidate_orders=orders,
    )


def three_pass_default_window(T):
    """Even divisors of T in [T^0.5, T^0.75], else even non-divisors in that range,
    else any even N leaving two blocks; the one closest to T^(5/8), ties to the larger."""
    lo, hi = T**0.5, T**0.75
    target = T**0.625
    candidates = [n for n in range(4, T // 2 + 1, 2) if lo <= n <= hi and T % n == 0]
    if not candidates:
        candidates = [n for n in range(4, T // 2 + 1, 2) if lo <= n <= hi and T // n >= 2]
    if not candidates:
        candidates = [n for n in range(4, T // 2 + 1, 2) if T // n >= 2]
    if not candidates:
        raise ValueError(f"no admissible window length for T={T}")
    return min(candidates, key=lambda n: (abs(n - target), -n))


def limit_sup_samples(f, midpoints, frequencies, n_samples, seed):
    """Monte Carlo draws of sup |G| for the stationarity-limit Gaussian process.

    The covariance over the grid factorizes into a time kernel
    min(v1,v2) - v1 v2 and a frequency kernel F(min(w1,w2)), with F the
    integral of f^2; samples come from the matrix square roots of the two
    kernels.  A handful of entries are cross-checked against
    limit_covariance_h0 to tie the construction to the package's covariance
    oracle.
    """
    v = np.asarray(midpoints, dtype=float)
    w = np.asarray(frequencies, dtype=float) / math.pi  # omega in (0, 1]
    K_v = np.minimum.outer(v, v) - np.outer(v, v)
    # F(w) = int_0^{pi w} f^2, recovered from the covariance at v1 = v2 = 0.5
    # where the time factor min - prod equals 1/4
    F = np.array([4.0 * TWO_PI * limit_covariance_h0(f, 0.5, wi, 0.5, wi) for wi in w])
    K_w = np.minimum.outer(F, F) / TWO_PI

    rng = np.random.default_rng(seed)
    # spot-check the factorized kernel against the covariance function itself
    for _ in range(8):
        i1, i2 = rng.integers(0, len(v), 2)
        j1, j2 = rng.integers(0, len(w), 2)
        direct = limit_covariance_h0(f, v[i1], w[j1], v[i2], w[j2])
        assert abs(K_v[i1, i2] * K_w[j1, j2] - direct) < 1e-9

    def sqrt_psd(K):
        vals, vecs = np.linalg.eigh(K)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)

    L_v = sqrt_psd(K_v)
    L_w = sqrt_psd(K_w)
    Z = rng.standard_normal((n_samples, len(v), len(w)))
    G = np.einsum("ij,njk,lk->nil", L_v, Z, L_w)
    return np.abs(G).max(axis=(1, 2))
