"""AR-sieve bootstrap calibration of the stationarity test.

Fits autoregressions by Yule-Walker/Levinson-Durbin, selects the order with a
Whittle-type AIC, simulates Gaussian pseudo-series from the fitted recursion,
and turns the sup-statistic plus its bootstrap replicates into a test
decision.  One path here takes a series to its distance process, for the
observed statistic, every replicate and the exported surface alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter, lfiltic

from ._seeds import MASK64, normal_generator, normal_rows
from .empirical import DistanceProcess, distance_values, sup_statistic
from .spectral import (
    SpectralGrid,
    _block_periodograms,
    make_grid,
    pre_periodogram_matrix,
    stationary_periodogram_all,
)

TWO_PI = 2.0 * np.pi

ESTIMATORS = ("local", "pre")

_BLOCK_BYTES = 1 << 18  # one (rows, T) array of a replicate or AIC block
_CURTAIL_ROWS = 32  # replicate rows between two stop checks of a curtailed draw
_PRE_CHUNK_BYTES = 1 << 20  # one (chunk, T, T) lag-product array; its FFT and sums stay in L2


class DegenerateSeriesError(ValueError):
    """Sample autocovariance at lag zero vanishes (constant series)."""


@dataclass
class ArFit:
    """Fitted autoregression of order p.

    sigma2 is the residual innovation variance, recomputed from the one-step
    prediction errors with mean centering (not the Levinson-Durbin variance).
    aic_trace holds the criterion value per candidate order when the fit came
    from order selection.
    """

    order: int
    coeffs: np.ndarray
    sigma2: float
    aic_trace: np.ndarray | None = None
    candidate_orders: np.ndarray | None = None


@dataclass
class TestDraws:
    """Observed statistic and bootstrap replicates, before any alpha is chosen.

    T is the length the statistic saw; N and M are the window and block count
    of the local grid, None for pre.  B is the full replicate count; a draw
    curtailed at its levels (see `bootstrap_draws`) holds only the first
    len(replicates) <= B of them, which fix its decisions but not its
    critical value or p-value.
    """

    statistic: float
    replicates: np.ndarray
    T: int
    N: int | None
    M: int | None
    B: int
    order: int
    seed: int
    estimator: str


@dataclass
class TestResult(TestDraws):
    """The draws plus the decision at level alpha."""

    alpha: float
    critical_value: float
    p_value: float
    reject: bool


def autocovariance(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased, mean-centered sample autocovariances gamma(0..max_lag)."""
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    if max_lag >= T:
        raise ValueError(f"max_lag={max_lag} must be below the series length {T}")
    xc = x - x.mean()
    return np.array([xc[: T - h] @ xc[h:] for h in range(max_lag + 1)]) / T


def _levinson_all(gamma: np.ndarray, p_max: int) -> list[np.ndarray]:
    """Levinson-Durbin recursion; returns the coefficient vector of each order."""
    fits = []
    a = np.zeros(0)
    pred_var = gamma[0]
    for m in range(1, p_max + 1):
        if pred_var <= 0:
            raise DegenerateSeriesError(
                f"prediction variance vanished at order {m}; autocovariance not positive definite"
            )
        kappa = (gamma[m] - a @ gamma[m - 1 : 0 : -1]) / pred_var
        a = np.concatenate([a - kappa * a[::-1], [kappa]])
        pred_var *= 1.0 - kappa * kappa
        fits.append(a)
    return fits


def default_order_range(T: int) -> tuple[int, int]:
    """Default AIC search range 1..min(ceil(10 log10 T), T//8)."""
    p_max = min(int(np.ceil(10.0 * np.log10(T))), T // 8)
    return 1, max(1, p_max)


def _check_range(x: np.ndarray) -> None:
    """Reject a non-constant series whose autocovariance at lag 0 overflows float64 or
    underflows to zero; with gamma(0) finite, every lag's |gamma(h)| <= gamma(0) is too."""
    with np.errstate(over="ignore", invalid="ignore"):
        gamma0 = autocovariance(x, 0)[0]
        if 0.0 < gamma0 < np.inf or np.ptp(x) == 0:
            return
        spread = np.abs(x - x.mean()).max()
    raise ValueError(
        f"the series' autocovariance {'underflows' if np.isfinite(gamma0) else 'overflows'} float64 "
        f"(max |x - mean| = {spread:.3g}); rescale the series"
    )


def _block_rows(row_bytes: int, budget: int) -> int:
    """Rows per block such that one (rows, ...) array of row_bytes per row fits budget."""
    return max(1, budget // row_bytes)


def aic_select(x: np.ndarray, p_min: int, p_max: int) -> ArFit:
    """Order selection by the Whittle form of the AIC.

    For each candidate p the criterion is

        (1/T) sum_{k=1}^{T/2} [ log f_p(lambda_{k,T}) + I(lambda_{k,T}) / f_p(lambda_{k,T}) ] + p/T

    with f_p the fitted AR(p) spectral density and I the full-sample
    periodogram; ties break to the smallest order.  A fixed-order fit is
    aic_select(x, p, p).
    """
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    if not 1 <= p_min <= p_max:
        raise ValueError(f"need 1 <= p_min <= p_max, got ({p_min}, {p_max})")
    if p_max >= T / 4:
        raise ValueError(f"p_max={p_max} too large for series length {T}")
    _check_range(x)
    if np.ptp(x) == 0:  # by the spread, not gamma(0): a constant 0.1 leaves gamma(0) ~ 1e-34
        raise DegenerateSeriesError("constant series: autocovariance at lag 0 is zero")
    all_fits = _levinson_all(autocovariance(x, p_max), p_max)
    pgram = stationary_periodogram_all(x)

    # One block of candidate orders at a time.  Row r holds the one-step
    # residuals z_t = X_t - sum_j a_j X_{t-j} of order block[r], valid from
    # column block[r] on; lag j only touches the rows whose order is >= j.
    orders = np.arange(p_min, p_max + 1)
    sigmas = np.empty(len(orders))
    trace = np.empty(len(orders))
    step = _block_rows(8 * T, _BLOCK_BYTES)
    for lo in range(0, len(orders), step):
        block = orders[lo : lo + step]
        n, q = len(block), block[-1]
        coeffs = np.zeros((n, q))
        for r, p in enumerate(block):
            coeffs[r, :p] = all_fits[p - 1]
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
        coeffs=all_fits[p - 1],
        sigma2=float(sigmas[best]),
        aic_trace=trace,
        candidate_orders=orders,
    )


def _ar_poly(fit: ArFit) -> np.ndarray:
    return np.r_[1.0, -np.asarray(fit.coeffs, dtype=float)]


def bootstrap_replicate(x: np.ndarray, fit: ArFit, seed: int) -> np.ndarray:
    """One pseudo-series: first p values copied, then the fitted recursion
    driven by fresh N(0, sigma2) innovations."""
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    p = fit.order
    noise = normal_generator(seed).standard_normal(T - p) * np.sqrt(fit.sigma2)
    a_poly = _ar_poly(fit)
    zi = lfiltic([1.0], a_poly, x[p - 1 :: -1])
    tail, _ = lfilter([1.0], a_poly, noise, zi=zi)
    return np.concatenate([x[:p], tail])


def _replicate_series(x: np.ndarray, fit: ArFit, B: int, seed: int, step: int):
    """Blocks (lo, rows) of bootstrap pseudo-series lo+1..lo+len(rows), in order, up to B.

    Replicate i draws its innovations from the stream keyed by seed XOR i, so
    its series does not depend on the block size, on the schedule or on how
    many blocks a consumer takes.  The AR filter's initial state is built once
    per test, and no (B, T) array is ever built.
    """
    T = x.shape[0]
    p = fit.order
    scale = np.sqrt(fit.sigma2)
    a_poly = _ar_poly(fit)
    zi = lfiltic([1.0], a_poly, x[p - 1 :: -1])
    for lo in range(0, B, step):
        series = normal_rows([(seed ^ i) & MASK64 for i in range(lo + 1, min(lo + step, B) + 1)], T - p)
        series *= scale
        n = series.shape[0]
        tails, _ = lfilter([1.0], a_poly, series, axis=-1, zi=np.tile(zi, (n, 1)))
        series = np.concatenate([np.tile(x[:p], (n, 1)), tails], axis=1)  # frees the noise block
        yield lo, series


def _open(below: int, drawn: int, B: int, k: int) -> bool:
    """Whether the order-statistic decision (reject iff at least k of all B replicates lie
    below the statistic) is still open when `below` of the first `drawn` lie below it."""
    return below < k <= below + (B - drawn)


def _replicate_statistics(
    x: np.ndarray,
    fit: ArFit,
    B: int,
    seed: int,
    estimator: str,
    grid: SpectralGrid | None,
    statistic: float = 0.0,
    ks: tuple[int, ...] = (),
) -> np.ndarray:
    """Sup-statistics of the first n <= B bootstrap pseudo-series, in blocks of rows sized
    by _BLOCK_BYTES.

    n = B unless ks names order-statistic indices: then the blocks shrink to
    _CURTAIL_ROWS rows, and the draw stops after the first block at which the
    full-B decision against `statistic` is fixed at every k (Besag & Clifford's
    curtailed Monte Carlo test).  Replicate i depends on seed XOR i alone, so
    the n drawn are the first n of the full draw, bit for bit.
    """
    step = _block_rows(8 * x.shape[0], _BLOCK_BYTES)
    if ks:
        step = min(step, _CURTAIL_ROWS)
    stats = np.empty(B)
    below = 0
    for lo, series in _replicate_series(x, fit, B, seed, step):
        hi = lo + series.shape[0]
        stats[lo:hi] = _statistics(series, estimator, grid)
        if ks:
            below += int(np.count_nonzero(stats[lo:hi] < statistic))
            if not any(_open(below, hi, B, k) for k in ks):
                return stats[:hi]
    return stats


def _estimates(rows: np.ndarray, estimator: str, grid: SpectralGrid | None) -> tuple[np.ndarray, int]:
    """Spectral estimates of an (R, T) batch and the distance process's denominator:
    block periodograms and T (local), or the pre-periodogram matrix and T*T (pre)."""
    R, T = rows.shape
    if estimator == "local":
        return _block_periodograms(rows.reshape(R, grid.M, grid.N)), T
    return pre_periodogram_matrix(rows), T * T


def _statistics(rows: np.ndarray, estimator: str, grid: SpectralGrid | None) -> np.ndarray:
    """Sup-statistics of the rows of an (R, T) batch; the observed series is a batch of one.
    Pre rows run in chunks of _PRE_CHUNK_BYTES; rows never mix, so batching changes no bit."""
    R, T = rows.shape
    step = R if estimator == "local" else _block_rows(8 * T * T, _PRE_CHUNK_BYTES)
    stats = np.empty(R)
    for lo in range(0, R, step):
        # `estimates` keeps this chunk's arrays until the next chunk replaces them: freed earlier,
        # glibc returns their pages to the OS and faults them in again (T=256 pre: ~35 % slower)
        estimates = _estimates(rows[lo : lo + step], estimator, grid)
        stats[lo : lo + step] = sup_statistic(distance_values(*estimates), T)
    return stats


def _observed(x: np.ndarray, N: int | None, estimator: str) -> tuple[np.ndarray, SpectralGrid | None]:
    """The checked series as the statistic sees it, and its grid (None for pre): the local
    estimator drops the tail past a multiple of N (see `make_grid`), the pre estimator none."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    grid = make_grid(x.shape[0], N) if estimator == "local" else None
    T = grid.T if grid is not None else x.shape[0]
    if T < 8:
        raise ValueError(f"series too short: T={T}")
    _check_range(x[:T])
    return x[:T], grid


def distance_process(x: np.ndarray, N: int | None = None, estimator: str = "local") -> DistanceProcess:
    """Distance process of the series; its sup_stat is `run_test`'s statistic, bit for bit.

    Local: at the block midpoints and lambda_1..lambda_{N/2} of `make_grid(T, N)`.
    Pre: at t/T, t = 1..T, and 2 pi k/T, k = 1..T//2; N is ignored.
    """
    x, grid = _observed(x, N, estimator)
    T = x.shape[0]
    # a constant series passes `_check_range`, but its level can still overflow the estimates
    with np.errstate(over="ignore", invalid="ignore"):
        values = distance_values(*_estimates(x[None], estimator, grid))[0]
    if not np.all(np.isfinite(values)):
        raise ValueError(
            f"the series' spectral estimates overflow float64 (max |x| = {np.abs(x).max():.3g}); rescale the series"
        )
    if grid is not None:
        times, freqs = grid.midpoints, grid.frequencies
    else:
        times, freqs = np.arange(1, T + 1) / T, TWO_PI * np.arange(1, T // 2 + 1) / T
    return DistanceProcess(values, times, freqs, float(sup_statistic(values, T)))


def bootstrap_draws(
    x: np.ndarray,
    N: int | None = None,
    B: int = 200,
    p_min: int | None = None,
    p_max: int | None = None,
    seed: int = 0,
    estimator: str = "local",
    alphas: tuple[float, ...] = (),
) -> TestDraws:
    """Observed sup-statistic plus B bootstrap replicate statistics.

    The series is checked and, for the local estimator, truncated as in
    `distance_process`.  The AR order is AIC-selected in [p_min, p_max].
    With levels in `alphas`, the draw is curtailed: it stops once `decide`'s
    full-B decision at every level is fixed, and `replicates` holds only the
    replicates drawn.  With none (the default), all B are drawn.
    """
    if B < 1:
        raise ValueError(f"B must be at least 1, got {B}")
    ks = tuple(order_statistic_index(B, a) for a in alphas)
    x, grid = _observed(x, N, estimator)

    lo, hi = default_order_range(x.shape[0])
    p_lo = lo if p_min is None else p_min
    p_hi = hi if p_max is None else p_max
    fit = aic_select(x, p_lo, p_hi)
    statistic = float(_statistics(x[None], estimator, grid)[0])

    return TestDraws(
        statistic=statistic,
        replicates=_replicate_statistics(x, fit, B, seed, estimator, grid, statistic, ks),
        T=x.shape[0],
        N=grid.N if grid is not None else None,
        M=grid.M if grid is not None else None,
        B=B,
        order=fit.order,
        seed=seed,
        estimator=estimator,
    )


def order_statistic_index(B: int, alpha: float) -> int:
    """1-based index floor((1-alpha) B) of the bootstrap order statistic; the one (B, alpha) check."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if B < 1:
        raise ValueError(f"B must be at least 1, got {B}")
    k = int(np.floor((1.0 - alpha) * B + 1e-9))
    if not 1 <= k <= B:
        raise ValueError(f"alpha={alpha} with B={B} leaves no admissible order statistic")
    return k


def decide(
    statistic: float, replicates: np.ndarray, alpha: float, B: int | None = None
) -> tuple[float | None, float | None, bool]:
    """(critical value, p-value, decision) from replicate statistics.

    With k = floor((1-alpha)B), the test rejects iff at least k replicates
    lie strictly below the statistic, i.e. iff the statistic exceeds the
    critical value, the k-th order statistic.  The p-value is
    (1 + #{replicates >= statistic}) / (B + 1); rejection follows the
    order-statistic rule, not the p-value.  B defaults to len(replicates).

    A curtailed draw passes its full B with its first len(replicates) < B
    replicates.  The decision is then the full-B one, and the critical value
    and p-value, which need all B, are None.  A prefix that leaves the
    decision open raises ValueError.
    """
    replicates = np.asarray(replicates)
    drawn = len(replicates)
    B = drawn if B is None else B
    k = order_statistic_index(B, alpha)
    if drawn > B:
        raise ValueError(f"{drawn} replicates exceed B={B}")
    below = int(np.count_nonzero(replicates < statistic))
    if _open(below, drawn, B, k):
        raise ValueError(f"{drawn} of B={B} replicates leave the decision at alpha={alpha} open")
    if drawn < B:
        return None, None, below >= k
    critical = float(np.partition(replicates, k - 1)[k - 1])
    p_value = float((1 + np.count_nonzero(replicates >= statistic)) / (B + 1))
    return critical, p_value, below >= k


def run_test(
    x: np.ndarray,
    N: int | None = None,
    B: int = 200,
    alpha: float = 0.05,
    p_min: int | None = None,
    p_max: int | None = None,
    seed: int = 0,
    estimator: str = "local",
) -> TestResult:
    """Full bootstrap test of second-order stationarity.

    Parameters
    ----------
    x : array_like
        Observed series.
    N : int, optional
        Window length for the local periodogram (even, at least 4).  Chosen
        automatically when omitted; ignored by the pre estimator.
    B : int
        Number of bootstrap replicates (B >= 99 recommended).
    alpha : float
        Nominal level in (0, 1).
    p_min, p_max : int, optional
        AIC search range for the sieve order; defaults to 1..min(ceil(10
        log10 T), T//8).
    seed : int
        Base seed; replicate i uses seed XOR i.
    estimator : {"local", "pre"}
        Which distance process drives the statistic.
    """
    order_statistic_index(B, alpha)  # reject an unusable (B, alpha) before drawing
    draws = bootstrap_draws(x, N=N, B=B, p_min=p_min, p_max=p_max, seed=seed, estimator=estimator)
    critical, p_value, reject = decide(draws.statistic, draws.replicates, alpha)
    # vars, not dataclasses.asdict, which would deep-copy the replicates
    return TestResult(**vars(draws), alpha=alpha, critical_value=critical, p_value=p_value, reject=reject)
