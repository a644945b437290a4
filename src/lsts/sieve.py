"""AR-sieve bootstrap calibration of the stationarity test.

Fits autoregressions by Yule-Walker/Levinson-Durbin, selects the order with a
Whittle-type AIC, simulates Gaussian pseudo-series from the fitted recursion,
and turns the sup-statistic plus its bootstrap replicates into a test
decision.  One path here takes a series to its distance process, for the
observed statistic, every replicate and the exported surface alike.

`bootstrap_draws` also takes a batch of series, one seed each, as a Monte
Carlo cell hands it a group of runs: the AIC fits, the observed statistics
and the curtailed replicate blocks then run in lockstep over the batch, one
noise generator serves it all, and each series gets its own draw bit for
bit.  At T=128 a test makes some 150 numpy calls on arrays of a few KB, so
the per-call cost, not the arithmetic, is what a batch shares out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter, lfiltic

from ._seeds import normal_generator, normal_rows
from .empirical import DistanceProcess, distance_values, sup_statistic
from .spectral import (
    SpectralGrid,
    _block_periodograms,
    _integer,
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

    coeffs is row p-1 of the series' Levinson table (see `_levinson_all`), cut
    to its p entries.  sigma2 is the residual innovation variance, recomputed
    from the one-step prediction errors with mean centering (not the
    Levinson-Durbin variance).  aic_trace holds the criterion value of each of
    the candidate_orders; every fit the package makes comes from the AIC (a
    fixed order is the range p..p), so both are set, and only a fit built by
    hand leaves them None.
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


def _levinson_all(gamma: np.ndarray, p_max: int) -> np.ndarray:
    """Levinson-Durbin recursion; returns the zero-padded (p_max, p_max) Levinson table, whose
    row p-1 holds the order-p coefficients in its first p entries (an `ArFit`'s coeffs)."""
    table = np.zeros((p_max, p_max))
    pred_var = gamma[0]
    for m in range(1, p_max + 1):
        if pred_var <= 0:
            raise DegenerateSeriesError(
                f"prediction variance vanished at order {m}; autocovariance not positive definite"
            )
        a = table[m - 2, : m - 1]
        kappa = (gamma[m] - a @ gamma[m - 1 : 0 : -1]) / pred_var
        table[m - 1, : m - 1] = a - kappa * a[::-1]
        table[m - 1, m - 1] = kappa
        pred_var *= 1.0 - kappa * kappa
    return table


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


def _series(x, ndim: int = 1) -> np.ndarray:
    """x as a float array of ndim axes (a series, or an (R, T) batch of them) of finite values."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim:
        raise ValueError("series must be one-dimensional" if ndim == 1 else "a batch of series must be two-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    return x


def _block_rows(row_bytes: int, budget: int) -> int:
    """Rows per block such that one (rows, ...) array of row_bytes per row fits budget."""
    return max(1, budget // row_bytes)


def _order_range(T: int, p_min, p_max) -> tuple[int, int]:
    """The AIC's candidate orders p_min..p_max as ints; they must be whole and 1 <= p_min <= p_max < T/4."""
    p_min, p_max = _integer(p_min, "p_min"), _integer(p_max, "p_max")
    if not 1 <= p_min <= p_max:
        raise ValueError(f"need 1 <= p_min <= p_max, got ({p_min}, {p_max})")
    if p_max >= T / 4:
        raise ValueError(f"p_max={p_max} too large for series length {T}")
    return p_min, p_max


def aic_select(x: np.ndarray, p_min: int, p_max: int) -> ArFit:
    """Order selection by the Whittle form of the AIC.

    For each candidate p the criterion is

        (1/T) sum_{k=1}^{T/2} [ log f_p(lambda_{k,T}) + I(lambda_{k,T}) / f_p(lambda_{k,T}) ] + p/T

    with f_p the fitted AR(p) spectral density and I the full-sample
    periodogram; ties break to the smallest order.  A fixed-order fit is
    aic_select(x, p, p).
    """
    x = _series(x)
    p_min, p_max = _order_range(x.shape[0], p_min, p_max)
    _check_range(x)
    return _aic_rows(x[None], p_min, p_max)[0]


def _aic_rows(X: np.ndarray, p_min: int, p_max: int) -> list[ArFit]:
    """`aic_select` of each row of an (R, T) batch whose orders and float64 range are checked;
    every step runs over a (run, order) axis, and row r's fit equals its own call bit for bit."""
    R, T = X.shape
    if np.any(np.ptp(X, axis=1) == 0):  # by the spread, not gamma(0): a constant 0.1 leaves gamma(0) ~ 1e-34
        raise DegenerateSeriesError("constant series: autocovariance at lag 0 is zero")
    tables = np.array([_levinson_all(autocovariance(x, p_max), p_max) for x in X])
    pgram = stationary_periodogram_all(X)[:, None]

    # One block of candidate orders at a time.  resid[k, r] holds run k's one-step
    # residuals z_t = X_t - sum_j a_j X_{t-j} of order block[r], valid from column
    # block[r] on; lag j only touches the orders >= j.
    orders = np.arange(p_min, p_max + 1)
    sigmas = np.empty((R, len(orders)))
    trace = np.empty((R, len(orders)))
    step = _block_rows(8 * T * R, _BLOCK_BYTES)
    for lo in range(0, len(orders), step):
        block = orders[lo : lo + step]
        n, q = len(block), block[-1]
        coeffs = tables[:, block - 1, :q]
        resid = np.repeat(X[:, None], n, axis=1)
        for j in range(1, q + 1):
            first = max(0, j - block[0])
            resid[:, first:, j:] -= coeffs[:, first:, j - 1, None] * X[:, None, : T - j]
        s = sigmas[:, lo : lo + n]
        for r, p in enumerate(block):
            z = resid[:, r, p:]
            z -= (z.sum(axis=-1) / (T - p))[:, None]  # each row's z.mean(), bit for bit
            s[:, r] = (z[:, None] @ z[..., None])[:, 0, 0] / (T - p)  # each row's z @ z, bit for bit
        vanished = np.argwhere(~(s > 0))
        if vanished.size:
            raise DegenerateSeriesError(f"residual variance vanished at order {block[vanished[0, 1]]}")

        poly = np.zeros((R, n, T))
        poly[..., 0] = 1.0
        poly[..., 1 : q + 1] = -coeffs
        gain = np.abs(np.fft.rfft(poly)[..., 1 : T // 2 + 1]) ** 2
        f = s[..., None] / (TWO_PI * gain)
        trace[:, lo : lo + n] = np.sum(np.log(f) + pgram / f, axis=-1) / T + block / T

    best = np.argmin(trace, axis=1)
    return [
        ArFit(
            order=int(orders[b]),
            coeffs=table[orders[b] - 1, : orders[b]],
            sigma2=float(sigma2[b]),
            aic_trace=row,
            candidate_orders=orders,
        )
        for table, b, sigma2, row in zip(tables, best, sigmas, trace)
    ]


def _replicate_series(x: np.ndarray, fit: ArFit, B: int, seed: int, step: int, generator):
    """Bootstrap pseudo-series 1..B in order, as (rows, T) blocks of `step` rows (the last may be shorter).

    Replicate i draws its innovations from the stream keyed by seed XOR i, so
    its series does not depend on the block size, on the schedule or on how
    many blocks a consumer takes.  `normal_rows` re-keys `generator` for each
    row, so one generator serves a whole batch; the AR filter's initial state
    is built once per series, and no (B, T) array is ever built.
    """
    T = x.shape[0]
    p = fit.order
    scale = np.sqrt(fit.sigma2)
    a_poly = np.r_[1.0, -np.asarray(fit.coeffs, dtype=float)]
    zi = lfiltic([1.0], a_poly, x[p - 1 :: -1])
    for lo in range(0, B, step):
        series = normal_rows(generator, [seed ^ i for i in range(lo + 1, min(lo + step, B) + 1)], T - p)
        series *= scale
        n = series.shape[0]
        tails, _ = lfilter([1.0], a_poly, series, axis=-1, zi=np.tile(zi, (n, 1)))
        yield np.concatenate([np.tile(x[:p], (n, 1)), tails], axis=1)  # frees the noise block


def _open(below: int, drawn: int, B: int, k: int) -> bool:
    """Whether the order-statistic decision (reject iff at least k of all B replicates lie
    below the statistic) is still open when `below` of the first `drawn` lie below it."""
    return below < k <= below + (B - drawn)


def _lockstep_runs(T: int) -> int:
    """Series per `bootstrap_draws` batch in a Monte Carlo cell: as many as let one lockstep round
    of _CURTAIL_ROWS replicates each fill one _BLOCK_BYTES block (8 at T=128, 1 from T=1024 on)."""
    return max(1, _block_rows(8 * T, _BLOCK_BYTES) // _CURTAIL_ROWS)


def _replicate_statistics(
    X: np.ndarray,
    fits: list[ArFit],
    B: int,
    seeds: list[int],
    estimator: str,
    grid: SpectralGrid | None,
    statistics: np.ndarray | None = None,
    ks: tuple[int, ...] = (),
) -> list[np.ndarray]:
    """Sup-statistics of the first n <= B bootstrap pseudo-series of each row of an (R, T) batch.

    The rows advance in lockstep: each round takes the next block of every open row's
    `_replicate_series` and scores the round with one `_statistics` call.  A round holds
    one _BLOCK_BYTES block of rows.  n = B unless ks names order-statistic indices: then
    the blocks shrink to at most _CURTAIL_ROWS rows, and a row stops after the first round
    at which its full-B decision against statistics[row] is fixed at every k (Besag &
    Clifford's curtailed Monte Carlo test).  Replicate i depends on seed XOR i alone, so
    the n drawn are the first n of the full draw, bit for bit.
    """
    R, T = X.shape
    step = max(1, _block_rows(8 * T, _BLOCK_BYTES) // R)
    if ks:
        step = min(step, _CURTAIL_ROWS)
    generator = normal_generator(seeds[0])
    streams = [_replicate_series(x, fit, B, seed, step, generator) for x, fit, seed in zip(X, fits, seeds)]
    stats = np.empty((R, B))
    drawn = [B] * R
    below = [0] * R
    live = list(range(R))
    for lo in range(0, B, step):
        hi = min(lo + step, B)
        blocks = [next(streams[r]) for r in live]
        rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)  # one run: no copy
        stats[live, lo:hi] = _statistics(rows, estimator, grid).reshape(len(live), hi - lo)
        if ks:
            for r in live:
                below[r] += int(np.count_nonzero(stats[r, lo:hi] < statistics[r]))
                if not any(_open(below[r], hi, B, k) for k in ks):
                    drawn[r] = hi
            live = [r for r in live if drawn[r] == B]
            if not live:
                break
    return [row[:n] for row, n in zip(stats, drawn)]


def _estimates(rows: np.ndarray, estimator: str, grid: SpectralGrid | None) -> tuple[np.ndarray, int]:
    """Spectral estimates of an (R, T) batch and the distance process's denominator:
    block periodograms and T (local), or the pre-periodogram matrix and T*T (pre)."""
    R, T = rows.shape
    if estimator == "local":
        return _block_periodograms(rows.reshape(R, grid.M, grid.N)), T
    return pre_periodogram_matrix(rows), T * T


def _statistics(rows: np.ndarray, estimator: str, grid: SpectralGrid | None) -> np.ndarray:
    """Sup-statistics of the rows of an (R, T) batch; the observed series is a batch of one.
    Pre rows run in chunks of _PRE_CHUNK_BYTES; rows never mix, so batching changes no bit.
    The one float64 rule: estimates that overflow (a level far above the spread) raise ValueError."""
    R, T = rows.shape
    step = R if estimator == "local" else _block_rows(8 * T * T, _PRE_CHUNK_BYTES)
    stats = np.empty(R)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, R, step):
            # `estimates` keeps this chunk's arrays until the next chunk replaces them: freed earlier,
            # glibc returns their pages to the OS and faults them in again (T=256 pre: ~35 % slower)
            estimates = _estimates(rows[lo : lo + step], estimator, grid)
            stats[lo : lo + step] = sup_statistic(distance_values(*estimates), T)
    if not np.all(np.isfinite(stats)):
        big = np.abs(rows[~np.isfinite(stats)]).max()
        raise ValueError(f"the series' spectral estimates overflow float64 (max |x| = {big:.3g}); rescale the series")
    return stats


def _layout(T: int, N: int | None, estimator: str, p_min=None, p_max=None):
    """(grid, T the statistic sees, AIC order range) of a length-T series: the grid is None for
    pre, and the local estimator drops the tail past a multiple of N (see `make_grid`).  These
    are the checks that `bootstrap_draws` runs on a series and `ExperimentConfig` on its settings."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    grid = make_grid(T, N) if estimator == "local" else None
    T = grid.T if grid is not None else _integer(T, "series length T")
    if T < 8:
        raise ValueError(f"series too short: T={T}")
    lo, hi = default_order_range(T)
    return grid, T, _order_range(T, lo if p_min is None else p_min, hi if p_max is None else p_max)


def _observed(x: np.ndarray, N: int | None, estimator: str, p_min=None, p_max=None, ndim: int = 1):
    """The checked series (an (R, T) batch of them if ndim is 2) as the statistic sees it, with
    the grid and the AIC order range of `_layout`."""
    x = _series(x, ndim)
    grid, T, orders = _layout(x.shape[-1], N, estimator, p_min, p_max)
    x = x[..., :T]
    for row in x.reshape(-1, T):
        _check_range(row)
    return x, grid, orders


def distance_process(x: np.ndarray, N: int | None = None, estimator: str = "local") -> DistanceProcess:
    """Distance process of the series; its sup_stat and float64 rule are `run_test`'s, from `_statistics`.

    Local: at the block midpoints and lambda_1..lambda_{N/2} of `make_grid(T, N)`.
    Pre: at t/T, t = 1..T, and 2 pi k/T, k = 1..T//2; N is ignored.
    """
    x, grid, _ = _observed(x, N, estimator)
    T = x.shape[0]
    sup_stat = float(_statistics(x[None], estimator, grid)[0])
    values = distance_values(*_estimates(x[None], estimator, grid))[0]
    if grid is not None:
        times, freqs = grid.midpoints, grid.frequencies
    else:
        times, freqs = np.arange(1, T + 1) / T, TWO_PI * np.arange(1, T // 2 + 1) / T
    return DistanceProcess(values, times, freqs, sup_stat)


def bootstrap_draws(
    x: np.ndarray,
    N: int | None = None,
    B: int = 200,
    p_min: int | None = None,
    p_max: int | None = None,
    seed: int = 0,
    estimator: str = "local",
    alphas: tuple[float, ...] = (),
) -> TestDraws | list[TestDraws]:
    """Observed sup-statistic plus B bootstrap replicate statistics.

    The series is checked and, for the local estimator, truncated as in
    `distance_process`.  The AR order is AIC-selected in [p_min, p_max].
    With levels in `alphas`, the draw is curtailed: it stops once `decide`'s
    full-B decision at every level is fixed, and `replicates` holds only the
    replicates drawn.  With none (the default), all B are drawn.

    A batch is an (R, T) array with a sequence of R seeds: the result is then a
    list of R draws, each bit for bit the draw of its own row and seed.  Its
    AIC fits, observed statistics and replicate blocks run in lockstep, R
    series per numpy call.
    """
    B = _replicate_count(B)
    ks = tuple(order_statistic_index(B, a) for a in alphas)
    batch = np.ndim(seed) > 0
    seeds = [_integer(s, "seed") for s in (seed if batch else [seed])]
    x, grid, orders = _observed(x, N, estimator, p_min, p_max, ndim=1 + batch)
    X = x.reshape(-1, x.shape[-1])
    if not 0 < X.shape[0] == len(seeds):
        raise ValueError(f"a batch needs one seed per series, got {len(seeds)} seeds for {X.shape[0]} series")

    fits = _aic_rows(X, *orders)
    statistics = _statistics(X, estimator, grid)
    replicates = _replicate_statistics(X, fits, B, seeds, estimator, grid, statistics, ks)
    draws = [
        TestDraws(
            statistic=float(statistic),
            replicates=reps,
            T=X.shape[1],
            N=grid.N if grid is not None else None,
            M=grid.M if grid is not None else None,
            B=B,
            order=fit.order,
            seed=s,
            estimator=estimator,
        )
        for statistic, reps, fit, s in zip(statistics, replicates, fits, seeds)
    ]
    return draws if batch else draws[0]


def _replicate_count(B) -> int:
    """B as an int; like T and N in `make_grid`, a fractional B raises rather than truncating."""
    B = _integer(B, "B")
    if B < 1:
        raise ValueError(f"B must be at least 1, got {B}")
    return B


def order_statistic_index(B: int, alpha: float) -> int:
    """1-based index floor((1-alpha) B) of the bootstrap order statistic; the one (B, alpha) check."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    B = _replicate_count(B)
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
    seed = _integer(seed, "seed")  # one seed: a sequence would make a batch
    draws = bootstrap_draws(x, N=N, B=B, p_min=p_min, p_max=p_max, seed=seed, estimator=estimator)
    critical, p_value, reject = decide(draws.statistic, draws.replicates, alpha)
    # vars, not dataclasses.asdict, which would deep-copy the replicates
    return TestResult(**vars(draws), alpha=alpha, critical_value=critical, p_value=p_value, reject=reject)
