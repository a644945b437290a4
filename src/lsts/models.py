"""Generative models for simulation and exact spectral oracles.

Two stationary null families (AR and MA with Gaussian innovations) and four
locally stationary alternatives: noise with a linear standard-deviation ramp,
an AR(1) whose coefficient is -0.9*sqrt(t/T), an AR(1) with a sign flip of the
coefficient at mid-sample, and an MA model whose lag-q coefficient oscillates
in rescaled time.  Each model exposes its exact time-varying spectral density
f(u, lambda) and the integrated spectral distance

    d(v, w) = (1/2pi) ( int_0^v int_0^{pi w} f(u,l) dl du
                        - v int_0^{pi w} int_0^1 f(u,l) du dl ),

which is identically zero iff f does not depend on u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter, lfiltic

from ._seeds import normal_generator
from .spectral import _integer

BURN_IN = 1000
MIN_LENGTH = 8

_CAUSALITY_MARGIN = 1e-9


def _check_causal(coeffs: tuple[float, ...]) -> None:
    """Reject coefficient vectors whose AR polynomial has roots in |z| <= 1."""
    # roots of 1 - a_1 z - ... - a_p z^p, highest degree first
    poly = np.r_[[-c for c in reversed(coeffs)], 1.0]
    roots = np.roots(poly)
    if roots.size and np.abs(roots).min() <= 1.0 + _CAUSALITY_MARGIN:
        raise ValueError(
            f"non-causal AR coefficients {coeffs}: root of modulus "
            f"{np.abs(roots).min():.6f} inside or on the unit circle"
        )


class ModelSpec:
    """Base of the models: each draws a path of length T from a normal generator
    (`sample`), gives its exact f(u, lambda) (`spectral_density`) and its report
    tag (`label`).  `u_breaks` and `lam_panel` tell `true_distance` where f jumps
    in rescaled time and how wide its frequency panels may be."""

    u_breaks = ()
    lam_panel = np.pi / 2


@dataclass(frozen=True)
class StationaryAR(ModelSpec):
    """Stationary AR(p): X_t = sum_j coeffs[j-1] X_{t-j} + sigma Z_t."""

    coeffs: tuple[float, ...] = ()
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        _check_causal(self.coeffs)

    def label(self):
        return f"ar(coeffs={list(self.coeffs)}, sigma={self.sigma:g})"

    def sample(self, T, rng):
        z = rng.standard_normal(T + BURN_IN) * self.sigma
        a_poly = np.r_[1.0, [-c for c in self.coeffs]]
        return lfilter([1.0], a_poly, z)[BURN_IN:]

    def spectral_density(self, u, lam):
        transfer = np.ones_like(lam, dtype=complex)
        for j, c in enumerate(self.coeffs, start=1):
            transfer = transfer - c * np.exp(-1j * lam * j)
        return self.sigma**2 / (2.0 * np.pi * np.abs(transfer) ** 2)


@dataclass(frozen=True)
class StationaryMA(ModelSpec):
    """Stationary MA(q): X_t = sigma (Z_t + sum_j coeffs[j-1] Z_{t-j})."""

    coeffs: tuple[float, ...] = ()
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def label(self):
        return f"ma(coeffs={list(self.coeffs)}, sigma={self.sigma:g})"

    def sample(self, T, rng):
        z = rng.standard_normal(T + BURN_IN) * self.sigma
        b_poly = np.r_[1.0, self.coeffs]
        return lfilter(b_poly, [1.0], z)[BURN_IN:]

    def spectral_density(self, u, lam):
        transfer = np.ones_like(lam, dtype=complex)
        for j, c in enumerate(self.coeffs, start=1):
            transfer = transfer + c * np.exp(-1j * lam * j)
        return self.sigma**2 * np.abs(transfer) ** 2 / (2.0 * np.pi)


@dataclass(frozen=True)
class ScaledNoise(ModelSpec):
    """X_t = (1 + t/T) Z_t: independent noise, standard deviation ramping 1 to 2."""

    def label(self):
        return "scaled-noise"

    def sample(self, T, rng):
        z = rng.standard_normal(T)
        return (1.0 + np.arange(1, T + 1) / T) * z

    def spectral_density(self, u, lam):
        return (1.0 + u) ** 2 / (2.0 * np.pi)


@dataclass(frozen=True)
class TvAR1Sqrt(ModelSpec):
    """X_t = -0.9 sqrt(t/T) X_{t-1} + Z_t, started at X_0 = 0."""

    def label(self):
        return "tvar1-sqrt"

    def sample(self, T, rng):
        z = rng.standard_normal(T)
        phi = -0.9 * np.sqrt(np.arange(1, T + 1) / T)
        x = np.empty(T)
        prev = 0.0
        for i in range(T):
            prev = phi[i] * prev + z[i]
            x[i] = prev
        return x

    def spectral_density(self, u, lam):
        c = 0.9 * np.sqrt(u)
        return 1.0 / (2.0 * np.pi * (1.0 + 2.0 * c * np.cos(lam) + c**2))


@dataclass(frozen=True)
class PiecewiseAR1(ModelSpec):
    """AR(1) coefficient +0.5 on the first half-sample, -0.5 on the second."""

    u_breaks = (0.5,)

    def label(self):
        return "piecewise-ar1"

    def sample(self, T, rng):
        half = T // 2
        z = rng.standard_normal(T + BURN_IN)
        first = lfilter([1.0], [1.0, -0.5], z[: BURN_IN + half])[BURN_IN:]
        # second regime keeps recursing from the last value of the first
        zi = lfiltic([1.0], [1.0, 0.5], first[-1:])
        second, _ = lfilter([1.0], [1.0, 0.5], z[BURN_IN + half :], zi=zi)
        return np.concatenate([first, second])

    def spectral_density(self, u, lam):
        phi = np.where(u <= 0.5, 0.5, -0.5)
        return 1.0 / (2.0 * np.pi * (1.0 - 2.0 * phi * np.cos(lam) + phi**2))


@dataclass(frozen=True)
class TvMA1Lag(ModelSpec):
    """X_t = Z_t + 0.8 cos(1.5 - cos(4 pi t/T)) Z_{t-q}."""

    q: int = 1

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 1:
            raise ValueError("q must be an integer >= 1")
        object.__setattr__(self, "q", int(self.q))

    @property
    def lam_panel(self):
        # one panel per half-period of cos(q lam) in the transfer function
        return np.pi / self.q

    def label(self):
        return f"tvma1-lag(q={self.q})"

    def sample(self, T, rng):
        z = rng.standard_normal(T + self.q)  # z[i] is Z_{i-q+1}, so lagged terms exist for t <= q
        c = _tvma_coeff(np.arange(1, T + 1) / T)
        return z[self.q :] + c * z[:T]

    def spectral_density(self, u, lam):
        c = _tvma_coeff(u)
        return (1.0 + 2.0 * c * np.cos(self.q * lam) + c**2) / (2.0 * np.pi)


def _tvma_coeff(u):
    return 0.8 * np.cos(1.5 - np.cos(4.0 * np.pi * np.asarray(u, dtype=float)))


def simulate(model: ModelSpec, T: int, seed: int) -> np.ndarray:
    """Draw one sample path of length T, deterministic in (model, T, seed).

    Innovations are i.i.d. standard normal from a counter-based generator.
    Stationary recursions are warmed up with BURN_IN discarded steps; the
    time-varying recursions use rescaled time t/T exactly as defined and start
    from zero (AR-type) or from pre-period innovations (MA-type).  T and seed
    must be whole numbers.
    """
    T, seed = _integer(T, "series length T"), _integer(seed, "seed")
    if T < MIN_LENGTH:
        raise ValueError(f"T must be at least {MIN_LENGTH}, got {T}")
    return model.sample(T, normal_generator(seed))


def true_spectral_density(model: ModelSpec, u, lam):
    """Exact f(u, lambda); broadcasts over array-valued u and lam."""
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = np.broadcast_to(model.spectral_density(u, lam), np.broadcast_shapes(u.shape, lam.shape)).copy()
    return float(out) if out.ndim == 0 else out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def _panel_quadrature(a: float, b: float, interior_breaks=(), max_len=0.3):
    """Composite Gauss-Legendre nodes/weights on [a, b], split at breakpoints."""
    if b <= a:
        return np.empty(0), np.empty(0)
    pts = sorted({a, b} | {x for x in interior_breaks if a < x < b})
    nodes, weights = [], []
    for lo, hi in zip(pts[:-1], pts[1:]):
        n_sub = max(1, int(np.ceil((hi - lo) / max_len)))
        edges = np.linspace(lo, hi, n_sub + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            mid, rad = 0.5 * (e0 + e1), 0.5 * (e1 - e0)
            nodes.append(mid + rad * _GL_NODES)
            weights.append(rad * _GL_WEIGHTS)
    return np.concatenate(nodes), np.concatenate(weights)


def true_distance(model: ModelSpec, v: float, omega: float) -> float:
    """Integrated spectral distance d(v, omega); zero for any stationary model.

    Evaluated by tensorized composite Gauss-Legendre quadrature (absolute
    error well below 1e-8 for all supported models).
    """
    if not 0.0 <= v <= 1.0 or not 0.0 <= omega <= 1.0:
        raise ValueError("v and omega must lie in [0, 1]")
    lam_nodes, lam_w = _panel_quadrature(0.0, np.pi * omega, max_len=model.lam_panel)

    def u_integral(u_nodes, u_w):
        f = true_spectral_density(model, u_nodes[:, None], lam_nodes[None, :])
        return u_w @ (f @ lam_w)

    term_local = u_integral(*_panel_quadrature(0.0, v, model.u_breaks))
    term_avg = u_integral(*_panel_quadrature(0.0, 1.0, (*model.u_breaks, v)))
    return float((term_local - v * term_avg) / (2.0 * np.pi))
