import numpy as np
import pytest

from lsts import (
    PiecewiseAR1,
    ScaledNoise,
    StationaryAR,
    StationaryMA,
    TvAR1Sqrt,
    TvMA1Lag,
    make_grid,
    simulate,
    stationary_periodogram_all,
    true_distance,
    true_spectral_density,
)

ALL_MODELS = [
    StationaryAR(coeffs=(0.5,)),
    StationaryAR(coeffs=(-0.9,)),
    StationaryMA(coeffs=(0.9,)),
    StationaryMA(),
    ScaledNoise(),
    TvAR1Sqrt(),
    PiecewiseAR1(),
    TvMA1Lag(q=1),
    TvMA1Lag(q=6),
]


def lag1_autocorr(x):
    xc = x - x.mean()
    return (xc[:-1] @ xc[1:]) / (xc @ xc)


class TestModelValidation:
    def test_noncausal_ar_rejected(self):
        with pytest.raises(ValueError, match="non-causal"):
            StationaryAR(coeffs=(1.2,))
        with pytest.raises(ValueError, match="non-causal"):
            StationaryAR(coeffs=(0.5, 0.6))  # root inside the unit disk

    def test_unit_root_rejected(self):
        with pytest.raises(ValueError):
            StationaryAR(coeffs=(1.0,))

    def test_borderline_causal_accepted(self):
        StationaryAR(coeffs=(0.99,))

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            StationaryAR(sigma=0.0)
        with pytest.raises(ValueError):
            StationaryMA(sigma=-1.0)

    def test_lag_at_least_one(self):
        with pytest.raises(ValueError):
            TvMA1Lag(q=0)


class TestSimulate:
    def test_minimum_length(self):
        with pytest.raises(ValueError, match="at least"):
            simulate(StationaryMA(), 7, 0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label())
    def test_whole_number_length_and_seed(self, model):
        # the package-wide whole-number rule: a fractional value raises naming it, a whole float is that int
        for T, seed, message in [(64.5, 0, r"series length T must be an integer, got 64\.5"),
                                 (64, 1.5, r"seed must be an integer, got 1\.5")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                simulate(model, T, seed)
        assert simulate(model, 64.0, 2.0).tobytes() == simulate(model, 64, 2).tobytes()

    def test_white_noise_moments(self):
        x = simulate(StationaryMA(), 64, seed=123)
        assert x.shape == (64,)
        tol = 5 / np.sqrt(64)
        assert abs(x.mean()) < tol
        assert abs(x.var() - 1.0) < tol

    def test_ar1_autocorrelation(self):
        x = simulate(StationaryAR(coeffs=(0.5,)), 10_000, seed=11)
        assert 0.47 < lag1_autocorr(x) < 0.53

    def test_scaled_noise_variance_ramp(self):
        T = 20_000
        x = simulate(ScaledNoise(), T, seed=5)
        q = T // 4
        t = np.arange(1, T + 1) / T
        expected = np.mean((1 + t[3 * q :]) ** 2) / np.mean((1 + t[:q]) ** 2)
        observed = x[3 * q :].var() / x[:q].var()
        assert abs(observed / expected - 1.0) < 0.10

    def test_bit_reproducible(self):
        for model in ALL_MODELS:
            a = simulate(model, 64, seed=99)
            b = simulate(model, 64, seed=99)
            assert np.array_equal(a, b)
            c = simulate(model, 64, seed=100)
            assert not np.array_equal(a, c)

    def test_all_values_finite(self):
        for model in ALL_MODELS:
            assert np.all(np.isfinite(simulate(model, 256, seed=3)))

    def test_piecewise_halves(self):
        x = simulate(PiecewiseAR1(), 40_000, seed=17)
        first, second = x[:20_000], x[20_000:]
        assert 0.45 < lag1_autocorr(first) < 0.55
        assert -0.55 < lag1_autocorr(second) < -0.45
        # both regimes share the stationary variance 1/(1 - 0.25)
        assert abs(first.var() - 4 / 3) < 0.1
        assert abs(second.var() - 4 / 3) < 0.1

    def test_tvar_sqrt_end_behavior(self):
        x = simulate(TvAR1Sqrt(), 20_000, seed=23)
        assert lag1_autocorr(x[-5000:]) < -0.6  # coefficient near -0.9 late on
        assert abs(lag1_autocorr(x[:100])) < 0.4  # near white noise early on


class TestTrueSpectralDensity:
    def test_white_noise_flat(self):
        assert true_spectral_density(StationaryMA(), 0.3, 1.1) == pytest.approx(1 / (2 * np.pi))

    def test_ar1_hand_values(self):
        model = StationaryAR(coeffs=(0.5,))
        assert true_spectral_density(model, 0.7, 0.0) == pytest.approx(2 / np.pi)
        assert true_spectral_density(model, 0.7, np.pi) == pytest.approx(1 / (2 * np.pi * 2.25))

    def test_scaled_noise(self):
        assert true_spectral_density(ScaledNoise(), 1.0, 2.0) == pytest.approx(4 / (2 * np.pi))

    def test_piecewise_switch(self):
        m = PiecewiseAR1()
        assert true_spectral_density(m, 0.3, 0.0) == pytest.approx(2 / np.pi)
        assert true_spectral_density(m, 0.7, 0.0) == pytest.approx(1 / (2 * np.pi * 2.25))

    def test_tvar_sqrt(self):
        # |1 + 0.9 sqrt(u) e^{-i lam}|^2 at u = 0.25, lam = 0
        expect = 1 / (2 * np.pi * (1 + 0.9 * 0.5) ** 2)
        assert true_spectral_density(TvAR1Sqrt(), 0.25, 0.0) == pytest.approx(expect)

    def test_tvma_lag(self):
        c = 0.8 * np.cos(1.5 - np.cos(0.0))
        lam = 0.7
        for q in (1, 6):
            expect = (1 + 2 * c * np.cos(q * lam) + c * c) / (2 * np.pi)
            assert true_spectral_density(TvMA1Lag(q=q), 0.0, lam) == pytest.approx(expect)

    def test_broadcasting(self):
        u = np.linspace(0, 1, 5)[:, None]
        lam = np.linspace(0, np.pi, 7)[None, :]
        out = true_spectral_density(TvAR1Sqrt(), u, lam)
        assert out.shape == (5, 7)
        assert np.all(out > 0)


class TestTrueDistance:
    def test_stationary_models_zero_on_grid(self):
        grid = np.linspace(0.0, 1.0, 21)
        for model in (StationaryAR(coeffs=(0.5,)), StationaryMA(coeffs=(0.9,)), StationaryMA()):
            for v in grid:
                for w in grid:
                    assert abs(true_distance(model, v, w)) <= 1e-8

    def test_boundaries_zero_all_models(self):
        for model in ALL_MODELS:
            for v, w in [(1.0, 0.0), (1.0, 0.37), (1.0, 1.0), (0.0, 0.0), (0.0, 0.37), (0.0, 1.0), (0.6, 0.0)]:
                d = true_distance(model, v, w)
                assert d == 0.0 and np.copysign(1.0, d) == 1.0, (model, v, w, d)

    def test_scaled_noise_hand_value(self):
        # hand integration of (1+u)^2: the bracket equals -0.1875, and the
        # distance carries the 1/(2 pi) prefactor of its definition
        assert true_distance(ScaledNoise(), 0.5, 1.0) == pytest.approx(-0.1875 / (2 * np.pi), abs=1e-10)

    def test_scaled_noise_second_hand_value(self):
        g = (1.25**3 - 1) / 3 - 0.25 * 7 / 3
        assert true_distance(ScaledNoise(), 0.25, 0.5) == pytest.approx(0.5 * g / (4 * np.pi), abs=1e-10)

    def test_piecewise_hand_value(self):
        # int_0^{pi/2} (f_+ - f_-) via the closed-form AR(1) antiderivative
        atan_part = (8 / 3) * np.arctan(3.0)
        full = (8 / 3) * (np.pi / 2)
        int_plus = atan_part / (2 * np.pi)
        int_minus = (full - atan_part) / (2 * np.pi)
        expect = 0.5 * (int_plus - int_minus) / 2 / (2 * np.pi)
        assert true_distance(PiecewiseAR1(), 0.5, 0.5) == pytest.approx(expect, abs=1e-10)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            true_distance(ScaledNoise(), -0.1, 0.5)
        with pytest.raises(ValueError):
            true_distance(ScaledNoise(), 0.5, 1.2)


class TestPeriodogramConsistency:
    def test_mean_local_periodogram_tracks_spectrum(self):
        # grid with a midpoint exactly at u = 0.5 needs odd M; T = 64 * 9
        model = StationaryAR(coeffs=(0.5,))
        N, M = 64, 9
        T = N * M
        grid = make_grid(T, N)
        j_mid = M // 2
        assert grid.midpoints[j_mid] == 0.5
        acc = np.zeros(N // 2)
        n_seeds = 200
        for s in range(n_seeds):
            x = simulate(model, T, seed=1000 + s)
            acc += stationary_periodogram_all(x.reshape(grid.M, grid.N))[j_mid]
        mean_pgram = acc / n_seeds
        f = true_spectral_density(model, 0.5, grid.frequencies)
        rel = np.abs(mean_pgram - f) / f
        # per-frequency noise at 200 seeds is ~7% of f, so individual bins can
        # stray past 10%; the estimator is unbiased in aggregate
        assert rel.mean() < 0.10
        assert rel.max() < 0.30
