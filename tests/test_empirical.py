import numpy as np
import pytest

from lsts import (
    StationaryMA,
    distance_process,
    limit_covariance_h0,
    make_grid,
    simulate,
)
from lsts.empirical import distance_values, sup_statistic
from oracles import (
    distance_at,
    limit_sup_samples,
    naive_distance_value,
    naive_pre_distance_value,
    naive_pre_periodogram,
)

TWO_PI = 2.0 * np.pi


class TestDistanceProcess:
    def test_zero_matrix(self):
        proc = distance_process(np.zeros(64), 8)
        assert np.all(proc.values == 0)
        assert proc.sup_stat == 0.0

    def test_two_block_hand_value(self):
        # M=2, one frequency, entries a and b: value at (1/2, 1) is (a-b)/(2T)
        a, b, T = 1.7, 0.4, 8
        grid = make_grid(8, 4)
        vals = distance_values(np.array([[a], [b]]), T)
        assert vals[0, 0] == pytest.approx((a - b) / (2 * T), abs=1e-15)
        assert vals[1, 0] == 0.0
        assert sup_statistic(vals, T) == pytest.approx(np.sqrt(T) * abs(a - b) / (2 * T))

    def test_last_row_exactly_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            vals = distance_values(rng.exponential(size=(6, 5)), 30)
            assert np.all(vals[-1] == 0.0)

    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(12)
        for T, M, halfN in [(32, 4, 4), (128, 8, 8), (96, 6, 8)]:
            I = rng.exponential(size=(M, halfN))
            vals = distance_values(I, T)
            for j in range(1, M + 1):
                for k in range(1, halfN + 1):
                    assert vals[j - 1, k - 1] == pytest.approx(
                        naive_distance_value(I, T, j, k), abs=1e-12
                    )

    def test_sup_stat_recompute(self):
        x = simulate(StationaryMA(), 128, seed=8)
        proc = distance_process(x, 16)
        assert proc.sup_stat >= 0
        assert proc.sup_stat == pytest.approx(
            np.sqrt(128) * np.abs(proc.values).max(), abs=1e-12
        )

    def test_grid_corners_exhaust_dense_lattice(self):
        # process is piecewise constant: a 200x200 lattice never beats corners
        rng = np.random.default_rng(44)
        I = rng.exponential(size=(8, 4))
        T = 64
        vals = distance_values(I, T)
        corner_max = np.abs(vals).max()
        lattice = np.linspace(0.0, 1.0, 200)
        dense_max = max(
            abs(distance_at(I, T, v, w)) for v in lattice for w in lattice
        )
        assert dense_max <= corner_max + 1e-15

    def test_variance_ramp_shifts_mid_cell(self):
        # the surface cell at (v = 1/2, omega = 1) picks up the variance-ramp
        # drift: it leaves the 95% band of the same cell under white noise
        from lsts import ScaledNoise

        T, N = 256, 32
        grid = make_grid(T, N)
        j_mid, k_last = grid.M // 2 - 1, N // 2 - 1

        def cell(model, seed):
            x = simulate(model, T, seed=seed)
            return distance_process(x, N).values[j_mid, k_last]

        null_cells = np.array([cell(StationaryMA(), 3000 + s) for s in range(200)])
        lo, hi = np.quantile(null_cells, [0.025, 0.975])
        alt_cells = np.array([cell(ScaledNoise(), 9000 + s) for s in range(100)])
        outside = np.mean((alt_cells < lo) | (alt_cells > hi))
        assert outside >= 0.8

    def test_csv_export(self, tmp_path):
        x = simulate(StationaryMA(), 64, seed=8)
        proc = distance_process(x, 8)
        out = tmp_path / "surface.csv"
        with open(out, "w") as fh:
            proc.to_csv(fh)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 8
        assert lines[0].startswith("u,")
        assert len(lines[1].split(",")) == 1 + 4


class TestPreDistanceProcess:
    def test_zero_series(self):
        proc = distance_process(np.zeros(16), estimator="pre")
        assert np.all(proc.values == 0)
        assert proc.sup_stat == 0.0

    def test_last_row_zero(self):
        rng = np.random.default_rng(3)
        proc = distance_process(rng.standard_normal(32), estimator="pre")
        assert np.all(proc.values[-1] == 0.0)

    def test_matches_naive_triple_loop(self):
        T = 16
        x = simulate(StationaryMA(), T, seed=77)
        proc = distance_process(x, estimator="pre")
        assert proc.values.shape == (T, T // 2)
        J = np.empty((T, T // 2))
        for t in range(1, T + 1):
            for k in range(1, T // 2 + 1):
                J[t - 1, k - 1] = naive_pre_periodogram(x, t, TWO_PI * k / T)
        for j in range(1, T + 1):
            for k in range(1, T // 2 + 1):
                assert proc.values[j - 1, k - 1] == pytest.approx(
                    naive_pre_distance_value(J, T, j, k), abs=1e-12
                )

    def test_too_short(self):
        with pytest.raises(ValueError):
            distance_process(np.zeros(4), estimator="pre")

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(6)
        proc = distance_process(rng.standard_normal(16), estimator="pre")
        out = tmp_path / "pre.csv"
        with open(out, "w") as fh:
            proc.to_csv(fh)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 16
        assert all(len(line.split(",")) == 1 + 8 for line in lines)


class TestLimitCovariance:
    def test_degenerate_time_factor(self):
        assert limit_covariance_h0(lambda lam: 1.0, 1.0, 0.5, 1.0, 0.8) == 0.0

    def test_flat_spectrum_hand_value(self):
        f = lambda lam: 1 / TWO_PI
        expect = 1 / (32 * np.pi**2)
        assert limit_covariance_h0(f, 0.5, 1.0, 0.5, 1.0) == pytest.approx(expect, abs=1e-12)

    def test_empty_frequency_range(self):
        assert limit_covariance_h0(lambda lam: 1.0, 0.5, 0.0, 0.5, 0.7) == 0.0

    def test_symmetry(self):
        f = lambda lam: 1 + 0.3 * np.cos(lam)
        a = limit_covariance_h0(f, 0.3, 0.8, 0.6, 0.5)
        b = limit_covariance_h0(f, 0.6, 0.5, 0.3, 0.8)
        assert a == pytest.approx(b, abs=1e-14)


class TestLimitConsistency:
    def test_white_noise_sup_quantile_near_gaussian_limit(self):
        # empirical 95% quantile of the statistic over 500 seeds vs the
        # Gaussian-limit quantile with the flat-spectrum covariance
        T, N = 512, 64
        grid = make_grid(T, N)
        model = StationaryMA()
        stats = np.empty(500)
        for s in range(500):
            x = simulate(model, T, seed=40_000 + s)
            stats[s] = distance_process(x, N).sup_stat
        empirical_q = np.quantile(stats, 0.95)
        sups = limit_sup_samples(
            lambda lam: 1 / TWO_PI, grid.midpoints, grid.frequencies, 60_000, seed=5
        )
        limit_q = np.quantile(sups, 0.95)
        assert abs(empirical_q / limit_q - 1.0) < 0.15
        assert stats.mean() < limit_q  # bounded sup-statistic scale under H0
