import numpy as np
import pytest

from lsts import (
    BadWindowError,
    make_grid,
    pre_periodogram,
    pre_periodogram_matrix,
    stationary_periodogram_all,
)
from oracles import (
    naive_local_periodogram,
    naive_pre_periodogram,
    naive_rounded_pre_periodogram,
    naive_stationary_periodogram,
    rounded_pre_periodogram_matrix,
    take_pre_periodogram_matrix,
)

TWO_PI = 2.0 * np.pi


class TestMakeGrid:
    def test_hand_grid(self):
        grid = make_grid(64, 8)
        assert grid.M == 8
        assert grid.midpoints[0] == pytest.approx(4 / 64)
        assert grid.frequencies[3] == np.pi  # lambda_{N/2} exactly pi

    def test_benchmark_configuration(self):
        assert make_grid(128, 16).M == 8

    def test_odd_window(self):
        with pytest.raises(BadWindowError):
            make_grid(64, 7)

    def test_tiny_window(self):
        with pytest.raises(BadWindowError):
            make_grid(64, 2)

    def test_nondivisible(self):
        with pytest.warns(UserWarning, match="truncating tail to T=96"):
            grid = make_grid(100, 16)
        assert grid.T == 96

    @pytest.mark.parametrize("N", [8.9, 16.5, np.float64(7.5)])
    def test_fractional_window(self, N):
        with pytest.raises(BadWindowError, match=rf"^N must be an even integer >= 4, got {N}$"):
            make_grid(128, N)

    def test_fractional_length(self):
        with pytest.raises(ValueError, match=r"^series length T must be an integer, got 128\.9$"):
            make_grid(128.9, 16)

    @pytest.mark.parametrize("N", [16.0, np.int64(16), np.float64(16.0)])
    def test_integral_window_of_any_type(self, N):
        grid = make_grid(128, N)
        assert grid.N == 16 and type(grid.N) is int and grid.M == 8

    def test_single_block(self):
        with pytest.raises(BadWindowError):
            make_grid(16, 16)

    def test_midpoints_increasing_in_unit_interval(self):
        for T, N in [(64, 8), (128, 16), (256, 8), (48, 12)]:
            grid = make_grid(T, N)
            u = grid.midpoints
            assert np.all(np.diff(u) > 0)
            assert u[0] > 0 and u[-1] <= 1


class TestLocalPeriodogram:
    def test_zero_series(self):
        grid = make_grid(64, 8)
        I = stationary_periodogram_all(np.zeros(64).reshape(grid.M, grid.N))
        assert I.shape == (8, 4)
        assert np.all(I == 0)

    def test_impulse_block(self):
        grid = make_grid(64, 8)
        x = np.zeros(64)
        x[0] = 1.0  # block 1 is [1, 0, ..., 0]
        I = stationary_periodogram_all(x.reshape(grid.M, grid.N))
        assert np.allclose(I[0], 1 / (TWO_PI * 8), atol=1e-14)
        assert np.all(I[1:] == 0)

    @pytest.mark.parametrize("T,N", [(64, 8), (48, 12), (60, 6), (64, 16), (200, 100)])
    def test_matches_direct_summation(self, T, N):
        rng = np.random.default_rng(7 + T + N)
        x = rng.standard_normal(T)
        grid = make_grid(T, N)
        I = stationary_periodogram_all(x.reshape(grid.M, grid.N))
        for j in range(grid.M):
            t_mid = N * j + N // 2
            for k in range(N // 2):
                expect = naive_local_periodogram(x, N, t_mid, float(grid.frequencies[k]))
                assert I[j, k] == pytest.approx(expect, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        grid = make_grid(128, 16)
        I = stationary_periodogram_all(rng.standard_normal(128).reshape(grid.M, grid.N))
        assert np.all(I >= 0)
        assert np.all(np.isfinite(I))

    def test_parseval(self):
        # (2 pi / N) * sum of I over the full frequency set {2 pi k/N, k=1..N}
        # equals the block mean square
        rng = np.random.default_rng(11)
        T, N = 96, 8
        x = rng.standard_normal(T)
        grid = make_grid(T, N)
        vals = stationary_periodogram_all(x.reshape(grid.M, grid.N))
        for j in range(grid.M):
            block = x[j * N : (j + 1) * N]
            dc = block.sum() ** 2 / (TWO_PI * N)  # k = N, e^{-i 2 pi s} = 1
            full = vals[j].sum() + vals[j, :-1].sum() + dc
            assert (TWO_PI / N) * full == pytest.approx(np.mean(block**2), abs=1e-10)


class TestPrePeriodogram:
    def test_zero_series(self):
        assert pre_periodogram(np.zeros(16), 4, 1.0) == 0.0

    def test_single_spike(self):
        # x = [1,0,0,0], t=1: only lag k = 0 has both indices in range
        x = np.array([1.0, 0.0, 0.0, 0.0])
        for lam in (0.0, 0.4, np.pi):
            assert pre_periodogram(x, 1, lam) == pytest.approx(1 / TWO_PI, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        T = 16  # power of two keeps the oracle's floating-point floors exact
        x = rng.standard_normal(T)
        for t in range(1, T + 1):
            for k in range(1, T // 2 + 1):
                lam = TWO_PI * k / T
                assert pre_periodogram(x, t, lam) == pytest.approx(
                    naive_pre_periodogram(x, t, lam), abs=1e-12
                )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pre_periodogram(np.zeros(16), 0, 1.0)
        with pytest.raises(ValueError):
            pre_periodogram(np.zeros(16), 17, 1.0)

    def test_real_and_finite_but_sign_free(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(32)
        vals = pre_periodogram_matrix(x)
        assert np.all(np.isfinite(vals))
        assert vals.min() < 0  # unlike the periodogram, lag sums go negative

    def test_matrix_matches_pointwise(self):
        rng = np.random.default_rng(5)
        for T in (16, 31, 32):
            x = rng.standard_normal(T)
            mat = pre_periodogram_matrix(x)
            assert mat.shape == (T, T // 2)
            for t in (1, 2, T // 2, T):
                for k in (1, T // 4 or 1, T // 2):
                    lam = TWO_PI * k / T
                    assert mat[t - 1, k - 1] == pytest.approx(
                        pre_periodogram(x, t, lam), abs=1e-10
                    )

    def test_matrix_batched(self):
        rng = np.random.default_rng(9)
        batch = rng.standard_normal((3, 24))
        stacked = pre_periodogram_matrix(batch)
        for i in range(3):
            assert np.array_equal(stacked[i], pre_periodogram_matrix(batch[i]))

    @pytest.mark.parametrize("T", [8, 9, 16, 33, 64, 65, 128, 256])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_matrix_matches_take_oracle(self, T, lead):
        # the strided gather and in-place fold reproduce the index-gather kernel
        # bit for bit, odd and even T, single series and batches alike
        x = np.random.default_rng(T + len(lead)).standard_normal(lead + (T,))
        assert np.array_equal(pre_periodogram_matrix(x), take_pre_periodogram_matrix(x))


class TestRoundedPrePeriodogramOracle:
    """The odd-lag-blind reading behind the published pre-periodogram ranking.

    Criterion 5 runs the pre test with this oracle in place of the package's
    matrix; these checks pin the oracle to its literal definition and show the
    property that separates it from the package's floor reading.
    """

    @pytest.mark.parametrize("T", [16, 32, 33])
    def test_matches_naive_sum(self, T):
        rng = np.random.default_rng(40 + T)
        x = rng.standard_normal(T)
        mat = rounded_pre_periodogram_matrix(x)
        assert mat.shape == (T, T // 2)
        for t in range(1, T + 1):
            for k in range(1, T // 2 + 1):
                lam = TWO_PI * k / T
                assert mat[t - 1, k - 1] == pytest.approx(
                    naive_rounded_pre_periodogram(x, t, lam), abs=1e-12
                )

    @staticmethod
    def _alternate(x):
        return x * (-1.0) ** np.arange(1, x.shape[-1] + 1)

    def test_blind_to_sign_alternation(self):
        # x_t -> (-1)^t x_t flips only products of indices of unlike parity,
        # and rounding half to even never pairs those
        rng = np.random.default_rng(12)
        for T in (16, 32, 33):
            x = rng.standard_normal(T)
            flipped = rounded_pre_periodogram_matrix(self._alternate(x))
            assert np.array_equal(flipped, rounded_pre_periodogram_matrix(x))

    def test_package_reading_sees_sign_alternation(self):
        rng = np.random.default_rng(12)
        for T in (16, 32, 33):
            x = rng.standard_normal(T)
            gap = np.abs(pre_periodogram_matrix(self._alternate(x)) - pre_periodogram_matrix(x))
            assert gap.max() > 1.0


class TestStationaryPeriodogram:
    def test_zero_series(self):
        assert stationary_periodogram_all(np.zeros(16))[3 - 1] == 0.0

    def test_constant_series_at_pi(self):
        # alternating phases cancel for even T at k = T/2
        x = np.full(16, 2.7)
        assert stationary_periodogram_all(x)[8 - 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(32)
        pgram = stationary_periodogram_all(x)
        for k in range(1, 17):
            assert pgram[k - 1] == pytest.approx(naive_stationary_periodogram(x, k), abs=1e-10)

    def test_odd_length_matches_naive(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal(31)
        pgram = stationary_periodogram_all(x)
        assert pgram.shape == (15,)
        for k in range(1, 16):
            assert pgram[k - 1] == pytest.approx(naive_stationary_periodogram(x, k), abs=1e-10)
