import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lsts import (
    BadWindowError,
    DegenerateSeriesError,
    ExperimentConfig,
    StationaryAR,
    StationaryMA,
    aic_select,
    default_window,
    run_test,
    simulate,
)
from lsts import sieve
from lsts._seeds import MASK64, normal_generator, normal_rows
from lsts.empirical import distance_values, sup_statistic
from lsts.sieve import (
    ESTIMATORS,
    ArFit,
    _aic_rows,
    _replicate_series,
    _replicate_statistics,
    autocovariance,
    decide,
    default_order_range,
    order_statistic_index,
)
from lsts.spectral import _block_periodograms, make_grid
from oracles import (
    loop_aic_select,
    per_series_aic_select,
    take_pre_periodogram_matrix,
    three_pass_default_window,
    toeplitz_yule_walker,
)
from scipy.signal import lfilter, lfiltic


class TestYuleWalker:
    def test_hand_computation(self):
        # centered series -2..2: gamma(0) = 10/5, gamma(1) = 4/5, so a_1 = 0.4
        fit = aic_select(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 1, 1)
        assert fit.coeffs[0] == pytest.approx(0.8 / 2.0, abs=1e-14)
        # residuals 1.6, 2.2, 2.8, 3.4 centered at 2.5; SS / (T-p) = 1.8/4
        assert fit.sigma2 == pytest.approx(0.45, abs=1e-14)

    def test_white_noise_coefficient_small(self):
        x = simulate(StationaryMA(), 10_000, seed=1)
        fit = aic_select(x, 1, 1)
        assert abs(fit.coeffs[0]) < 0.03

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            aic_select(np.full(64, 3.0), 2, 2)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            aic_select(np.arange(16.0), 8, 8)
        with pytest.raises(ValueError):
            aic_select(np.arange(16.0), 0, 0)

    @pytest.mark.parametrize("p", [1, 3, 7, 10])
    def test_levinson_matches_dense_toeplitz_solve(self, p):
        for seed, T in [(5, 128), (6, 256), (7, 96)]:
            x = simulate(StationaryAR(coeffs=(0.6, -0.2)), T, seed=seed)
            gamma = autocovariance(x, p)
            fit = aic_select(x, p, p)
            direct = toeplitz_yule_walker(gamma, p)
            assert np.allclose(fit.coeffs, direct, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_first_order_is_lag_one_autocorrelation(self, scale):
        gamma = autocovariance(simulate(StationaryAR(coeffs=(0.5,)), 128, seed=11) * scale, 3)
        first = sieve._levinson_all(gamma, 1)[0]
        assert first.tolist() == [gamma[1] / gamma[0]]

    def test_fits_are_causal(self):
        for seed in range(25):
            model = StationaryAR(coeffs=(0.5,)) if seed % 2 else StationaryMA(coeffs=(0.8,))
            x = simulate(model, 200, seed=seed)
            fit = aic_select(x, 6, 6)
            poly = np.r_[[-c for c in fit.coeffs[::-1]], 1.0]
            roots = np.roots(poly)
            assert np.abs(roots).min() > 1.0


class TestAicSelect:
    def test_singleton_range(self):
        x = simulate(StationaryMA(), 256, seed=2)
        fit = aic_select(x, 3, 3)
        assert fit.order == 3
        assert fit.aic_trace.shape == (1,)

    def test_white_noise_modal_order_is_floor(self):
        orders = []
        for s in range(100):
            x = simulate(StationaryMA(), 512, seed=600 + s)
            orders.append(aic_select(x, 1, 12).order)
        counts = np.bincount(orders)
        assert counts.argmax() == 1

    def test_ar2_recovered(self):
        hits = 0
        for s in range(100):
            x = simulate(StationaryAR(coeffs=(0.5, -0.3)), 2048, seed=900 + s)
            hits += aic_select(x, 1, 20).order == 2
        assert hits >= 60

    def test_trace_alignment(self):
        x = simulate(StationaryAR(coeffs=(0.5,)), 256, seed=3)
        fit = aic_select(x, 1, 8)
        assert fit.candidate_orders.tolist() == list(range(1, 9))
        assert fit.aic_trace.argmin() == fit.order - 1

    def test_range_validation(self):
        x = simulate(StationaryMA(), 64, seed=4)
        with pytest.raises(ValueError):
            aic_select(x, 0, 4)
        with pytest.raises(ValueError):
            aic_select(x, 4, 2)
        with pytest.raises(ValueError):
            aic_select(x, 1, 16)  # p_max must stay below T/4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series(self, bad):
        # the check of run_test's series, not an autocovariance "overflow" of max |x - mean| = nan
        x = simulate(StationaryMA(), 64, seed=4)
        x[10] = bad
        with pytest.raises(ValueError, match="^series contains non-finite values$"):
            aic_select(x, 1, 4)

    def test_two_dimensional_series(self):
        # the check of run_test's series, not numpy's matmul core-dimension mismatch
        with pytest.raises(ValueError, match="^series must be one-dimensional$"):
            aic_select(np.ones((64, 2)), 1, 4)

    def test_constant_series(self):
        # 0.1 and -3.7 do not average back to themselves: gamma(0) ~ 1e-34, not 0
        for value in (1.0, 0.1, -3.7):
            with pytest.raises(DegenerateSeriesError, match="constant series"):
                aic_select(np.full(128, value), 1, 4)
            with pytest.raises(DegenerateSeriesError, match="constant series"):
                run_test(np.full(128, value), B=19)

    @pytest.mark.parametrize("scale, flow", [(1e160, "overflows"), (1e-170, "underflows")])
    @pytest.mark.parametrize("estimator, T, N", [("local", 128, 16), ("pre", 64, None)])
    def test_out_of_range_scale_names_the_cause(self, scale, flow, estimator, T, N):
        x = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=11)[:T] * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"autocovariance {flow} float64 .*rescale the series") as info:
                run_test(x, N=N, B=100, seed=0, estimator=estimator)
        assert not isinstance(info.value, DegenerateSeriesError)
        assert f"max |x - mean| = {np.abs(x - x.mean()).max():.3g}" in str(info.value)

    @pytest.mark.parametrize("T", [64, 128, 512, 4096])
    @pytest.mark.parametrize(
        "model",
        [
            StationaryAR(coeffs=(0.5, -0.3)),
            StationaryMA(coeffs=(0.8,)),
            StationaryAR(coeffs=(0.995,)),
        ],
        ids=["ar2", "ma1", "near-unit-root"],
    )
    def test_batched_matches_per_order_loop(self, T, model):
        # bit-identical to one residual pass and one rfft per order, across
        # levels and scales far from unit variance
        rng = np.random.default_rng(T)
        _, p_max = default_order_range(T)
        for s in range(3):
            scale = 10.0 ** rng.uniform(-5, 5)
            shift = rng.normal() * 10.0 ** rng.uniform(-5, 5)
            x = shift + scale * simulate(model, T, seed=1000 + s)
            for p_min in (1, 3):
                got = aic_select(x, p_min, p_max)
                ref = loop_aic_select(x, p_min, p_max)
                assert got.order == ref.order
                assert got.sigma2 == ref.sigma2
                assert np.array_equal(got.aic_trace, ref.aic_trace)
                assert np.array_equal(got.candidate_orders, ref.candidate_orders)
                assert np.array_equal(got.coeffs, ref.coeffs)

    def test_independent_of_block_budget(self, monkeypatch):
        # T=4096 has 37 candidate orders: one order per block, then all in one
        x = simulate(StationaryMA(coeffs=(0.8,)), 4096, seed=1100)
        fits = []
        for budget in (1, 1 << 40):
            monkeypatch.setattr(sieve, "_BLOCK_BYTES", budget)
            fits.append(aic_select(x, 1, default_order_range(4096)[1]))
        one_row, all_rows = fits
        assert one_row.order == all_rows.order
        assert one_row.sigma2 == all_rows.sigma2
        assert np.array_equal(one_row.coeffs, all_rows.coeffs)
        assert np.array_equal(one_row.aic_trace, all_rows.aic_trace)

    def test_vanishing_residual_variance_names_first_order(self, monkeypatch):
        # x_t = 0.5 x_{t-1} + 1 holds exactly in floating point (x_t = 2 - 2^-t),
        # so any fit with leading coefficient 0.5 and zeros after it leaves
        # constant residuals; order 1 is fitted with 0.25 and keeps a positive
        # variance, so the first vanishing order is 2
        x = 2.0 - 2.0 ** -np.arange(48.0)
        table = np.array([[0.25, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        monkeypatch.setattr(sieve, "_levinson_all", lambda gamma, p_max: table[:p_max, :p_max])
        with pytest.raises(DegenerateSeriesError, match="vanished at order 2$"):
            aic_select(x, 1, 3)
        with pytest.raises(DegenerateSeriesError, match="vanished at order 3$"):
            aic_select(x, 3, 3)

    @pytest.mark.parametrize("budget", [None, 1, 1 << 40], ids=["default", "one-order", "one-block"])
    @pytest.mark.parametrize("T, R", [(64, 6), (512, 3), (4096, 2)])
    def test_rows_equal_per_series_fits(self, monkeypatch, budget, T, R):
        # a batch's fits are the per-series fits bit for bit, whatever its order blocks;
        # T=4096 has 37 candidate orders, in several blocks at the default budget
        if budget is not None:
            monkeypatch.setattr(sieve, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(T + R)
        models = [StationaryAR(coeffs=(0.5, -0.3)), StationaryMA(coeffs=(0.8,)), StationaryAR(coeffs=(0.995,))]
        X = np.array([
            rng.normal() * 10.0 ** rng.uniform(-5, 5)
            + 10.0 ** rng.uniform(-5, 5) * simulate(models[r % 3], T, seed=1200 + r)
            for r in range(R)
        ])
        _, p_max = default_order_range(T)
        for p_min in (1, 3):
            fits = _aic_rows(X, p_min, p_max)
            assert len(fits) == R
            for x, got in zip(X, fits):
                ref = per_series_aic_select(x, p_min, p_max)
                assert got.order == ref.order
                assert got.sigma2 == ref.sigma2
                assert np.array_equal(got.aic_trace, ref.aic_trace)
                assert np.array_equal(got.candidate_orders, ref.candidate_orders)
                assert np.array_equal(got.coeffs, ref.coeffs)

    def test_any_constant_row_fails_the_batch(self):
        X = np.vstack([simulate(StationaryMA(), 64, seed=19), np.full(64, 0.1)])
        with pytest.raises(DegenerateSeriesError, match="constant series"):
            _aic_rows(X, 1, 4)


def _first_replicate(x, fit, seed):
    """Replicate 1 (innovation key seed ^ 1) of a B=1 draw."""
    [rows] = _replicate_series(np.asarray(x, dtype=float), fit, 1, seed, 1, normal_generator(seed))
    return rows[0]


class TestBootstrapReplicate:
    def test_zero_noise_collapse(self):
        fit = ArFit(order=1, coeffs=np.array([0.0]), sigma2=0.0)
        x = np.array([3.0, -1.0, 2.0, 0.5])
        out = _first_replicate(x, fit, seed=5)
        assert np.allclose(out, [3.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_zero_noise_recursion(self):
        fit = ArFit(order=1, coeffs=np.array([0.5]), sigma2=0.0)
        x = np.array([2.0, 9.0, 9.0, 9.0, 9.0])
        out = _first_replicate(x, fit, seed=5)
        assert np.allclose(out, [2.0, 1.0, 0.5, 0.25, 0.125], atol=1e-15)

    def test_order_zero_is_scaled_noise(self):
        fit = ArFit(order=0, coeffs=np.zeros(0), sigma2=2.0)
        x = simulate(StationaryAR(coeffs=(0.5,)), 64, seed=6)
        out = _first_replicate(x, fit, seed=9)
        assert np.array_equal(out, normal_generator((9 ^ 1) & MASK64).standard_normal(64) * np.sqrt(2.0))

    def test_deterministic(self):
        x = simulate(StationaryAR(coeffs=(0.5,)), 64, seed=6)
        fit = aic_select(x, 2, 2)
        a = _first_replicate(x, fit, seed=42)
        b = _first_replicate(x, fit, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, _first_replicate(x, fit, seed=43))

    def test_initial_segment_copied(self):
        x = simulate(StationaryAR(coeffs=(0.5,)), 64, seed=7)
        fit = aic_select(x, 3, 3)
        out = _first_replicate(x, fit, seed=1)
        assert np.array_equal(out[:3], x[:3])
        assert out.shape == x.shape


STREAM_SEEDS = [0, 1, 2**63 + 5, 2**64 - 1]


def _contract_series(x, fit, B, seed):
    """Replicate series built straight from the documented stream contract:
    replicate i draws normal_generator((seed ^ i) & MASK64) from counter 0."""
    T, p = x.shape[0], fit.order
    a_poly = np.r_[1.0, -fit.coeffs]
    rows = []
    for i in range(1, B + 1):
        e = normal_generator((seed ^ i) & MASK64).standard_normal(T - p) * np.sqrt(fit.sigma2)
        if p > 0:
            tail, _ = lfilter([1.0], a_poly, e, zi=lfiltic([1.0], a_poly, x[p - 1 :: -1]))
            e = np.concatenate([x[:p], tail])
        rows.append(e)
    return np.array(rows)


class TestReplicateStream:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n", [1, 63, 128])
    def test_normal_rows_match_fresh_generators(self, seed, n):
        B = 40
        keys = [(seed ^ i) & MASK64 for i in range(1, B + 1)]
        expected = np.array([normal_generator(k).standard_normal(n) for k in keys])
        # a used generator leaks no state: after plain draws, and after an earlier call
        drawn = normal_generator(seed + 1)
        drawn.standard_normal(7)
        reused = normal_generator(seed)
        normal_rows(reused, keys[::-1], n + 3)
        for generator in (normal_generator(seed), drawn, reused):
            assert np.array_equal(normal_rows(generator, keys, n), expected)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_replicate_statistics_follow_contract(self, seed, p):
        T, N, B = 64, 8, 30
        x = simulate(StationaryAR(coeffs=(0.5,)), T, seed=31)
        fit = aic_select(x, p, p) if p else ArFit(order=0, coeffs=np.zeros(0), sigma2=float(x.var()))
        grid = make_grid(T, N)
        series = _contract_series(x, fit, B, seed)
        expected = sup_statistic(
            distance_values(_block_periodograms(series.reshape(B, grid.M, grid.N)), T), T
        )
        [got] = _replicate_statistics(x[None], [fit], B, [seed], grid)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("T", [33, 64])
    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_pre_replicate_statistics_follow_contract(self, T, p):
        # B=40 at T=64 spans two chunks of the default byte budget
        B, seed = 40, 2**63 + 5
        x = simulate(StationaryAR(coeffs=(0.5,)), T, seed=31)
        fit = aic_select(x, p, p) if p else ArFit(order=0, coeffs=np.zeros(0), sigma2=float(x.var()))
        series = _contract_series(x, fit, B, seed)
        expected = sup_statistic(distance_values(take_pre_periodogram_matrix(series), T * T), T)
        grid, _ = sieve._layout(T, None, "pre")
        [got] = _replicate_statistics(x[None], [fit], B, [seed], grid)
        assert np.array_equal(got, expected)

    def test_pre_statistics_independent_of_chunk_budget(self, monkeypatch):
        x = simulate(StationaryAR(coeffs=(0.5,)), 48, seed=32)
        B = 12
        kernel = sieve.pre_periodogram_matrix
        chunks = []

        def counted(rows):
            chunks.append(rows.shape[0])
            return kernel(rows)

        monkeypatch.setattr(sieve, "pre_periodogram_matrix", counted)
        draws = {}
        for budget, expected_chunks in [(1, [1] * (B + 1)), (1 << 40, [1, B])]:
            monkeypatch.setattr(sieve, "_PRE_CHUNK_BYTES", budget)
            chunks.clear()
            draws[budget] = sieve.bootstrap_draws(x, B=B, seed=5, estimator="pre")
            assert chunks == expected_chunks  # observed row first, then the replicates
        one_row, all_rows = draws.values()
        assert one_row.statistic == all_rows.statistic
        assert np.array_equal(one_row.replicates, all_rows.replicates)

    @pytest.mark.parametrize("estimator,T", [("local", 64), ("pre", 32)])
    def test_replicates_independent_of_block_budget(self, monkeypatch, estimator, T):
        x = simulate(StationaryAR(coeffs=(0.5,)), T, seed=33)
        B = 12
        filt = sieve.lfilter
        rows = []

        def counted(b, a, e, **kwargs):
            rows.append(e.shape[0])
            return filt(b, a, e, **kwargs)

        monkeypatch.setattr(sieve, "lfilter", counted)
        draws = {}
        for budget, expected_rows in [(1, [1] * B), (1 << 40, [B])]:
            monkeypatch.setattr(sieve, "_BLOCK_BYTES", budget)
            rows.clear()
            draws[budget] = sieve.bootstrap_draws(x, N=8, B=B, seed=6, estimator=estimator)
            assert rows == expected_rows
        one_row, all_rows = draws.values()
        assert one_row.statistic == all_rows.statistic
        assert np.array_equal(one_row.replicates, all_rows.replicates)

    @pytest.mark.parametrize("estimator,T", [("local", 64), ("pre", 32)])
    def test_one_generator_per_test(self, monkeypatch, estimator, T):
        # one generator per bootstrap_draws call, for one series and for a batch of three alike
        X = np.array([simulate(StationaryAR(coeffs=(0.5,)), T, seed=s) for s in (34, 35, 36)])
        build = sieve.normal_generator
        calls = []

        def counted(seed):
            calls.append(seed)
            return build(seed)

        monkeypatch.setattr(sieve, "normal_generator", counted)
        for budget, alphas in [(1, ()), (1 << 40, ()), (1 << 40, (0.05,))]:
            monkeypatch.setattr(sieve, "_BLOCK_BYTES", budget)
            for series, seed in [(X[0], 7), (X, [7, 8, 9])]:
                calls.clear()
                sieve.bootstrap_draws(series, N=8, B=12, seed=seed, estimator=estimator, alphas=alphas)
                assert calls == [7]


class TestReplicatePrefixProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        T=st.integers(16, 96),
        seed=st.integers(0, 2**64 - 1),
        B1=st.integers(1, 20),
        extra=st.integers(0, 20),
        block=st.integers(1, 8),
        estimator=st.sampled_from(ESTIMATORS),
    )
    def test_prefix_stable_in_B(self, T, seed, B1, extra, block, estimator):
        # replicate i depends only on seed ^ i, whatever B and the block size
        x = np.random.default_rng(seed).standard_normal(T - T % 8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "_BLOCK_BYTES", block * 8 * x.shape[0])
            short, long = (
                sieve.bootstrap_draws(x, N=8, B=B, seed=seed, estimator=estimator).replicates
                for B in (B1, B1 + extra)
            )
        assert np.array_equal(short, long[:B1])


class TestCurtailedDrawProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        T=st.integers(16, 96),
        seed=st.integers(0, 2**64 - 1),
        B=st.integers(10, 60),
        alphas=st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.5]), min_size=1, max_size=3, unique=True),
        rows=st.integers(1, 8),
        estimator=st.sampled_from(ESTIMATORS),
    )
    def test_prefix_of_full_draw_fixes_every_decision(self, T, seed, B, alphas, rows, estimator):
        # a curtailed draw is the first n of the full B replicates, and stops at
        # the first block boundary where every level's full-B decision is fixed
        x = np.random.default_rng(seed).standard_normal(T - T % 8)
        assume(all(int(np.floor((1 - a) * B + 1e-9)) >= 1 for a in alphas))
        full = sieve.bootstrap_draws(x, N=8, B=B, seed=seed, estimator=estimator)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "_CURTAIL_ROWS", rows)
            cut = sieve.bootstrap_draws(x, N=8, B=B, seed=seed, estimator=estimator, alphas=tuple(alphas))
        n = len(cut.replicates)
        assert 1 <= n <= B and cut.B == B
        assert n == B or n % rows == 0
        assert cut.statistic == full.statistic
        assert np.array_equal(cut.replicates, full.replicates[:n])
        for a in alphas:
            assert decide(cut.statistic, cut.replicates, a, B)[2] == decide(full.statistic, full.replicates, a)[2]
        if n > rows:  # one block fewer left some level open
            with pytest.raises(ValueError, match="open"):
                for a in alphas:
                    decide(full.statistic, full.replicates[: n - rows], a, B)


class TestStatisticRowProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        T=st.integers(16, 96),
        N=st.sampled_from([4, 6, 8]),
        R=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(-100.0, 100.0),
        log_c=st.floats(-5.0, 5.0),
        estimator=st.sampled_from(ESTIMATORS),
    )
    def test_row_equals_batch_of_one(self, T, N, R, seed, a, log_c, estimator):
        # the observed series goes through _statistics as a batch of one row
        if estimator == "local":
            T -= T % N
        grid, _ = sieve._layout(T, N, estimator)
        rows = a + 10.0**log_c * np.random.default_rng(seed).standard_normal((R, T))
        batch = sieve._statistics(rows, grid)
        for i in range(R):
            assert batch[i] == sieve._statistics(rows[i : i + 1], grid)[0]


class TestPreStatisticProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        T=st.integers(8, 80),
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(-1e3, 1e3),
        log_c=st.floats(-3.0, 3.0),
        negative=st.booleans(),
    )
    def test_statistic_equals_oracle_composition(self, T, seed, a, log_c, negative):
        c = -(10.0**log_c) if negative else 10.0**log_c
        x = a + c * np.random.default_rng(seed).standard_normal(T)
        expected = sup_statistic(distance_values(take_pre_periodogram_matrix(x), T * T), T)
        assert run_test(x, B=19, estimator="pre").statistic == float(expected)


class TestDecision:
    def test_order_statistic_index(self):
        assert order_statistic_index(200, 0.05) == 190
        assert order_statistic_index(200, 0.10) == 180
        assert order_statistic_index(1000, 0.05) == 950
        with pytest.raises(ValueError):
            order_statistic_index(10, 0.999)

    def test_critical_value_is_order_statistic(self):
        rng = np.random.default_rng(8)
        reps = rng.exponential(size=200)
        crit, p_value, reject = decide(0.5, reps, 0.05)
        assert crit == np.sort(reps)[189]
        assert p_value == (1 + np.sum(reps >= 0.5)) / 201
        assert reject == (0.5 > crit)

    def test_critical_value_monotone_in_confidence(self):
        rng = np.random.default_rng(9)
        reps = rng.exponential(size=500)
        crits = [decide(1.0, reps, a)[0] for a in (0.20, 0.10, 0.05, 0.01)]
        assert all(c2 >= c1 for c1, c2 in zip(crits, crits[1:]))

    def test_pvalue_in_unit_interval(self):
        reps = np.linspace(0, 1, 99)
        for stat in (-1.0, 0.5, 2.0):
            _, p, _ = decide(stat, reps, 0.05)
            assert 0 < p <= 1

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        B=st.integers(1, 60),
        alpha=st.floats(0.001, 0.999),
        values=st.sampled_from([[0.0, 1.0, 2.0], [0.5, 0.5, 3.0], list(np.linspace(-1, 1, 9))]),
    )
    def test_count_rule_and_curtailed_prefixes(self, data, B, alpha, values):
        # replicates and statistic from a few values, so ties are common
        assume(1 <= int(np.floor((1.0 - alpha) * B + 1e-9)) <= B)
        reps = np.array(data.draw(st.lists(st.sampled_from(values), min_size=B, max_size=B)))
        stat = data.draw(st.sampled_from(values))
        k = order_statistic_index(B, alpha)
        kth = np.sort(reps)[k - 1]
        critical, p_value, reject = decide(stat, reps, alpha)
        assert (critical, p_value) == (kth, (1 + np.sum(reps >= stat)) / (B + 1))
        assert reject == (stat > kth)  # the count rule is the sort rule
        for n in range(1, B + 1):
            below = int(np.sum(reps[:n] < stat))
            if below >= k or n - below > B - k:  # k lie below, or more than B - k at or above
                expected = (critical, p_value, reject) if n == B else (None, None, reject)
                assert decide(stat, reps[:n], alpha, B) == expected
            else:
                with pytest.raises(ValueError, match=f"{n} of B={B} replicates leave the decision .* open"):
                    decide(stat, reps[:n], alpha, B)

    def test_prefix_decision_pinned(self):
        # at B=200 and 5 %, k=190: 11 replicates at or above the statistic fix
        # acceptance, 10 do not; the critical value and p-value of a prefix are None
        assert decide(1.0, np.full(11, 2.0), 0.05, 200) == (None, None, False)
        with pytest.raises(ValueError, match="^10 of B=200 replicates leave the decision at alpha=0.05 open$"):
            decide(1.0, np.full(10, 2.0), 0.05, 200)
        # at B=20 and 5 %, k=19: 19 replicates below fix rejection
        assert decide(1.0, np.zeros(19), 0.05, 20) == (None, None, True)
        with pytest.raises(ValueError, match="^21 replicates exceed B=20$"):
            decide(1.0, np.zeros(21), 0.05, 20)


class TestRunTest:
    def test_result_invariants(self):
        x = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=10)
        res = run_test(x, N=16, B=200, alpha=0.05, seed=11)
        assert res.critical_value == np.sort(res.replicates)[189]
        assert res.reject == (res.statistic > res.critical_value)
        assert res.p_value == pytest.approx(
            (1 + np.sum(res.replicates >= res.statistic)) / 201
        )
        assert (res.N, res.M, res.T) == (16, 8, 128)
        assert res.order >= 1

    def test_default_window_used(self):
        x = simulate(StationaryMA(), 256, seed=12)
        res = run_test(x, B=99, seed=13)
        assert res.N == 32  # even divisor of 256 closest to 256**0.625 = 32

    def test_truncation_warns(self):
        x = simulate(StationaryMA(), 130, seed=14)
        with pytest.warns(UserWarning, match="truncating"):
            res = run_test(x, N=16, B=99, seed=15)
        assert res.T == 128

    def test_pre_estimator(self):
        x = simulate(StationaryMA(), 64, seed=16)
        res = run_test(x, B=99, seed=17, estimator="pre")
        assert res.N is None and res.M is None
        assert res.T == 64
        assert res.statistic > 0

    def test_alpha_validation(self):
        x = simulate(StationaryMA(), 64, seed=18)
        with pytest.raises(ValueError):
            run_test(x, N=8, B=99, alpha=1.5)

    @pytest.mark.parametrize("N", [8.9, 16.5])
    def test_fractional_window_rejected(self, N):
        x = simulate(StationaryMA(), 128, seed=18)
        with pytest.raises(BadWindowError, match=rf"^N must be an even integer >= 4, got {N}$"):
            run_test(x, N=N, B=9)

    @pytest.mark.parametrize("N", ["abc", "8", b"8"], ids=["letters", "digits", "bytes"])
    def test_non_number_window_rejected(self, N):
        x = simulate(StationaryMA(), 64, seed=18)
        with pytest.raises(BadWindowError, match=rf"^N must be an even integer >= 4, got {re.escape(repr(N))}$"):
            run_test(x, N=N, B=9)

    @pytest.mark.parametrize(
        "alpha", ["0.05", b"0.05", None, [0.05], np.array([0.05, 0.1])], ids=["digits", "bytes", "none", "list", "array"]
    )
    def test_non_number_level_names_alpha(self, alpha):
        x = simulate(StationaryMA(), 64, seed=18)
        message = rf"^alpha must be in \(0, 1\), got {re.escape(repr(alpha))}$"
        with pytest.raises(ValueError, match=message):
            run_test(x, N=8, B=19, alpha=alpha)
        with pytest.raises(ValueError, match=message):
            sieve.bootstrap_draws(x, N=8, B=19, alphas=(0.1, alpha))
        with pytest.raises(ValueError, match=message):
            decide(1.0, np.zeros(19), alpha)

    def test_scalar_levels_rejected(self):
        # ExperimentConfig's rule, through the same code
        x = simulate(StationaryMA(), 64, seed=18)
        with pytest.raises(ValueError, match=r"^alphas must be a sequence of levels, got 0\.05$"):
            sieve.bootstrap_draws(x, N=8, B=19, alphas=0.05)

    @pytest.mark.parametrize("N", [16.0, np.int64(16)])
    def test_integral_window_of_any_type_accepted(self, N):
        x = simulate(StationaryMA(), 128, seed=18)
        got, want = run_test(x, N=N, B=9), run_test(x, N=16, B=9)
        assert type(got.N) is int
        for name, value in vars(want).items():
            assert np.array_equal(getattr(got, name), value), name

    def test_estimator_validation(self):
        x = simulate(StationaryMA(), 64, seed=18)
        with pytest.raises(ValueError):
            run_test(x, N=8, B=99, estimator="welch")

    def test_nonfinite_rejected(self):
        x = np.r_[np.ones(63), np.nan]
        with pytest.raises(ValueError, match="non-finite"):
            run_test(x, N=8, B=99)

    def test_inadmissible_order_statistic_rejected_before_drawing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("bootstrap_draws called")

        monkeypatch.setattr(sieve, "bootstrap_draws", fail)
        x = simulate(StationaryMA(), 64, seed=18)
        with pytest.raises(ValueError, match=r"^alpha=0\.95 with B=10 leaves no admissible order statistic$"):
            run_test(x, N=8, B=10, alpha=0.95)
        with pytest.raises(ValueError, match=r"^B must be at least 1, got 0$"):
            run_test(x, N=8, B=0)

    def test_deterministic_in_seed(self):
        x = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=19)
        a = run_test(x, N=16, B=150, seed=20)
        b = run_test(x, N=16, B=150, seed=20)
        assert a.statistic == b.statistic
        assert np.array_equal(a.replicates, b.replicates)

    def test_replicates_independent_of_batching(self):
        # replicate i depends only on seed ^ i: running with larger B keeps
        # the earlier replicates identical
        x = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=21)
        small = run_test(x, N=16, B=100, seed=22)
        large = run_test(x, N=16, B=200, seed=22)
        assert np.array_equal(small.replicates, large.replicates[:100])

    def test_statistic_matches_brute_force_pipeline(self):
        # observed statistic recomputed start to finish from the literal
        # definitions (direct-summation periodogram, double-sum contrast)
        from oracles import naive_distance_value, naive_local_periodogram

        T, N = 32, 8
        M, halfN = T // N, N // 2
        x = simulate(StationaryAR(coeffs=(0.5,)), T, seed=23)
        res = run_test(x, N=N, B=99, seed=24)
        I = np.empty((M, halfN))
        for j in range(M):
            for k in range(1, halfN + 1):
                I[j, k - 1] = naive_local_periodogram(x, N, N * j + N // 2, 2 * np.pi * k / N)
        brute = max(
            abs(naive_distance_value(I, T, j, k))
            for j in range(1, M + 1)
            for k in range(1, halfN + 1)
        )
        assert res.statistic == pytest.approx(np.sqrt(T) * brute, abs=1e-10)

    def test_pvalue_uniform_under_null(self):
        # coarse uniformity of bootstrap p-values over repeated white-noise tests
        pvals = np.empty(300)
        for i in range(300):
            x = simulate(StationaryMA(), 128, seed=70_000 + i)
            pvals[i] = run_test(x, N=16, B=200, seed=70_000 + i).p_value
        freq, _ = np.histogram(pvals, bins=np.linspace(0, 1, 11))
        freq = freq / 300
        assert np.all(freq >= 0.04)
        assert np.all(freq <= 0.18)


class TestResultIsDrawsPlusDecision:
    """`run_test` is `bootstrap_draws` followed by `decide`, field by field."""

    @pytest.mark.parametrize("estimator,T,N", [("local", 128, 16), ("pre", 64, None)])
    def test_fields_equal_draws_plus_decision(self, estimator, T, N):
        x = simulate(StationaryAR(coeffs=(0.5,)), T, seed=23)
        result = run_test(x, N=N, B=49, alpha=0.1, seed=24, estimator=estimator)
        draws = sieve.bootstrap_draws(x, N=N, B=49, seed=24, estimator=estimator)
        assert isinstance(result, sieve.TestDraws)
        for name, value in vars(draws).items():
            assert np.array_equal(getattr(result, name), value), name
        critical, p_value, reject = decide(draws.statistic, draws.replicates, 0.1)
        assert (result.alpha, result.critical_value, result.p_value, result.reject) == (
            0.1, critical, p_value, reject,
        )
        assert list(vars(result)) == list(vars(draws)) + ["alpha", "critical_value", "p_value", "reject"]

    def test_one_alpha_rule(self):
        x = simulate(StationaryMA(), 64, seed=18)
        with pytest.raises(ValueError) as from_test:
            run_test(x, N=8, B=99, alpha=1.5)
        with pytest.raises(ValueError) as from_config:
            ExperimentConfig(model=StationaryMA(), T=64, runs=50, alphas=(0.05, 1.5))
        assert str(from_test.value) == str(from_config.value) == "alpha must be in (0, 1), got 1.5"


class TestWarningLocation:
    """The truncation warning names the caller's line, not the package's."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: run_test(x, N=16, B=9),
            lambda x: sieve.bootstrap_draws(x, N=16, B=9),
            lambda x: sieve.distance_process(x, 16),
            lambda x: make_grid(x.shape[0], 16),
        ],
        ids=["run_test", "bootstrap_draws", "distance_process", "make_grid"],
    )
    def test_warning_names_this_file(self, call):
        x = simulate(StationaryMA(), 130, seed=14)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(x)
        assert [w.filename for w in caught] == [__file__]
        assert "truncating tail to T=128" in str(caught[0].message)


class TestDrawsInputChecks:
    def test_two_dimensional_series(self):
        with pytest.raises(ValueError, match=r"^series must be one-dimensional$"):
            sieve.bootstrap_draws(np.ones((8, 8)), B=9)

    @pytest.mark.parametrize("B", [0, -2, 99.5])
    def test_replicates_positive(self, B):
        x = simulate(StationaryMA(), 64, seed=18)
        rule = "be an integer" if B % 1 else "be at least 1"
        with pytest.raises(ValueError, match=rf"^B must {rule}, got {B}$"):
            sieve.bootstrap_draws(x, N=8, B=B)
        with pytest.raises(ValueError, match=rf"^B must {rule}, got {B}$"):
            run_test(x, N=8, B=B)

    def test_whole_float_replicate_count(self):
        # make_grid's rule for T and N: a whole float is that integer
        x = simulate(StationaryMA(), 64, seed=18)
        whole, as_float = run_test(x, N=8, B=100, seed=3), run_test(x, N=8, B=100.0, seed=3)
        assert as_float.B == 100 and type(as_float.B) is int
        assert np.array_equal(as_float.replicates, whole.replicates)
        assert as_float.p_value == whole.p_value

    def test_short_pre_series(self):
        with pytest.raises(ValueError, match=r"^series too short: T=7$"):
            sieve.bootstrap_draws(np.arange(7.0), B=9, estimator="pre")

    @pytest.mark.parametrize(
        "name, settings",
        [("seed", {"seed": 1.5}), ("p_min", {"p_min": 1.5, "p_max": 2}), ("p_max", {"p_min": 1, "p_max": 2.5})],
        ids=["seed", "p_min", "p_max"],
    )
    def test_fractional_integer_argument_names_it(self, name, settings):
        x = simulate(StationaryMA(), 64, seed=18)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {settings[name]}$"):
            run_test(x, N=8, B=19, alpha=0.1, **settings)

    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param(name, value, id=f"{name}-{kind}")
            for name in ("B", "seed", "p_min", "p_max")
            for kind, value in {"digits": "3", "bytes": b"3", "none": None, "letters": "abc"}.items()
            if not (value is None and name.startswith("p_"))
        ],
    )
    def test_non_number_integer_argument_names_it(self, name, value):
        # a string that reads as a number is not one, in the library as in the harness; None is
        # no count either, except for an order, where it asks for the default range
        x = simulate(StationaryMA(), 64, seed=18)
        settings = {"B": 19, "seed": 3, "p_min": 1, "p_max": 3, name: value}
        message = rf"^{name} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            run_test(x, N=8, alpha=0.1, **settings)
        with pytest.raises(ValueError, match=message):
            sieve.bootstrap_draws(x, N=8, **settings)

    def test_whole_float_seed_and_orders(self):
        x = simulate(StationaryMA(), 64, seed=18)
        whole = run_test(x, N=8, B=19, alpha=0.1, seed=3, p_min=1, p_max=3)
        as_float = run_test(x, N=8, B=19, alpha=0.1, seed=3.0, p_min=1.0, p_max=3.0)
        assert as_float.seed == 3 and type(as_float.seed) is int
        assert np.array_equal(as_float.replicates, whole.replicates)
        assert (as_float.statistic, as_float.order) == (whole.statistic, whole.order)

    def test_batch_seeds_checked(self):
        X = np.vstack([simulate(StationaryMA(), 64, seed=s) for s in (18, 19)])
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.5$"):
            sieve.bootstrap_draws(X, N=8, B=9, seed=[1, 2.5])
        with pytest.raises(ValueError, match=r"^a batch needs one seed per series, got 3 seeds for 2 series$"):
            sieve.bootstrap_draws(X, N=8, B=9, seed=[1, 2, 3])
        with pytest.raises(ValueError, match=r"^a batch of series must be two-dimensional$"):
            sieve.bootstrap_draws(X[0], N=8, B=9, seed=[1])
        with pytest.raises(ValueError, match=r"^seed must be an integer, got \[1, 2\]$"):
            run_test(X, N=8, B=9, alpha=0.2, seed=[1, 2])  # a test has one series and one seed


class TestBatchDrawProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        T=st.integers(16, 96),
        R=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        B=st.integers(10, 60),
        alphas=st.sampled_from([(), (0.05,), (0.1, 0.5)]),
        estimator=st.sampled_from(ESTIMATORS),
    )
    def test_batch_equals_per_series_draws(self, T, R, seed, B, alphas, estimator):
        # each row's draw is its own call's, field by field, curtailed or not
        rng = np.random.default_rng(seed)
        X = 10.0 ** rng.uniform(-3, 3, (R, 1)) * rng.standard_normal((R, T - T % 8))
        seeds = [int(s) for s in rng.integers(0, 2**63, R)]
        batch = sieve.bootstrap_draws(X, N=8, B=B, seed=seeds, estimator=estimator, alphas=alphas)
        assert len(batch) == R
        for x, s, got in zip(X, seeds, batch):
            want = sieve.bootstrap_draws(x, N=8, B=B, seed=s, estimator=estimator, alphas=alphas)
            assert type(got) is sieve.TestDraws and vars(got).keys() == vars(want).keys()
            for name, value in vars(want).items():
                assert type(getattr(got, name)) is type(value)
                assert np.array_equal(getattr(got, name), value), name


class TestSurfaceIsStatistic:
    """`distance_process` and `bootstrap_draws` share one path from series to statistic."""

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("T,N", [(128, 16), (130, 16)])
    def test_sup_stat_equals_observed_statistic(self, estimator, T, N):
        x = simulate(StationaryAR(coeffs=(0.5,)), T, seed=21)
        with warnings.catch_warnings(record=True) as surface_warnings:
            warnings.simplefilter("always")
            proc = sieve.distance_process(x, N, estimator)
        with warnings.catch_warnings(record=True) as draws_warnings:
            warnings.simplefilter("always")
            draws = sieve.bootstrap_draws(x, N=N, B=1, estimator=estimator)
        assert proc.sup_stat == draws.statistic
        messages = [str(w.message) for w in surface_warnings]
        assert messages == [str(w.message) for w in draws_warnings]
        if estimator == "local" and T % N:
            assert messages == [f"series length {T} not divisible by N={N}; truncating tail to T=128"]
        else:
            assert messages == []


class TestSurfaceOverflow:
    """A constant series passes the range check; a level that overflows the estimates raises
    (`tests/test_cli.py::TestSurface::test_zero_variance_input` keeps 1.0's zero surface)."""

    @pytest.mark.parametrize(
        "value, T, N, estimator",
        [(1e308, 64, 8, "local"), (1e300, 112, 14, "local"), (1e200, 64, None, "pre")],
        ids=["1e308-N8", "1e300-N14", "1e200-pre"],
    )
    def test_overflowing_constant_raises(self, value, T, N, estimator):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                sieve.distance_process(np.full(T, value), N, estimator)
        assert not isinstance(info.value, DegenerateSeriesError)
        assert str(info.value) == (
            f"the series' spectral estimates overflow float64 (max |x| = {value:.3g}); rescale the series"
        )


class TestLevelOverflow:
    """A level far above the spread passes the range check, but overflows the spectral estimates
    of the observed series (pre) or of its replicates (local): every statistic raises like the
    surface, instead of a nan statistic or critical value."""

    @pytest.mark.parametrize("level", [1e160, 1e155])
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("draw", ["run_test", "full", "curtailed", "batch"])
    def test_overflowing_level_raises(self, level, estimator, draw):
        z = simulate(StationaryAR(coeffs=(0.5,)), 128, seed=3)
        x = level + 1e150 * z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                if draw == "run_test":
                    run_test(x, N=16, B=19, alpha=0.1, estimator=estimator)
                elif draw == "batch":
                    sieve.bootstrap_draws(np.array([z, x]), N=16, B=19, seed=[1, 2], estimator=estimator, alphas=(0.1,))
                else:
                    alphas = (0.1,) if draw == "curtailed" else ()
                    sieve.bootstrap_draws(x, N=16, B=19, seed=1, estimator=estimator, alphas=alphas)
        assert not isinstance(info.value, DegenerateSeriesError)
        assert str(info.value) == (
            f"the series' spectral estimates overflow float64 (max |x| = {level:.3g}); rescale the series"
        )


class TestDefaultWindow:
    @pytest.mark.parametrize("T,expect", [(128, 16), (256, 32), (512, 64), (64, 16)])
    def test_divisor_rule(self, T, expect):
        # closest even divisor to T^(5/8) within [T^(1/2), T^(3/4)]
        assert default_window(T) == expect

    def test_prime_length_falls_back(self):
        N = default_window(257)
        assert N % 2 == 0
        assert 257**0.5 <= N <= 257**0.75

    def test_one_pass_rule_matches_three_pass_rule(self):
        for T in range(1, 4097):
            try:
                expect = three_pass_default_window(T)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    default_window(T)
            else:
                assert default_window(T) == expect, T
