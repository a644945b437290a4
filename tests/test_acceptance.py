"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo criteria
use fixed seeds and finish in a few minutes on a single core.
"""

import json

import numpy as np

from lsts import (
    ExperimentConfig,
    PiecewiseAR1,
    ScaledNoise,
    StationaryAR,
    StationaryMA,
    make_grid,
    pre_periodogram,
    run_experiment,
    simulate,
    stationary_periodogram_all,
    true_distance,
)
from lsts import sieve
from lsts.cli import main as cli_main
from lsts.empirical import distance_values
from lsts.sieve import aic_select, autocovariance, bootstrap_draws, decide
from oracles import (
    distance_at,
    limit_sup_samples,
    naive_distance_value,
    naive_local_periodogram,
    naive_pre_periodogram,
    naive_stationary_periodogram,
    rounded_pre_periodogram_matrix,
    toeplitz_yule_walker,
)

TWO_PI = 2.0 * np.pi


def report(number, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"\ncriterion {number:2d} ({name}): {verdict} - {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_level_ar_half():
    cfg = ExperimentConfig(
        model=StationaryAR(coeffs=(0.5,)), T=128, N=16, B=200, runs=500, alphas=(0.05,), seed=0
    )
    rate = run_experiment(cfg).rejection_rates[0.05]
    report(
        1,
        "level, AR(1) phi=0.5, T=128, N=16, 5%",
        0.004 <= rate <= 0.064,
        f"rate={rate:.3f}, reference 0.034, band [0.004, 0.064]",
    )


def test_criterion_2_level_white_noise():
    cfg = ExperimentConfig(model=StationaryAR(), T=256, N=16, B=200, runs=500, alphas=(0.10,), seed=0)
    rate = run_experiment(cfg).rejection_rates[0.10]
    report(
        2,
        "level, white noise, T=256, N=16, 10%",
        0.045 <= rate <= 0.125,
        f"rate={rate:.3f}, reference 0.085, band [0.045, 0.125]",
    )


def test_criterion_3_power_variance_ramp():
    cfg = ExperimentConfig(model=ScaledNoise(), T=128, N=16, B=200, runs=200, alphas=(0.05,), seed=0)
    rate = run_experiment(cfg).rejection_rates[0.05]
    report(
        3,
        "power, variance-ramp alternative, T=128, N=16, 5%",
        rate >= 0.55,
        f"rate={rate:.3f}, reference 0.686, bound >= 0.55",
    )


def test_criterion_4_power_piecewise():
    cfg = ExperimentConfig(model=PiecewiseAR1(), T=256, N=16, B=200, runs=200, alphas=(0.05,), seed=0)
    rate = run_experiment(cfg).rejection_rates[0.05]
    report(
        4,
        "power, piecewise-AR alternative, T=256, N=16, 5%",
        rate >= 0.50,
        f"rate={rate:.3f}, reference 0.640, bound >= 0.50",
    )


def test_criterion_5_estimator_ranking(monkeypatch):
    # matched seeds: all three experiments share seed 0, so run i tests the
    # very same simulated series under each statistic.  The published pre
    # column matches the reading of the half-lag indices as round(t +- k/2),
    # half to even, which pairs only even positions at odd lags.  PiecewiseAR1
    # is AR(1) phi=0.5 with its second half multiplied by (-1)^t, so its break
    # lives only in the odd lags: that reading cannot see it, the package's
    # floor reading can.  n_jobs=1 keeps the patched binding in this process.
    cfg_local = ExperimentConfig(
        model=PiecewiseAR1(), T=128, N=8, B=200, runs=200, alphas=(0.05,), seed=0
    )
    cfg_pre = ExperimentConfig(
        model=PiecewiseAR1(), T=128, B=200, runs=200, alphas=(0.05,), estimator="pre", seed=0
    )
    local_rate = run_experiment(cfg_local, n_jobs=1).rejection_rates[0.05]
    pre_rate = run_experiment(cfg_pre, n_jobs=1).rejection_rates[0.05]

    calls = 0

    def counted_rounded(x):
        nonlocal calls
        calls += 1
        return rounded_pre_periodogram_matrix(x)

    monkeypatch.setattr(sieve, "pre_periodogram_matrix", counted_rounded)
    rounded_rate = run_experiment(cfg_pre, n_jobs=1).rejection_rates[0.05]
    assert calls > 0, "the rounded-index oracle was never called by the pre test"

    report(
        5,
        "estimator ranking, piecewise-AR, T=128, 5%",
        rounded_rate <= local_rate - 0.15 and pre_rate >= rounded_rate + 0.15,
        f"rounded={rounded_rate:.3f}, local={local_rate:.3f}, pre={pre_rate:.3f}; required "
        f"rounded <= local - 0.15 (published ranking, references 0.036 vs 0.410) and "
        f"pre >= rounded + 0.15 (the package's floor reading keeps the odd lags)",
    )


def test_criterion_6_window_robustness():
    rates = []
    for N in (8, 16, 32):
        cfg = ExperimentConfig(model=ScaledNoise(), T=256, N=N, B=200, runs=200, alphas=(0.05,), seed=0)
        rates.append(run_experiment(cfg).rejection_rates[0.05])
    spread = max(rates) - min(rates)
    report(
        6,
        "window robustness, variance ramp, T=256, N in {8,16,32}, 5%",
        spread <= 0.10,
        f"rates={['%.3f' % r for r in rates]}, spread={spread:.3f}, bound 0.10 "
        f"(references 0.944/0.942/0.958)",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst_local = worst_pre = worst_stat = worst_dist = worst_lev = 0.0

    for T, N in [(64, 8), (48, 12), (64, 16)]:
        x = rng.standard_normal(T)
        grid = make_grid(T, N)
        vals = stationary_periodogram_all(x.reshape(grid.M, grid.N))
        for j in range(grid.M):
            t_mid = N * j + N // 2
            for k in range(N // 2):
                expect = naive_local_periodogram(x, N, t_mid, float(grid.frequencies[k]))
                worst_local = max(worst_local, abs(vals[j, k] - expect))

    x = rng.standard_normal(32)
    for t in range(1, 33):
        for k in range(1, 17):
            lam = TWO_PI * k / 32
            worst_pre = max(
                worst_pre, abs(pre_periodogram(x, t, lam) - naive_pre_periodogram(x, t, lam))
            )
    pgram = stationary_periodogram_all(x)
    for k in range(1, 17):
        worst_stat = max(worst_stat, abs(pgram[k - 1] - naive_stationary_periodogram(x, k)))

    for T, M, halfN in [(64, 8, 4), (128, 8, 8)]:
        I = rng.exponential(size=(M, halfN))
        vals = distance_values(I, T)
        for j in range(1, M + 1):
            for k in range(1, halfN + 1):
                worst_dist = max(
                    worst_dist, abs(vals[j - 1, k - 1] - naive_distance_value(I, T, j, k))
                )

    for p in (1, 4, 10):
        for T in (128, 256):
            y = simulate(StationaryAR(coeffs=(0.6, -0.2)), T, seed=100 + p + T)
            gamma = autocovariance(y, p)
            fit = aic_select(y, p, p)
            worst_lev = max(worst_lev, np.abs(fit.coeffs - toeplitz_yule_walker(gamma, p)).max())

    ok = worst_local < 1e-10 and worst_pre < 1e-10 and worst_stat < 1e-10
    ok = ok and worst_dist < 1e-12 and worst_lev < 1e-9
    report(
        7,
        "oracle equivalence suite",
        ok,
        f"max errors: local={worst_local:.2e} (tol 1e-10), pre={worst_pre:.2e} (1e-10), "
        f"stationary={worst_stat:.2e} (1e-10), distance={worst_dist:.2e} (1e-12), "
        f"levinson={worst_lev:.2e} (1e-9)",
    )


def test_criterion_8_algebraic_invariants():
    rng = np.random.default_rng(77)

    # distance process vanishes along v = 1 and omega = 0, exactly
    I = rng.exponential(size=(8, 4))
    vals = distance_values(I, 64)
    edge_zero = np.all(vals[-1] == 0.0)
    edge_zero = edge_zero and all(distance_at(I, 64, v, 0.0) == 0.0 for v in np.linspace(0, 1, 9))

    # stationary models have identically zero integrated distance
    worst_dist = 0.0
    for model in (StationaryAR(coeffs=(0.5,)), StationaryMA(coeffs=(0.9,))):
        for v in np.linspace(0, 1, 21):
            for w in np.linspace(0, 1, 21):
                worst_dist = max(worst_dist, abs(true_distance(model, v, w)))

    # Parseval identity for the local periodogram over the full frequency set
    T, N = 96, 8
    x = rng.standard_normal(T)
    grid = make_grid(T, N)
    pvals = stationary_periodogram_all(x.reshape(grid.M, grid.N))
    worst_pars = 0.0
    for j in range(grid.M):
        block = x[j * N : (j + 1) * N]
        dc = block.sum() ** 2 / (TWO_PI * N)
        full = pvals[j].sum() + pvals[j, :-1].sum() + dc
        worst_pars = max(worst_pars, abs((TWO_PI / N) * full - np.mean(block**2)))

    ok = edge_zero and worst_dist <= 1e-8 and worst_pars <= 1e-10
    report(
        8,
        "algebraic invariants",
        ok,
        f"edges zero={edge_zero}, max |distance| on stationary grid={worst_dist:.2e} (tol 1e-8), "
        f"parseval error={worst_pars:.2e} (tol 1e-10)",
    )


def test_criterion_9_bootstrap_vs_gaussian_limit():
    T, N, B = 512, 64, 1000
    grid = make_grid(T, N)
    crits = []
    for i in range(20):
        x = simulate(StationaryMA(), T, seed=50_000 + i)
        draws = bootstrap_draws(x, N=N, B=B, seed=50_000 + i)
        crits.append(decide(draws.statistic, draws.replicates, 0.05)[0])
    mean_crit = float(np.mean(crits))
    sups = limit_sup_samples(
        lambda lam: 1 / TWO_PI, grid.midpoints, grid.frequencies, 60_000, seed=9
    )
    limit_q = float(np.quantile(sups, 0.95))
    rel = abs(mean_crit / limit_q - 1.0)
    report(
        9,
        "bootstrap critical value vs Gaussian-limit quantile",
        rel < 0.15,
        f"mean bootstrap crit={mean_crit:.4f}, limit 95% quantile={limit_q:.4f}, "
        f"relative gap={rel:.3f} (tol 0.15)",
    )


def test_criterion_10_determinism(capsys, tmp_path):
    # library: identical reports for any worker count
    cfg = ExperimentConfig(model=StationaryAR(coeffs=(0.5,)), T=64, N=8, B=100, runs=50, seed=5)
    r1 = run_experiment(cfg, n_jobs=1)
    r2 = run_experiment(cfg, n_jobs=2)
    r3 = run_experiment(cfg, n_jobs=1)
    lib_ok = (
        np.array_equal(r1.statistics, r2.statistics)
        and np.array_equal(r1.statistics, r3.statistics)
        and r1.rejection_rates == r2.rejection_rates
    )

    # cli: byte-identical output under a fixed seed (timing metadata excluded)
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    sim1 = run(["simulate", "--model", "alt2", "--T", "64", "--seed", "9"])
    sim2 = run(["simulate", "--model", "alt2", "--T", "64", "--seed", "9"])
    data = tmp_path / "x.csv"
    data.write_text(sim1)
    surf1 = run(["surface", str(data), "--N", "8"])
    surf2 = run(["surface", str(data), "--N", "8"])
    t1 = json.loads(run(["test", str(data), "--N", "8", "--B", "100", "--seed", "2", "--format", "json"]))
    t2 = json.loads(run(["test", str(data), "--N", "8", "--B", "100", "--seed", "2", "--format", "json"]))
    del t1["timing"], t2["timing"]
    cli_ok = sim1 == sim2 and surf1 == surf2 and t1 == t2

    report(
        10,
        "bit-reproducibility under fixed seeds and any thread count",
        lib_ok and cli_ok,
        f"library identical across n_jobs: {lib_ok}; cli byte-identical: {cli_ok}",
    )
