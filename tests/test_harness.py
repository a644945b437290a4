import json
import os

import numpy as np
import pytest

from lsts import (
    ExperimentConfig,
    ScaledNoise,
    StationaryAR,
    StationaryMA,
    TvAR1Sqrt,
    harness,
    run_experiment,
    run_test,
    sieve,
    simulate,
)
from lsts._seeds import run_seed, splitmix64


class TestConfigValidation:
    def test_minimum_runs(self):
        with pytest.raises(ValueError, match="50"):
            ExperimentConfig(model=StationaryMA(), T=64, runs=10)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model=StationaryMA(), T=64, runs=50, alphas=(0.05, 1.0))
        with pytest.raises(ValueError):
            ExperimentConfig(model=StationaryMA(), T=64, runs=50, alphas=())

    def test_estimator_name(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model=StationaryMA(), T=64, runs=50, estimator="smoothed")

    @pytest.mark.parametrize("B", [0, -3])
    def test_replicates_positive(self, B):
        with pytest.raises(ValueError, match=f"B must be at least 1, got {B}"):
            ExperimentConfig(model=StationaryMA(), T=64, runs=50, B=B)

    def test_pre_reports_no_window(self):
        # the pre estimator ignores N, so its report must not show one
        cfg = ExperimentConfig(model=StationaryMA(), T=32, runs=50, N=16, B=19, estimator="pre")
        assert cfg.N is None
        report = run_experiment(cfg)
        assert report.to_dict()["N"] is None
        assert report.format_table().splitlines()[2].split()[:3] == ["32", "-", "-"]

    def test_omitted_window_reported_from_runs(self):
        # N is resolved per run by the window rule, not in the config, so that
        # replace(cfg, T=...) does not carry one length's window to another
        cfg = ExperimentConfig(model=StationaryMA(), T=128, runs=50, B=19)
        assert cfg.N is None
        report = run_experiment(cfg)
        assert (report.N, report.M) == (16, 8)
        assert report.to_dict()["N"] == 16
        assert report.format_table().splitlines()[2].split()[:3] == ["128", "16", "8"]

    def test_every_alpha_has_an_order_statistic(self):
        # floor(0.95 * 10) = 9 is admissible, floor(0.05 * 10) = 0 is not
        ExperimentConfig(model=StationaryMA(), T=64, runs=50, B=10, alphas=(0.05,))
        with pytest.raises(ValueError, match="alpha=0.95 with B=10"):
            ExperimentConfig(model=StationaryMA(), T=64, runs=50, B=10, alphas=(0.05, 0.95))
        with pytest.raises(ValueError, match="alpha=0.05 with B=1"):
            ExperimentConfig(model=StationaryMA(), T=64, runs=50, B=1)


class TestSeedDerivation:
    def test_splitmix_is_stable(self):
        # frozen values pin the seed schedule: changing it would silently
        # re-randomize every experiment
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465

    def test_run_seeds_distinct(self):
        seeds = {run_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(
        model=StationaryAR(coeffs=(0.5,)), T=64, runs=50, N=8, B=100, alphas=(0.05, 0.10), seed=3
    )
    return cfg, run_experiment(cfg)


class TestRunExperiment:
    def test_bookkeeping(self, small_report):
        cfg, report = small_report
        for a in cfg.alphas:
            rate = report.rejection_rates[a]
            assert 0.0 <= rate <= 1.0
            assert rate == report.rejection_counts[a] / cfg.runs
            assert report.standard_errors[a] == pytest.approx(
                np.sqrt(rate * (1 - rate) / cfg.runs)
            )
        assert report.statistics.shape == (cfg.runs,)
        assert np.all(report.statistics >= 0)
        assert report.wall_time > 0

    def test_deterministic(self, small_report):
        cfg, report = small_report
        again = run_experiment(cfg)
        assert again.rejection_rates == report.rejection_rates
        assert np.array_equal(again.statistics, report.statistics)

    def test_parallel_schedule_invariant(self, small_report):
        cfg, report = small_report
        parallel = run_experiment(cfg, n_jobs=2)
        assert parallel.rejection_rates == report.rejection_rates
        assert np.array_equal(parallel.statistics, report.statistics)

    def test_rates_nested_in_alpha(self, small_report):
        _, report = small_report
        assert report.rejection_rates[0.05] <= report.rejection_rates[0.10]

    def test_json_roundtrip(self, small_report):
        cfg, report = small_report
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["runs"] == cfg.runs
        assert payload["model"].startswith("ar(")
        assert payload["rejection_rates"]["0.05"] == report.rejection_rates[0.05]
        assert len(payload["statistics"]) == cfg.runs

    def test_table_format(self, small_report):
        cfg, report = small_report
        table = report.format_table()
        assert "T" in table and "64" in table
        assert f"runs={cfg.runs}" in table

    def test_failed_run_reports_seed(self):
        cfg = ExperimentConfig(model=StationaryMA(), T=64, runs=50, N=7, seed=0)  # odd N
        for n_jobs in (1, 2):  # a worker's failure reaches the caller with the same message
            with pytest.raises(RuntimeError, match=r"run 0 \(seed \d+\)"):
                run_experiment(cfg, n_jobs=n_jobs)

    def test_workers_capped_at_cpu_count(self, monkeypatch, small_report):
        # one CPU: n_jobs=64 must run every run in this process, so the counting
        # binding sees them all and no worker process starts
        cfg, report = small_report
        calls, bootstrap_draws = [], harness.bootstrap_draws

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"])
            return bootstrap_draws(*args, **kwargs)

        monkeypatch.setattr(harness, "bootstrap_draws", counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        capped = run_experiment(cfg, n_jobs=64)
        assert calls == [run_seed(cfg.seed, i) for i in range(cfg.runs)]
        assert np.array_equal(capped.statistics, report.statistics)

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(model=StationaryAR(coeffs=(0.5,)), T=64, runs=50, N=8, B=39, seed=5),
            ExperimentConfig(model=ScaledNoise(), T=32, runs=50, B=39, estimator="pre", seed=5),
        ],
        ids=["local", "pre"],
    )
    def test_runs_match_run_test(self, cfg):
        # each run is run_test on the run's own simulated series and seed; a run's
        # draw may stop early, so it holds a prefix of run_test's replicates
        report = run_experiment(cfg)
        counts = {a: 0 for a in cfg.alphas}
        for i in range(cfg.runs):
            seed_i = run_seed(cfg.seed, i)
            x = simulate(cfg.model, cfg.T, seed_i)
            draws = harness._single_run(cfg, i)
            assert isinstance(draws, sieve.TestDraws)
            assert len(draws.replicates) <= draws.B
            for a in cfg.alphas:
                result = run_test(x, N=cfg.N, B=cfg.B, alpha=a, seed=seed_i, estimator=cfg.estimator)
                assert report.statistics[i] == draws.statistic == result.statistic
                assert np.array_equal(draws.replicates, result.replicates[: len(draws.replicates)])
                assert sieve.decide(draws.statistic, draws.replicates, a, draws.B)[2] == result.reject
                counts[a] += result.reject
        assert report.rejection_counts == counts

    @pytest.mark.parametrize(
        "cfg, n_jobs",
        [
            (ExperimentConfig(model=StationaryAR(coeffs=(0.5,)), T=64, runs=50, N=8, B=99, seed=7), 1),
            (ExperimentConfig(model=TvAR1Sqrt(), T=128, runs=50, N=16, B=99, alphas=(0.1,), seed=7), 2),
            (ExperimentConfig(model=StationaryAR(coeffs=(0.5,)), T=32, runs=50, B=39, alphas=(0.1,),
                              estimator="pre", seed=7), 2),
            (ExperimentConfig(model=ScaledNoise(), T=64, runs=50, B=39, estimator="pre", seed=7), 1),
        ],
        ids=["null-local-two-levels-serial", "alt-local-one-level-two-jobs",
             "null-pre-one-level-two-jobs", "alt-pre-two-levels-serial"],
    )
    def test_curtailed_report_equals_full_draws(self, cfg, n_jobs):
        # the report is rebuilt from full run_test-style draws and the
        # order-statistic rule; only wall_time may differ
        report = run_experiment(cfg, n_jobs=n_jobs)
        counts = {a: 0 for a in cfg.alphas}
        statistics = []
        for i in range(cfg.runs):
            seed_i = run_seed(cfg.seed, i)
            x = simulate(cfg.model, cfg.T, seed_i)
            full = sieve.bootstrap_draws(x, N=cfg.N, B=cfg.B, seed=seed_i, estimator=cfg.estimator)
            assert len(full.replicates) == cfg.B
            assert len(harness._single_run(cfg, i).replicates) <= cfg.B
            statistics.append(full.statistic)
            for a in cfg.alphas:
                counts[a] += sieve.decide(full.statistic, full.replicates, a)[2]
        rates = {a: counts[a] / cfg.runs for a in cfg.alphas}
        assert report.config is cfg
        assert (report.N, report.M) == (full.N, full.M)
        assert report.rejection_counts == counts
        assert report.rejection_rates == rates
        assert report.standard_errors == {
            a: float(np.sqrt(rates[a] * (1.0 - rates[a]) / cfg.runs)) for a in cfg.alphas
        }
        assert report.statistics.tobytes() == np.array(statistics).tobytes()

    def test_curtailment_saves_replicates(self):
        # mc-local's cell: a null run stops once enough replicates lie above
        cfg = ExperimentConfig(model=StationaryAR(coeffs=(0.5,)), T=128, runs=100, N=16, B=200, seed=0)
        drawn = [len(harness._single_run(cfg, i).replicates) for i in range(cfg.runs)]
        assert max(drawn) <= cfg.B
        assert sum(drawn) < 0.6 * cfg.runs * cfg.B

    def test_tvar_alternative_detected(self):
        # time-varying AR coefficient at T=128: published rate 0.396, and a
        # one-sided desk-scale bound absorbs Monte Carlo noise
        cfg = ExperimentConfig(
            model=TvAR1Sqrt(), T=128, N=16, B=200, runs=200, alphas=(0.05,), seed=0
        )
        report = run_experiment(cfg)
        assert report.rejection_rates[0.05] >= 0.30

    def test_order_range_override(self):
        cfg = ExperimentConfig(
            model=StationaryAR(coeffs=(0.5,)), T=64, runs=50, N=8, B=100,
            alphas=(0.05,), seed=3, p_min=2, p_max=3,
        )
        report = run_experiment(cfg)
        assert 0.0 <= report.rejection_rates[0.05] <= 1.0
