"""Monte Carlo experiment runner for rejection-rate estimation.

Each run simulates a fresh series, applies the bootstrap test and tallies
rejections per nominal level.  A run's bootstrap stops as soon as its
decision at every level is fixed (curtailed Monte Carlo testing, Besag &
Clifford 1991), which gives the decisions of the full B replicates.  Run i
derives its seed through a splittable hash, so adding runs or distributing
them over processes never changes any individual result.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._seeds import run_seed
from .models import ModelSpec, simulate
from .sieve import ESTIMATORS, TestDraws, bootstrap_draws, decide, order_statistic_index


@dataclass
class ExperimentConfig:
    model: ModelSpec
    T: int
    runs: int
    N: int | None = None
    B: int = 200
    alphas: tuple[float, ...] = (0.05, 0.10)
    estimator: str = "local"
    seed: int = 0
    p_min: int | None = None
    p_max: int | None = None

    def __post_init__(self):
        self.alphas = tuple(float(a) for a in self.alphas)
        if self.runs < 50:
            raise ValueError(f"need at least 50 runs for a meaningful rate, got {self.runs}")
        if not self.alphas:
            raise ValueError("alphas must name at least one level")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "pre":  # window-free: report no N, as run_test does
            self.N = None
        for a in self.alphas:  # the (B, alpha) rule of run_test
            order_statistic_index(self.B, a)


@dataclass
class ExperimentReport:
    """Rates per alpha over the runs; N and M are the grid all runs shared, None for pre."""

    config: ExperimentConfig
    N: int | None
    M: int | None
    rejection_rates: dict[float, float]
    standard_errors: dict[float, float]
    rejection_counts: dict[float, int]
    statistics: np.ndarray = field(repr=False)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "model": cfg.model.label(),
            "T": cfg.T,
            "N": self.N,
            "B": cfg.B,
            "runs": cfg.runs,
            "estimator": cfg.estimator,
            "seed": cfg.seed,
            "rejection_rates": {f"{a:g}": r for a, r in self.rejection_rates.items()},
            "standard_errors": {f"{a:g}": s for a, s in self.standard_errors.items()},
            "rejection_counts": {f"{a:g}": c for a, c in self.rejection_counts.items()},
            "statistics": self.statistics.tolist(),
            "wall_time": self.wall_time,
        }

    def format_table(self) -> str:
        cfg = self.config
        n = "-" if self.N is None else str(self.N)
        m = "-" if self.M is None else str(self.M)
        lines = [
            f"model={cfg.model.label()} estimator={cfg.estimator} "
            f"B={cfg.B} runs={cfg.runs} seed={cfg.seed}",
            f"{'T':>6} {'N':>4} {'M':>4} "
            + " ".join(f"{100 * a:>7.3g}%" for a in cfg.alphas),
            f"{cfg.T:>6} {n:>4} {m:>4} "
            + " ".join(f"{self.rejection_rates[a]:>8.3f}" for a in cfg.alphas),
            f"{'(se)':>16} " + " ".join(f"{self.standard_errors[a]:>8.3f}" for a in cfg.alphas),
        ]
        return "\n".join(lines)


def _single_run(cfg: ExperimentConfig, index: int) -> TestDraws:
    seed_i = run_seed(cfg.seed, index)
    try:
        x = simulate(cfg.model, cfg.T, seed_i)
        return bootstrap_draws(
            x,
            N=cfg.N,
            B=cfg.B,
            p_min=cfg.p_min,
            p_max=cfg.p_max,
            seed=seed_i,
            estimator=cfg.estimator,
            alphas=cfg.alphas,
        )
    except Exception as exc:
        raise RuntimeError(f"run {index} (seed {seed_i}) failed: {exc}") from exc


def run_experiment(cfg: ExperimentConfig, n_jobs: int = 1) -> ExperimentReport:
    """Estimate rejection probabilities for the configuration.

    Runs go to up to n_jobs worker processes, at most os.cpu_count(); the
    report is identical for any worker count, since `map` keeps run order.
    """
    jobs = max(1, min(n_jobs, os.cpu_count() or 1))
    start = time.perf_counter()
    if jobs == 1:
        draws = [_single_run(cfg, i) for i in range(cfg.runs)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, cfg.runs // (4 * jobs))
            draws = list(pool.map(_single_run, [cfg] * cfg.runs, range(cfg.runs), chunksize=chunk))

    counts = {a: sum(decide(d.statistic, d.replicates, a, d.B)[2] for d in draws) for a in cfg.alphas}
    rates = {a: counts[a] / cfg.runs for a in cfg.alphas}
    ses = {a: float(np.sqrt(rates[a] * (1.0 - rates[a]) / cfg.runs)) for a in cfg.alphas}
    return ExperimentReport(
        config=cfg,
        N=draws[0].N,
        M=draws[0].M,
        rejection_rates=rates,
        standard_errors=ses,
        rejection_counts=counts,
        statistics=np.array([d.statistic for d in draws]),
        wall_time=time.perf_counter() - start,
    )
