"""Monte Carlo experiment runner for rejection-rate estimation.

Each run simulates a fresh series, applies the full bootstrap test and
tallies rejections per nominal level.  Run i derives its seed through a
splittable hash, so adding runs or distributing them over processes never
changes any individual result.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._seeds import run_seed
from .models import ModelSpec, simulate
from .sieve import ESTIMATORS, bootstrap_draws, decide, order_statistic_index


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
    config: ExperimentConfig
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
            "N": cfg.N,
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

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_table(self) -> str:
        cfg = self.config
        m = "-" if cfg.N is None else str(cfg.T // cfg.N)
        n = "-" if cfg.N is None else str(cfg.N)
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


def _single_run(cfg: ExperimentConfig, index: int) -> tuple[int, float, tuple[bool, ...]]:
    seed_i = run_seed(cfg.seed, index)
    try:
        x = simulate(cfg.model, cfg.T, seed_i)
        draws = bootstrap_draws(
            x,
            N=cfg.N,
            B=cfg.B,
            p_min=cfg.p_min,
            p_max=cfg.p_max,
            seed=seed_i,
            estimator=cfg.estimator,
        )
        rejections = tuple(decide(draws.statistic, draws.replicates, a)[2] for a in cfg.alphas)
    except Exception as exc:
        raise RuntimeError(f"run {index} (seed {seed_i}) failed: {exc}") from exc
    return index, draws.statistic, rejections


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Worker count: explicit argument, else LSTS_THREADS, else 1; at most os.cpu_count()."""
    if n_jobs is None:
        env = os.environ.get("LSTS_THREADS", "").strip()
        try:
            n_jobs = int(env) if env else 1
        except ValueError:
            raise ValueError(f"LSTS_THREADS must be an integer, got {env!r}") from None
    return max(1, min(int(n_jobs), os.cpu_count() or 1))


def run_experiment(cfg: ExperimentConfig, n_jobs: int | None = None) -> ExperimentReport:
    """Estimate rejection probabilities for the configuration.

    The report is identical for any worker count: results are keyed by run
    index and aggregated order-independently.
    """
    jobs = resolve_jobs(n_jobs)
    start = time.perf_counter()
    if jobs == 1:
        results = [_single_run(cfg, i) for i in range(cfg.runs)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, cfg.runs // (4 * jobs))
            results = list(
                pool.map(_single_run, [cfg] * cfg.runs, range(cfg.runs), chunksize=chunk)
            )
    elapsed = time.perf_counter() - start

    statistics = np.empty(cfg.runs)
    counts = {a: 0 for a in cfg.alphas}
    for index, stat, rejections in results:
        statistics[index] = stat
        for a, rej in zip(cfg.alphas, rejections):
            counts[a] += bool(rej)
    rates = {a: counts[a] / cfg.runs for a in cfg.alphas}
    ses = {a: float(np.sqrt(rates[a] * (1.0 - rates[a]) / cfg.runs)) for a in cfg.alphas}
    return ExperimentReport(
        config=cfg,
        rejection_rates=rates,
        standard_errors=ses,
        rejection_counts=counts,
        statistics=statistics,
        wall_time=elapsed,
    )
