"""Monte Carlo experiment runner for rejection-rate estimation.

Each run simulates a fresh series, applies the bootstrap test and tallies
rejections per nominal level.  A run's bootstrap stops as soon as its
decision at every level is fixed (curtailed Monte Carlo testing, Besag &
Clifford 1991), which gives the decisions of the full B replicates.
`_run_group` alone simulates and draws runs, one batch per group: its AIC
fits, observed statistics and replicate blocks advance in lockstep, and one
generator draws its noise; a group fills one replicate block per round (8
runs at T=128, one from T=1024 on), and a failing batch goes again run by
run.  Run i derives its seed through a splittable hash, and a batch gives
each run its own draw bit for bit, so grouping the runs or distributing
them over processes never changes any individual result.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._seeds import run_seed
from .models import ModelSpec, simulate
from .sieve import TestDraws, _layout, _levels, _lockstep_runs, bootstrap_draws, decide, order_statistic_index
from .spectral import _integer


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
        self.alphas = _levels(self.alphas)
        if len(set(self.alphas)) < len(self.alphas):
            raise ValueError(f"alphas must not repeat a level, got {self.alphas}")
        if not isinstance(self.model, ModelSpec):
            raise ValueError(f"model must be a ModelSpec, got {self.model!r}")
        self.runs = _integer(self.runs, "runs")
        if self.runs < 50:
            raise ValueError(f"need at least 50 runs for a meaningful rate, got {self.runs}")
        if not self.alphas:
            raise ValueError("alphas must name at least one level")
        self.T = _integer(self.T, "series length T")
        self.seed = _integer(self.seed, "seed")
        with warnings.catch_warnings():  # a truncated tail is reported by the runs that drop it
            warnings.simplefilter("ignore")
            grid, _ = _layout(self.T, self.N, self.estimator, self.p_min, self.p_max)  # bootstrap_draws' checks
        if grid.N is None:  # window-free: report no N, as run_test does
            self.N = None
        for a in self.alphas:  # the (B, alpha) rule of run_test
            order_statistic_index(self.B, a)
        self.B = int(self.B)


@dataclass
class ExperimentReport:
    """Rates per alpha over the runs; N and M are the grid all runs shared, None if window-free (pre)."""

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


def _run_group(cfg: ExperimentConfig, indices: range) -> list[TestDraws]:
    """The draws of runs `indices`, simulated and drawn as one batch.  If a batch of several runs
    fails, each run goes again as a group of one, so that the error names the first run that fails."""
    seeds = [run_seed(cfg.seed, i) for i in indices]
    try:
        return bootstrap_draws(
            np.array([simulate(cfg.model, cfg.T, s) for s in seeds]),
            N=cfg.N,
            B=cfg.B,
            p_min=cfg.p_min,
            p_max=cfg.p_max,
            seed=seeds,
            estimator=cfg.estimator,
            alphas=cfg.alphas,
        )
    except Exception as exc:
        if len(indices) > 1:
            return [draw for i in indices for draw in _run_group(cfg, range(i, i + 1))]
        raise RuntimeError(f"run {indices[0]} (seed {seeds[0]}) failed: {exc}") from exc


def run_experiment(cfg: ExperimentConfig, n_jobs: int = 1) -> ExperimentReport:
    """Estimate rejection probabilities for the configuration.

    Groups of runs go to up to n_jobs worker processes, at most
    os.cpu_count(); the report is identical for any group size and worker
    count, since each run's draw is its own and `map` keeps run order.
    n_jobs follows the integer rule of the other counts and must be at least 1.
    """
    n_jobs = _integer(n_jobs, "n_jobs")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    jobs = min(n_jobs, os.cpu_count() or 1)
    start = time.perf_counter()
    size = _lockstep_runs(cfg.T)
    groups = [range(lo, min(lo + size, cfg.runs)) for lo in range(0, cfg.runs, size)]
    if jobs == 1:
        batches = [_run_group(cfg, group) for group in groups]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(groups) // (4 * jobs))
            batches = list(pool.map(_run_group, [cfg] * len(groups), groups, chunksize=chunk))
    draws = [d for batch in batches for d in batch]

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
