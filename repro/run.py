"""Reproduction audit: every published benchmark cell, run once, written to REPRO.json.

    python3 repro/run.py

Runs each cell of `lsts.cli.bench_cells()` through `run_experiment` in this
one process, with seed 0, B=200 and the cell's default number of runs (500
for a null cell, 200 for an alternative).  It writes REPRO.json at the root of
the repository: per cell, the rejection rates and their standard errors at
5 % and 10 %, runs, B, seed, the published reference rates, the wall time and
the commit the sweep ran at.  It then prints, per group of cells, how many
estimates at 5 % lie within 2 standard errors of the published rate, the
standard error being the binomial one at the published rate over the cell's
runs.  The sweep takes about four minutes on one core.

The program is imported from `src/` next to this directory.  Seeded outputs
are reproducible bit for bit, so a change that moves any number here has
changed the test's output and says so.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lsts import StationaryAR, StationaryMA, run_experiment  # noqa: E402
from lsts.cli import bench_cells  # noqa: E402

SEED = 0
B = 200
OUT = ROOT / "REPRO.json"


def commit() -> str | None:
    """HEAD's hash, marked "+dirty" if `src/` differs from it; None outside a git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT).returncode != 0
    except (OSError, subprocess.CalledProcessError):
        return None
    return head.stdout.strip() + ("+dirty" if dirty else "")


def group(cfg) -> str:
    """The audit's group of a cell: local null, local alternative or pre alternative."""
    if cfg.estimator == "pre":
        return "pre alternatives"
    return "local nulls" if isinstance(cfg.model, (StationaryAR, StationaryMA)) else "local alternatives"


def within_2se(rate: float, published: float, runs: int) -> bool:
    """Whether an estimate lies within 2 binomial standard errors of the published rate."""
    return abs(rate - published) <= 2.0 * (published * (1.0 - published) / runs) ** 0.5


def main() -> None:
    at = commit()
    cells = {}
    counts: dict[str, list[int]] = {}
    for name, (cfg, reference) in bench_cells().items():
        report = run_experiment(replace(cfg, seed=SEED, B=B)).to_dict()
        cells[name] = {
            "model": report["model"],
            "estimator": report["estimator"],
            "T": report["T"],
            "N": report["N"],
            "runs": report["runs"],
            "B": report["B"],
            "seed": report["seed"],
            "rejection_rates": report["rejection_rates"],
            "standard_errors": report["standard_errors"],
            "reference": {f"{a:g}": r for a, r in reference.items()},
            "wall_time": round(report["wall_time"], 3),
            "commit": at,
        }
        hit = within_2se(report["rejection_rates"]["0.05"], reference[0.05], report["runs"])
        tally = counts.setdefault(group(cfg), [0, 0])
        tally[0] += hit
        tally[1] += 1
        print(f"{name:<20} {report['rejection_rates']['0.05']:.3f} (published {reference[0.05]:.3f})"
              f"{'' if hit else '  beyond 2 SE'}  {report['wall_time']:.1f} s", flush=True)
    OUT.write_text(json.dumps({"cells": cells}, indent=1) + "\n", encoding="utf-8")
    for name, (hits, total) in counts.items():
        print(f"{name}: {hits} of {total} within 2 SE at 5 %")
    print(f"wrote {OUT.name}: {len(cells)} cells, {sum(c['wall_time'] for c in cells.values()):.0f} s")


if __name__ == "__main__":
    main()
