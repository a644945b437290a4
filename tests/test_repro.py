"""The committed reproduction audit, REPRO.json (written by repro/run.py), covers exactly the
benchmark registry, each cell at the settings the script runs.  No sweep runs here."""

import json
from pathlib import Path

from lsts.cli import bench_cells

REPRO = Path(__file__).resolve().parents[1] / "REPRO.json"


def test_repro_names_every_cell_with_its_settings():
    cells = json.loads(REPRO.read_text(encoding="utf-8"))["cells"]
    registry = bench_cells()
    assert sorted(cells) == sorted(registry)
    for name, (cfg, reference) in registry.items():
        cell = cells[name]
        # seed 0 and B=200 are the script's; the runs are the cell's default
        assert (cell["runs"], cell["B"], cell["seed"]) == (cfg.runs, 200, 0), name
        assert (cell["T"], cell["estimator"]) == (cfg.T, cfg.estimator), name
        assert cell["reference"] == {f"{a:g}": r for a, r in reference.items()}, name
        assert set(cell["rejection_rates"]) == set(cell["standard_errors"]) == {"0.05", "0.1"}, name
