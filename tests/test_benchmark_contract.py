"""The bindings and imports that perfbench's traced run reads from the package.

A span whose binding disappears is reported as missing and its per-layer
metrics drop out of the benchmark result, so every entry of the tracer's
SPANS and IMPORTS lists must resolve.  The lists are read from
perfbench/tracer.py itself, so this test follows any change to them.  The
workloads call the package through its attributes (`lsts.simulate`,
`sieve.run_test`, ...); an `ast` scan of perfbench's sources finds each one,
so a renamed or removed public name fails here before it breaks a benchmark run.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lsts import StationaryAR, simulate

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # run.py's dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACER = _perfbench("tracer")


@pytest.mark.parametrize("module,attr", TRACER.SPANS, ids=[f"{m}.{a}" for m, a in TRACER.SPANS])
def test_span_binding_is_callable(module, attr):
    target = getattr(importlib.import_module(f"lsts.{module}"), attr, None)
    assert callable(target), f"lsts.{module}.{attr} is not a callable module global"


def _package_env() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_import_lsts_loads_every_traced_module():
    names = ",".join(repr(name) for name in TRACER.IMPORTS)
    code = f"import sys, lsts; print([n for n in ({names},) if n not in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_package_env(), capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"


def test_traced_run_finds_every_import_line():
    # loaded is not enough: `-X importtime` prints no line for a module that only a submodule
    # import pulls in (scipy.signal loads scipy.integrate that way), and its metric then drops
    # out of every traced result
    _, missing = TRACER.import_times(_package_env(), 1)
    assert missing == []


def _package_reads():
    """(module, attribute) for every name perfbench's sources read off `lsts` or its modules."""
    reads = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> lsts module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update({a.asname or a.name: a.name for a in node.names if a.name.split(".")[0] == "lsts"})
            elif isinstance(node, ast.ImportFrom) and node.module == "lsts":
                reads.update(("lsts", a.name) for a in node.names)
                modules.update({a.asname or a.name: f"lsts.{a.name}" for a in node.names})
        reads.update(
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        )
    return sorted(reads)


PACKAGE_READS = _package_reads()


def test_scan_finds_the_workload_calls():
    for read in [("lsts", "simulate"), ("lsts", "StationaryAR"), ("lsts", "ExperimentConfig"),
                 ("lsts", "pre_periodogram"), ("lsts.sieve", "run_test"), ("lsts.harness", "run_experiment")]:
        assert read in PACKAGE_READS


@pytest.mark.parametrize("module,attr", PACKAGE_READS, ids=[f"{m}.{a}" for m, a in PACKAGE_READS])
def test_package_attribute_resolves(module, attr):
    # `from lsts import cli` also resolves to a submodule not yet imported
    package_module = module == "lsts" and importlib.util.find_spec(f"lsts.{attr}") is not None
    found = hasattr(importlib.import_module(module), attr) or package_module
    assert found, f"perfbench reads {module}.{attr}, which does not exist"


def test_traced_result_keeps_every_declared_metric(monkeypatch):
    # the names a traced run prints when no binding is missing, from the runner's own per_layer;
    # a declared metric outside them drops out of every traced result
    monkeypatch.setitem(sys.modules, "tracer", TRACER)  # per_layer imports the tracer by that name
    run = _perfbench("run")
    records = [run.Record(0, 1.0), run.Record(0, 1.5, traced=True, unwrapped=0.5)]
    printable = run.per_layer(TRACER.Tracer(), records, {name: 0.1 for name in TRACER.IMPORTS})
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    assert [name for name in declared if name not in printable] == []


# span -> a call of its binding on a small input, for the counters read off its result
COUNTED_CALLS = {
    "sieve.aic_select": lambda aic_select: aic_select(simulate(StationaryAR(coeffs=(0.5,)), 64, 1), 1, 4),
}


@pytest.mark.parametrize("span", sorted(TRACER.COUNTERS))
def test_counter_reads_an_int(span):
    # the tracer lists a counter whose getter fails as missing, and its metric drops out
    module, attr = span.split(".")
    result = COUNTED_CALLS[span](getattr(importlib.import_module(f"lsts.{module}"), attr))
    for counter, read in TRACER.COUNTERS[span].items():
        assert type(read(result)) is int, f"{span}.{counter}"
