"""The bindings and imports that perfbench's traced run reads from the package.

A span whose binding disappears is reported as missing and its per-layer
metrics drop out of the benchmark result, so every entry of the tracer's
SPANS and IMPORTS lists must resolve.  The lists are read from
perfbench/tracer.py itself, so this test follows any change to them.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("module,attr", TRACER.SPANS, ids=[f"{m}.{a}" for m, a in TRACER.SPANS])
def test_span_binding_is_callable(module, attr):
    target = getattr(importlib.import_module(f"lsts.{module}"), attr, None)
    assert callable(target), f"lsts.{module}.{attr} is not a callable module global"


def test_import_lsts_loads_every_traced_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    names = ",".join(repr(name) for name in TRACER.IMPORTS)
    code = f"import sys, lsts; print([n for n in ({names},) if n not in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"
