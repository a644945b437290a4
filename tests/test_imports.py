"""Every module-level import in the package is used by its own module, and
every public name has a reader.

An import kept only so that an outside reader (a benchmark span, a test) can
still resolve the name is dead code in the module that holds it.  The package
__init__ is exempt: re-exporting is its job.  Likewise a name in
`lsts.__all__` that no package module calls and the README never shows is
dead public surface, unless PUBLIC_WITHOUT_CALLER says why it stays.
"""

import ast
import re
from pathlib import Path

import pytest

import lsts

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lsts"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
README = PACKAGE.parents[1] / "README.md"

# public names with neither a package caller nor a README mention, and why they stay
PUBLIC_WITHOUT_CALLER = {
    "limit_covariance_h0": "test oracle; its scipy.integrate import is the one that `-X importtime` "
    "names, which the benchmark's traced run reads (test_traced_run_finds_every_import_line), so it "
    "moves to tests/oracles.py once the benchmark stops reading that line (ROADMAP item 3)",
    "pre_periodogram": "the benchmark's pre-periodogram reference (ROADMAP item 3)",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level import statements that the module never loads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in loaded]


def test_scan_sees_a_dead_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\n\nd(c.x)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def referenced_names(source: str) -> set[str]:
    """Names a module loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_scan_sees_a_reference():
    source = "def f(x):\n    return g(x).h\n"
    assert referenced_names(source) == {"g", "x", "h"}


def test_every_public_name_has_a_reader():
    called = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in MODULES))
    readme = README.read_text(encoding="utf-8")
    unread = [
        name
        for name in lsts.__all__
        if name not in called and not re.search(rf"\b{name}\b", readme)
    ]
    assert sorted(unread) == sorted(PUBLIC_WITHOUT_CALLER)


GENERATOR_TYPES = {"Philox", "Generator", "default_rng"}


def call_owners(source: str, names: set[str]) -> list[str]:
    """Names of the top-level functions that call a function named in `names`, bare or as an
    attribute (`<module>` for a call outside any function)."""
    owners = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    owners.append(owner)
    return owners


def generator_owners(source: str) -> list[str]:
    """Names of the top-level functions that call a numpy generator constructor."""
    return call_owners(source, GENERATOR_TYPES)


def test_scan_sees_a_generator_build():
    source = "import numpy as np\ng = np.random.default_rng(0)\ndef f(s):\n    return Generator(Philox(s))\n"
    assert generator_owners(source) == ["<module>", "f", "f"]


def test_one_generator_construction_site():
    # every stream is keyed through _seeds.normal_generator; a second site is a second contract
    sites = {
        (p.stem, owner)
        for p in PACKAGE.glob("*.py")
        for owner in generator_owners(p.read_text(encoding="utf-8"))
    }
    assert sites == {("_seeds", "normal_generator")}


def test_scan_sees_an_errstate():
    source = "import numpy as np\ndef f(x):\n    with np.errstate(over='ignore'):\n        return x * x\n"
    assert call_owners(source, {"errstate"}) == ["f"]


def test_one_float64_rule_site():
    # a series' range is checked in _check_range and its statistics' in _statistics, which the
    # observed series, every replicate and the surface share; a third errstate block is a third rule
    sites = {
        (p.stem, owner)
        for p in PACKAGE.glob("*.py")
        for owner in call_owners(p.read_text(encoding="utf-8"), {"errstate"})
    }
    assert sites == {("sieve", "_check_range"), ("sieve", "_statistics")}


def test_package_reads_no_environment_variable():
    # configuration arrives through arguments; a hidden variable is a second source
    readers = [
        p.name
        for p in PACKAGE.glob("*.py")
        if {"environ", "getenv"} & referenced_names(p.read_text(encoding="utf-8"))
    ]
    assert readers == []
