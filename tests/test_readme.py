"""README's Python examples run as written.

The ```python blocks of README.md execute in order in one namespace, as a
reader pasting them into one session would run them, so a public name that
is removed or renamed fails here instead of leaving the docs stale.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3
    assert "import lsts" in BLOCKS[0]


def test_readme_python_blocks_run_in_order(capsys):
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert "result" in namespace and "report" in namespace
    assert capsys.readouterr().out
