"""Fresh-process entry points of the benchmark.

    python perfbench/child.py setup <workload> <seed> <workdir>
        Times `import lsts` and one warm-up operation of the workload in this
        new interpreter and prints {"import_s": ..., "op_s": ...}.  Nothing
        but the standard library is imported before the clock starts.

    python perfbench/child.py cli-traced <spans.json> <lsts cli arguments...>
        Runs the lsts CLI with the tracer installed and writes its span
        totals to <spans.json>.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(workload: str, seed: int, workdir: str) -> int:
    start = time.perf_counter()
    import lsts  # noqa: F401

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    case = wl.cases(seed, workdir)[0]
    start = time.perf_counter()
    out = wl.run(case)
    op_s = time.perf_counter() - start
    if getattr(out, "returncode", 0) != 0:
        print(out.stderr, file=sys.stderr)
        return 1
    print(json.dumps({"import_s": import_s, "op_s": op_s}))
    return 0


def cli_traced(spans_path: str, argv: list[str]) -> int:
    from lsts import cli
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    Path(spans_path).write_text(json.dumps(tracer.totals()), encoding="utf-8")
    return code


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["setup"] and len(argv) == 4:
        return setup(argv[1], int(argv[2]), argv[3])
    if argv[:1] == ["cli-traced"] and len(argv) >= 2:
        return cli_traced(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
