"""Benchmark of the lsts package.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see README.md in this directory) as a closed loop with a
single client for the given number of seconds, checks every output against
the benchmark's own references, and prints one line per metric with its unit
and sample count, then the result as one JSON object on the last line.
`--trace 0` measures the end-to-end metrics; `--trace 1` wraps the package's
module bindings with the span tracer and reports per-layer metrics and the
tracing overhead instead.  `--workload all` runs every workload in turn, each
in its own process.

The program is imported from `src/` next to this directory and left
untouched; the run fails with exit code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("cli-test", "mc-local", "pre-test", "long-test")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # fresh processes per run; setup_s is their median
IMPORT_REPEATS = 3  # `-X importtime` interpreters per traced run
P90_MIN_OPS = 100  # p90 needs ten samples beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_environment() -> None:
    """One BLAS thread and a serial harness, inherited by every child process."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("LSTS_THREADS", None)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    from workloads import digest

    sources = sorted((SRC / "lsts").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": commit,
        "src_digest": digest([p.name.encode() + p.read_bytes() for p in sources]),
    }


@dataclass
class Record:
    """One timed operation."""

    case: int
    wall: float
    out: object = None
    error: str | None = None  # the traceback, when the operation raised
    traced: bool = False
    unwrapped: float = 0.0  # wall time not covered by any span's self time


def timed(wl, cases, index, tracer=None) -> Record:
    """Run one operation; an exception is recorded as a failed operation."""
    case = cases[index]
    covered = tracer.self_total() if tracer else 0.0
    start = time.perf_counter()
    try:
        out = wl.run_traced(case, tracer) if tracer else wl.run(case)
    except Exception:  # the loop must go on; the failure is counted and shown
        return Record(index, time.perf_counter() - start, error=traceback.format_exc(limit=3))
    wall = time.perf_counter() - start
    if tracer is None:
        return Record(index, wall, out)
    return Record(index, wall, out, traced=True, unwrapped=wall - (tracer.self_total() - covered))


def measure(wl, cases, seconds: float, tracer) -> list[Record]:
    """Closed loop over the input pool for `seconds`; traced runs alternate
    untraced and traced operations on the same input."""
    records = []
    start = time.perf_counter()
    i = 0
    while not records or time.perf_counter() - start < seconds:
        index = i % len(cases)
        records.append(timed(wl, cases, index))
        if tracer is not None:
            records.append(timed(wl, cases, index, tracer))
        i += 1
    return records


def check_records(wl, cases, refs, records) -> tuple[int, list[str], list[bytes]]:
    """Failed operation count, the failure messages, and the first output of each case.

    Timing metrics use every operation that returned; one that returned a
    wrong result is counted as failed, and the run as not correct.
    """
    failures = []
    first = {}
    for r in records:
        problem = r.error
        if problem is None:
            try:
                wl.check(cases[r.case], refs[r.case], r.out)
                canon = wl.canonical(r.out)
                if first.setdefault(r.case, canon) != canon:
                    raise ValueError("repeated input gave a different result")
                if r.traced and r.unwrapped < -1e-6:
                    raise ValueError(f"span self times exceed the op wall time by {-r.unwrapped:g} s")
            except Exception as exc:  # a malformed output is a failed check
                problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"case {r.case}: {problem}")
    return len(failures), failures, [first[i] for i in sorted(first)]


def setup_samples(name: str, seed: int, workdir: str) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", name, str(seed), workdir],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{proc.stderr}")
        timing = json.loads(proc.stdout.splitlines()[-1])
        samples.append(timing["import_s"] + timing["op_s"])
    return samples


def end_to_end(wl, records, setup, peak_rss_mb):
    walls = [r.wall for r in records if r.error is None]
    metrics = {
        "latency_s.p50": (statistics.median(walls), "s", len(walls)),
        "tests_per_s": (wl.tests_per_op * len(walls) / sum(walls), "1/s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    extra = {}
    if len(walls) >= P90_MIN_OPS:
        p90 = statistics.quantiles(walls, n=10, method="inclusive")[-1]
        extra["latency_s.p90"] = (p90, "s", len(walls))
    return metrics, extra


def per_layer(tracer, records, imports):
    from tracer import COUNTERS, SPANS

    traced = [r for r in records if r.traced and r.error is None]
    plain = [r.wall for r in records if not r.traced and r.error is None]
    n = len(traced)
    metrics = {}
    for module, attr in SPANS:
        span = f"{module}.{attr}"
        if span in tracer.missing:
            continue
        # the self time of the run_experiment span is the harness's own orchestration
        self_name = "harness.orchestration_s" if span == "harness.run_experiment" else f"{span}.self_s"
        metrics[self_name] = (tracer.self_s.get(span, 0.0) / n, "s", n)
        metrics[f"{span}.calls"] = (tracer.calls.get(span, 0) / n, "count", n)
        for counter in COUNTERS.get(span, {}):
            key = f"{span}.{counter}"
            if key in tracer.missing:
                continue
            total = tracer.counters.get(key, 0)
            # the selected order is a mean over calls; other counts are per operation
            per = total / max(1, tracer.calls.get(span, 0)) if counter == "order" else total / n
            metrics[key] = (per, "count", n)
    for module, seconds in imports.items():
        metrics[f"import.{module}_s"] = (seconds, "s", IMPORT_REPEATS)
    metrics["op.wall_s"] = (statistics.fmean(r.wall for r in traced), "s", n)
    metrics["op.unwrapped_s"] = (statistics.fmean(r.unwrapped for r in traced), "s", n)
    overhead = 100.0 * (statistics.median(r.wall for r in traced) / statistics.median(plain) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%", min(n, len(plain)))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import lsts
    import workloads
    from tracer import Tracer, import_times

    if not Path(lsts.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"lsts imported from {lsts.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name]
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        cases = wl.cases(seed, workdir)
        refs = [wl.reference(case) for case in cases]
        warmup = [timed(wl, cases, i) for i in range(len(cases))]
        tracer = Tracer() if trace else None
        records = measure(wl, cases, seconds, tracer)
        who = resource.RUSAGE_CHILDREN if name == "cli-test" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        if trace:
            imports, missing_imports = import_times(dict(os.environ), IMPORT_REPEATS)
        else:
            setup = setup_samples(name, seed, workdir)

    failed, failures, first = check_records(wl, cases, refs, warmup + records)
    attempted = len(warmup) + len(records)
    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    if {r.traced for r in records if r.error is None} != ({False, True} if trace else {False}):
        print("no timed operation of each kind returned; no metrics", file=sys.stderr)
        return 1

    if trace:
        metrics = per_layer(tracer, records, imports)
        extra = {}
        missing = sorted(tracer.missing | {f"import.{m}_s" for m in missing_imports})
        print("missing " + (" ".join(missing) if missing else "none"))
    else:
        metrics, extra = end_to_end(wl, records, setup, peak_rss_mb)
    for key, (value, unit, n) in {**metrics, **extra}.items():
        print(f"metric {key:<44} {value:>14.6g} {unit:<6} n={n}")
    print(f"metric {'fail_ratio':<44} {failed / attempted:>14.6g} {'':<6} n={attempted}")
    print(f"outputs_digest {workloads.digest(first)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    # a terminated run unwinds normally: child processes are killed and waited
    # for, and the temporary input directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "lsts" / "__init__.py").is_file():
        print(f"no lsts sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
