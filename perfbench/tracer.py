"""Span tracer for the lsts package, installed from outside the package.

A span is named `<caller module>.<bound name>`: wrapping the global `lfilter`
of `lsts.sieve` times every call that `sieve` makes through that binding.  A
span's self time is its duration minus the time of the spans it encloses, so
the self times of all spans plus the unwrapped remainder of an operation add
up to the operation's wall time.

Only the names listed in SPANS are wrapped.  A binding that does not exist
(renamed or removed by a later version of the package) is reported as
missing, never as zero time.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

# (module of lsts, global name in that module); the span is "module.name"
SPANS = (
    ("cli", "read_series"),
    ("cli", "run_test"),
    ("harness", "run_experiment"),
    ("harness", "simulate"),
    ("harness", "bootstrap_draws"),
    ("harness", "decide"),
    ("sieve", "bootstrap_draws"),
    ("sieve", "aic_select"),
    ("sieve", "stationary_periodogram_all"),
    ("sieve", "normal_generator"),
    ("sieve", "lfiltic"),
    ("sieve", "lfilter"),
    ("sieve", "_block_periodograms"),
    ("sieve", "pre_periodogram_matrix"),
    ("sieve", "distance_values"),
    ("sieve", "sup_statistic"),
    ("sieve", "decide"),
)

# counters read off a span's return value: span -> {counter: getter}
COUNTERS = {
    "sieve.aic_select": {
        "orders": lambda fit: len(fit.candidate_orders),
        "order": lambda fit: fit.order,
    },
}

# modules whose cumulative import time `python -X importtime` reports
IMPORTS = ("numpy", "scipy.signal", "scipy.integrate", "lsts")


class Tracer:
    """Accumulates calls, self time and counters per span over many operations."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.missing = set()
        self._stack = []

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def merge(self, totals: dict) -> None:
        """Add the totals another process reported with `totals()`."""
        for name, n in totals["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in totals["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        for name, v in totals["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + v
        self.missing.update(totals["missing"])

    def totals(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counters": self.counters,
            "missing": sorted(self.missing),
        }

    @contextmanager
    def installed(self):
        """Wrap every binding in SPANS for the duration of the block."""
        saved = []
        for module_name, attr in SPANS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"lsts.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        stack = self._stack
        counters = COUNTERS.get(name, {})

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                enclosed = stack.pop()
                if stack:
                    stack[-1] += duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - enclosed
                self.calls[name] = self.calls.get(name, 0) + 1
            for counter, read in counters.items():
                key = f"{name}.{counter}"
                try:
                    value = read(result)
                except (AttributeError, TypeError):
                    self.missing.add(key)
                    continue
                self.counters[key] = self.counters.get(key, 0) + int(value)
            return result

        return traced


def import_times(env: dict, repeats: int) -> tuple[dict, list]:
    """Median cumulative import time per module in IMPORTS, from fresh interpreters.

    Returns the times in seconds and the modules that never appeared.
    """
    samples = {name: [] for name in IMPORTS}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lsts"],
            env=env, capture_output=True, text=True, timeout=170, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].strip()
            if name in samples:
                samples[name].append(int(fields[1]) * 1e-6)
    found = {name: statistics.median(v) for name, v in samples.items() if v}
    return found, [name for name in IMPORTS if name not in found]
