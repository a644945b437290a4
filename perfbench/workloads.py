"""The four benchmark workloads: inputs, the timed operation and its output checks.

Inputs come from the workload seed through numpy's generator and the
benchmark's own AR/MA recursions; only `mc-local` simulates inside the
program, because simulation is part of what it measures.  Every workload
cycles over a small pool of distinct inputs, so each run also checks that a
repeated input gives a bit-identical result.

The program is called through its module attributes (`sieve.run_test`,
`harness.run_experiment`, ...) so that the tracer's wrappers take effect.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lsts
from lsts import harness, sieve

TWO_PI = 2.0 * np.pi
B = 200
ALPHA = 0.05
RTOL_LOCAL = 1e-9  # reference and program both sum a few thousand FFT bins
RTOL_PRE = 1e-8  # direct cosine sums against the folded FFT
CHILD = Path(__file__).resolve().parent / "child.py"


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, *workload.encode()])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

BURN_IN = 500


def ar1_series(rng: np.random.Generator, T: int, phi: float) -> np.ndarray:
    z = rng.standard_normal(T + BURN_IN)
    x = np.empty_like(z)
    prev = 0.0
    for t, zt in enumerate(z):
        prev = phi * prev + zt
        x[t] = prev
    return x[BURN_IN:]


def ma1_series(rng: np.random.Generator, T: int, theta: float) -> np.ndarray:
    z = rng.standard_normal(T + 1)
    return z[1:] + theta * z[:-1]


def variance_ramp_series(rng: np.random.Generator, T: int) -> np.ndarray:
    """X_t = (1 + t/T) Z_t, the first alternative of the paper."""
    return (1.0 + np.arange(1, T + 1) / T) * rng.standard_normal(T)


def bootstrap_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def run_seed(seed: int, index: int) -> int:
    """Seed of Monte Carlo run `index`: seed XOR SplitMix64(index), the derivation in `lsts._seeds`."""
    mask = (1 << 64) - 1
    z = (index + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (seed ^ z ^ (z >> 31)) & mask


# ---------------------------------------------------------------------------
# references, in plain numpy
# ---------------------------------------------------------------------------


def sup_of_contrast(estimates: np.ndarray, denom: float, T: int) -> float:
    """sqrt(T) max |cumulative estimates - (j/R) * their time total| / denom."""
    S = estimates.cumsum(axis=0).cumsum(axis=1)
    frac = np.arange(1, S.shape[0] + 1)[:, None] / S.shape[0]
    return float(np.sqrt(T) * np.abs((S - frac * S[-1]) / denom).max())


def local_statistic(x: np.ndarray, N: int) -> float:
    """Blocks of length N -> rfft -> periodograms -> cumulative contrast -> sup."""
    M = x.shape[0] // N
    T = M * N
    F = np.fft.rfft(x[:T].reshape(M, N), axis=1)[:, 1 : N // 2 + 1]
    return sup_of_contrast((F.real**2 + F.imag**2) / (TWO_PI * N), T, T)


def pre_statistic(x: np.ndarray) -> float:
    """Pre-periodogram statistic from the direct-sum `lsts.pre_periodogram`."""
    T = x.shape[0]
    lam = TWO_PI * np.arange(1, T // 2 + 1) / T
    J = np.array([lsts.pre_periodogram(x, t, lam) for t in range(1, T + 1)])
    return sup_of_contrast(J, T * T, T)


def order_statistic_decision(statistic: float, replicates: np.ndarray, alpha: float):
    """(critical value, p-value, reject) by the floor((1-alpha)B)-th order statistic."""
    B_ = len(replicates)
    k = int(math.floor((1.0 - alpha) * B_ + 1e-9))
    critical = float(np.sort(replicates)[k - 1])
    p_value = (1 + int(np.count_nonzero(replicates >= statistic))) / (B_ + 1)
    return critical, p_value, bool(statistic > critical)


def check_statistic(got: float, want: float, rtol: float) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= rtol * abs(want),
        f"statistic {got!r} differs from reference {want!r}",
    )


def check_test_result(result, x: np.ndarray, reference: float, rtol: float, N: int | None):
    """All fields of a TestResult against the references of its input."""
    check_statistic(result.statistic, reference, rtol)
    reps = np.asarray(result.replicates)
    require(reps.shape == (B,) and bool(np.all(np.isfinite(reps))), "bad replicate array")
    require(result.T == x.shape[0] and result.N == N, f"grid T={result.T} N={result.N}")
    want = order_statistic_decision(result.statistic, reps, result.alpha)
    got = (result.critical_value, result.p_value, result.reject)
    require(got == want, f"decision {got} disagrees with the order-statistic rule {want}")


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """One distinct input: a series (or experiment) and its seed."""

    seed: int
    series: np.ndarray | None = None
    path: str | None = None
    config: object = None


class Workload:
    name = ""
    tests_per_op = 1

    def cases(self, seed: int, workdir: str) -> list[Case]:
        raise NotImplementedError

    def reference(self, case: Case):
        """Expected values of the case, computed once and outside the timed region."""
        raise NotImplementedError

    def run(self, case: Case):
        raise NotImplementedError

    def run_traced(self, case: Case, tracer):
        with tracer.installed():
            return self.run(case)

    def check(self, case: Case, reference, out) -> None:
        raise NotImplementedError

    def canonical(self, out) -> bytes:
        """Bytes of the seeded outputs, for bit-identity checks and the digest."""
        raise NotImplementedError


class RunTestWorkload(Workload):
    """In-process `run_test` on seeded series."""

    estimator = "local"
    T = 0
    N: int | None = None  # the default window the program must choose
    pool = 1

    def series(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def cases(self, seed, workdir):
        rng = rng_for(seed, self.name)
        return [Case(seed=bootstrap_seed(rng), series=self.series(rng)) for _ in range(self.pool)]

    def reference(self, case):
        if self.estimator == "pre":
            return pre_statistic(case.series)
        return local_statistic(case.series, self.N)

    def run(self, case):
        return sieve.run_test(case.series, B=B, alpha=ALPHA, seed=case.seed, estimator=self.estimator)

    def check(self, case, reference, out):
        rtol = RTOL_PRE if self.estimator == "pre" else RTOL_LOCAL
        check_test_result(out, case.series, reference, rtol, self.N)

    def canonical(self, out):
        head = (out.statistic, out.critical_value, out.p_value, out.reject, out.order, out.N)
        return repr(head).encode() + np.asarray(out.replicates, dtype=float).tobytes()


class PreTest(RunTestWorkload):
    name = "pre-test"
    estimator = "pre"
    T = 256
    pool = 4

    def series(self, rng):
        return variance_ramp_series(rng, self.T)


class LongTest(RunTestWorkload):
    name = "long-test"
    T = 4096
    N = 128
    pool = 8

    def series(self, rng):
        return ma1_series(rng, self.T, 0.8)


class McLocal(Workload):
    """`run_experiment` on the published cell T128-N16-ar0.5, 50 runs per operation."""

    name = "mc-local"
    T, N, RUNS, ALPHAS = 128, 16, 50, (0.05, 0.10)
    model = lsts.StationaryAR(coeffs=(0.5,))
    tests_per_op = RUNS
    pool = 4

    def cases(self, seed, workdir):
        rng = rng_for(seed, self.name)
        cases = []
        for _ in range(self.pool):
            s = bootstrap_seed(rng)
            cfg = lsts.ExperimentConfig(
                model=self.model, T=self.T, N=self.N, B=B, runs=self.RUNS, alphas=self.ALPHAS, seed=s
            )
            cases.append(Case(seed=s, config=cfg))
        return cases

    def reference(self, case):
        """Per run: the reference statistic and `run_test`'s result.

        Each run's series is re-simulated from its run seed; its decisions are
        re-derived from `run_test`'s replicates by the order-statistic rule.
        """
        refs = []
        for i in range(self.RUNS):
            seed_i = run_seed(case.seed, i)
            x = lsts.simulate(self.model, self.T, seed_i)
            refs.append((local_statistic(x, self.N), lsts.run_test(x, N=self.N, B=B, seed=seed_i)))
        return refs

    def run(self, case):
        return harness.run_experiment(case.config, n_jobs=1)

    def check(self, case, reference, out):
        got = np.asarray(out.statistics)
        require(got.shape == (self.RUNS,), f"{got.shape[0]} statistics for {self.RUNS} runs")
        counts = {a: 0 for a in self.ALPHAS}
        for g, (want, result) in zip(got, reference):
            check_statistic(float(g), want, RTOL_LOCAL)
            check_statistic(result.statistic, want, RTOL_LOCAL)
            for a in self.ALPHAS:
                counts[a] += order_statistic_decision(result.statistic, result.replicates, a)[2]
        require(out.rejection_counts == counts, f"counts {out.rejection_counts} != {counts}")
        rates = {a: counts[a] / self.RUNS for a in self.ALPHAS}
        require(out.rejection_rates == rates, f"rates {out.rejection_rates} != {rates}")

    def canonical(self, out):
        return repr(sorted(out.rejection_counts.items())).encode() + np.asarray(out.statistics).tobytes()


class CliTest(Workload):
    """`python -m lsts.cli test` in a fresh interpreter on a CSV file, default N."""

    name = "cli-test"
    T, N = 512, 64
    pool = 2

    def cases(self, seed, workdir):
        rng = rng_for(seed, self.name)
        cases = []
        for i in range(self.pool):
            x = ar1_series(rng, self.T, 0.5)
            path = str(Path(workdir) / f"cli-test-{i}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x\n" + "".join(f"{v:.17g}\n" for v in x))
            cases.append(Case(seed=bootstrap_seed(rng), series=x, path=path))
        return cases

    def args(self, case):
        return ["test", case.path, "--B", str(B), "--seed", str(case.seed), "--format", "json"]

    def reference(self, case):
        """The reference statistic and in-process `run_test` on the same input."""
        return local_statistic(case.series, self.N), lsts.run_test(case.series, B=B, alpha=ALPHA, seed=case.seed)

    def run(self, case):
        cmd = [sys.executable, "-m", "lsts.cli", *self.args(case)]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=170)

    def run_traced(self, case, tracer):
        spans = Path(case.path).with_suffix(".spans.json")
        cmd = [sys.executable, str(CHILD), "cli-traced", str(spans), *self.args(case)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode == 0:
            tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
        return proc

    def check(self, case, reference, out):
        require(out.returncode == 0, f"exit code {out.returncode}: {out.stderr.strip()[-300:]}")
        statistic, result = reference
        check_test_result(result, case.series, statistic, RTOL_LOCAL, self.N)
        payload = json.loads(out.stdout)
        results, config = payload["results"], payload["config"]
        got = (results["statistic"], results["critical_value"], results["p_value"], results["reject"],
               config["order"], config["N"], config["T"])
        want = (result.statistic, result.critical_value, result.p_value, result.reject,
                result.order, self.N, self.T)
        require(got == want, f"cli result {got} differs from run_test on the same input {want}")

    def canonical(self, out):
        payload = json.loads(out.stdout)
        return json.dumps([payload["results"], payload["config"]["order"]], sort_keys=True).encode()


WORKLOADS = {w.name: w for w in (CliTest(), McLocal(), PreTest(), LongTest())}
