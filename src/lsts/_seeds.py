"""Deterministic random-stream derivation.

All Gaussian sampling in the package goes through a counter-based Philox
generator keyed by an explicit 64-bit seed, so that every simulated series,
bootstrap replicate and Monte Carlo run is reproducible independently of
evaluation order, batching or thread count.

Bootstrap replicate contract: replicate i (i = 1..B) of a test with base
seed s draws its standard normal innovations from the Philox stream with key
(s ^ i) & MASK64, starting at counter 0, i.e. exactly
normal_generator((s ^ i) & MASK64).standard_normal(n).  The values do not
depend on how the stream is produced: normal_rows reuses one bit generator
and resets its key and counter per row, and returns the same numbers as a
fresh generator per replicate would.  Because replicate i depends on its own
key alone, the first n replicates of a test are the same for every B >= n:
this is what makes a Monte Carlo run's curtailed draw (the first n of B
replicates, stopped once its decisions are fixed) exact.
"""

import numpy as np

MASK64 = (1 << 64) - 1


def normal_generator(seed: int) -> np.random.Generator:
    """Counter-based generator for the given 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


def normal_rows(keys, n: int) -> np.ndarray:
    """(len(keys), n) array whose row i is normal_generator(keys[i]).standard_normal(n).

    Philox is counter-based, so its key and counter are its whole state:
    resetting them, with an empty output buffer, on one reused bit generator
    restarts exactly the stream a freshly built generator would produce,
    without the cost of building one per row.
    """
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((len(keys), n))
    for row, k in zip(out, keys):
        key[0] = k & MASK64
        bit_generator.state = state  # copied in: `state` itself never advances
        generator.standard_normal(out=row)
    return out


def splitmix64(value: int) -> int:
    """SplitMix64 finalizer; decorrelates consecutive integers."""
    value = (value + 0x9E3779B97F4A7C15) & MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & MASK64
    value ^= value >> 31
    return value


def run_seed(seed: int, index: int) -> int:
    """Seed for Monte Carlo run `index`: adding runs never perturbs earlier ones."""
    return (seed ^ splitmix64(index)) & MASK64
