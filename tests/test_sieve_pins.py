"""Pinned seeded outputs of the AR sieve.

The AIC fits, one full bootstrap test per estimator, one curtailed batch
draw, and each estimator's distance surface with the grid that `_layout`
gives it are fixed bit for bit, as test_model_pins fixes the models, so a
change in how the sieve is organised cannot move a seeded number unnoticed.  Arrays
are pinned by the SHA-256 of their float64 bytes, scalars by their exact
value.  The pins hold for the numpy and scipy builds the package is tested
with; an upgrade that moves a ufunc's last bit shows up here first.
"""

import hashlib
import io
import warnings

import numpy as np
import pytest

from lsts import PiecewiseAR1, StationaryAR, StationaryMA, aic_select, distance_process, run_test, simulate
from lsts.sieve import bootstrap_draws, default_order_range

SEED = 20261018


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def aic_pin(T: int) -> tuple:
    """(order, coeffs, sigma2, aic_trace) of the default-range AIC fit of an MA(1) path of length T."""
    fit = aic_select(simulate(StationaryMA(coeffs=(0.8,)), T, SEED), *default_order_range(T))
    return fit.order, sha256(fit.coeffs), fit.sigma2, sha256(fit.aic_trace)


# T -> aic_pin(T); an MA(1) needs a high AR order, so T=4096 fits 37 candidate orders in several blocks
AIC_PINS = {
    64: (
        4,
        "ecad85d1dabe86c37eccbdb89d1346a754d96a2519a20ceac5f663f50e0c44c8",
        0.966923380254442,
        "4eab37cea246cf7f9ac7ae3637449432ff017ad72c839b232445ca55119c7ca1",
    ),
    512: (
        7,
        "a64f3697516d816f830f79ee44887b89b2983d86227e76ef8abd427911de6b32",
        0.9686958112202136,
        "dbe8c363d0dfc9f95400e7dba983d63fe0e8111ecee6acfcf65490018fcd530f",
    ),
    4096: (
        9,
        "bf9afa93495b591462d5cc2a0a97bdd0c90bc70a199202092fdc563ae217a2be",
        0.9845644638785941,
        "530088b06b9c191e66255670ae69e37a15eb0056f403afacc904ac1c54c5f988",
    ),
}


def run_test_pin(estimator: str) -> tuple:
    """(statistic, replicates, critical value, p-value, order) of a full run_test on an AR(1) path."""
    T, N, B = (128, 16, 99) if estimator == "local" else (64, None, 49)
    x = simulate(StationaryAR(coeffs=(0.5,)), T, SEED)
    r = run_test(x, N=N, B=B, alpha=0.1, seed=SEED, estimator=estimator)
    return r.statistic, sha256(r.replicates), r.critical_value, r.p_value, r.order


# estimator -> run_test_pin(estimator)
RUN_TEST_PINS = {
    "local": (
        0.12563630123075945,
        "af9e2894ecc9a8ae3383256d595b5b1614e764c7bb9bce9f888e51eb69e527a8",
        0.2643424012573792,
        0.63,
        2,
    ),
    "pre": (
        0.17060882392821336,
        "70937aa5110608184a492fee38485fee727fea8030e74fa78dae0b08260ee24c",
        0.20251194301010159,
        0.3,
        1,
    ),
}


def batch_pins() -> list[tuple]:
    """(statistic, replicates drawn, replicates, order) per run of one curtailed local batch
    of four T=128 series at levels 5 % and 10 %."""
    models = [StationaryAR(coeffs=(0.5,)), PiecewiseAR1(), StationaryMA(), PiecewiseAR1()]
    seeds = [SEED + i for i in range(len(models))]
    X = np.array([simulate(m, 128, s) for m, s in zip(models, seeds)])
    draws = bootstrap_draws(X, N=16, B=199, seed=seeds, alphas=(0.05, 0.1))
    return [(d.statistic, len(d.replicates), sha256(d.replicates), d.order) for d in draws]


# batch_pins(): the fourth run's decision stays open for 128 of its 199 replicates
BATCH_PINS = [
    (0.12563630123075945, 64, "051038bb1fbbe09d9f56726d7fce709123392b3f96b74a6b357bc558c5965324", 2),
    (0.1441307552501459, 64, "263993f838a641ab98d3cb37d061285e5c67bf7d613dd9da038c0b6427f9befa", 5),
    (0.08583459658982974, 64, "df9917994cc37bc648b806286f7437526ed54517f66a3230dcd93f8f6f563c0e", 1),
    (0.1339313410040162, 128, "4c48c45aa9ef645c76729c7160643261be2b74150b20eaf49be9af45abe3b9cf", 2),
]


@pytest.mark.parametrize("T", sorted(AIC_PINS))
def test_aic_select_fit(T):
    assert aic_pin(T) == AIC_PINS[T]


@pytest.mark.parametrize("estimator", sorted(RUN_TEST_PINS))
def test_run_test(estimator):
    assert run_test_pin(estimator) == RUN_TEST_PINS[estimator]


def test_curtailed_batch_draws():
    assert batch_pins() == BATCH_PINS


# (T, N, estimator) of each pinned surface: the default window, a window that drops a tail of two,
# and the window-free pre grid at an odd and an even length
SURFACES = [(256, None, "local"), (130, 16, "local"), (33, None, "pre"), (64, None, "pre")]


def surface_pin(T: int, N: int | None, estimator: str) -> tuple:
    """(CSV bytes, times, frequencies, sup_stat) of the distance process of an AR(1) path."""
    x = simulate(StationaryAR(coeffs=(0.5,)), T, SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # T=130, N=16 truncates its tail; test_sieve checks the warning
        d = distance_process(x, N, estimator)
    csv = io.StringIO()
    d.to_csv(csv)
    return hashlib.sha256(csv.getvalue().encode()).hexdigest(), sha256(d.times), sha256(d.frequencies), d.sup_stat


# SURFACES[i] -> surface_pin(*SURFACES[i])
SURFACE_PINS = [
    (
        "082f95ba618f64393fd34da70a73d40b9d8f42e9c5bb990964dffd64d9d1b706",
        "9ecaeb4868581c193065152583c5b82640d2f9bd9bdc7a6a0bd08840a11e78f4",
        "747d42b38763b7fc1e7332a86e3fc84f829da92792b4429209a994184cb7ad29",
        0.31936027730750405,
    ),
    (
        "d5fe949f911761aa613ce97fc54644b02b6ebdd89b9ee44734577630cca01f60",
        "9ecaeb4868581c193065152583c5b82640d2f9bd9bdc7a6a0bd08840a11e78f4",
        "264700922a72bda8ea03b4e46d3db30bf94a89add8712d09e4c91bea3248920c",
        0.12563630123075945,
    ),
    (
        "9729d32ff3381601bd4da3221e1e051d9516be4c515aa72a98935d50bc907f95",
        "8369c4c925b70e7d899ea72dc6672a01bd6f15f20a7d085481567a70d4f5ac19",
        "0d1b86dfead8e34d16c5753f2f981d3ede0216f9bf31ecf2c616789141ea7724",
        0.22246724644511576,
    ),
    (
        "58267b3abfaf3c8613776be6be8380b559b2c82566145d00c8c7294eaca77025",
        "ce7442cce3624b0600d829002baaa2404797555f2c38e105f57d2ae07f932a39",
        "063f21184751a2548066306773633bb60a339838c8b7a76c94be7abc0d68c318",
        0.17060882392821336,
    ),
]

# SURFACES[i] -> (T, N, M) of bootstrap_draws on the same series
DRAW_GRIDS = [(256, 32, 8), (128, 16, 8), (33, None, None), (64, None, None)]


@pytest.mark.parametrize("case", range(len(SURFACES)), ids=[f"{e}-T{T}-N{N}" for T, N, e in SURFACES])
def test_distance_surface(case):
    assert surface_pin(*SURFACES[case]) == SURFACE_PINS[case]


@pytest.mark.parametrize("case", range(len(SURFACES)), ids=[f"{e}-T{T}-N{N}" for T, N, e in SURFACES])
def test_draw_grid(case):
    T, N, estimator = SURFACES[case]
    x = simulate(StationaryAR(coeffs=(0.5,)), T, SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = bootstrap_draws(x, N=N, B=9, seed=SEED, estimator=estimator)
    assert (d.T, d.N, d.M) == DRAW_GRIDS[case]
