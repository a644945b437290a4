"""Pinned seeded outputs of the AR sieve.

The AIC fits, one full bootstrap test per estimator and one curtailed batch
draw are fixed bit for bit, as test_model_pins fixes the models, so a change
in how the sieve is organised cannot move a seeded number unnoticed.  Arrays
are pinned by the SHA-256 of their float64 bytes, scalars by their exact
value.  The pins hold for the numpy and scipy builds the package is tested
with; an upgrade that moves a ufunc's last bit shows up here first.
"""

import hashlib

import numpy as np
import pytest

from lsts import PiecewiseAR1, StationaryAR, StationaryMA, aic_select, run_test, simulate
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
