"""Pinned outputs of the six model families, and the CLI's name for each.

The simulated paths, the spectral densities on a (u, lambda) grid, the
integrated distances and the labels are fixed bit for bit, so a change in how
the models are organised cannot move a Monte Carlo rate unnoticed.  The pins
hold for the numpy and scipy builds the package is tested with; an upgrade
that moves a ufunc's last bit shows up here first.
"""

import argparse
import hashlib

import numpy as np
import pytest

from lsts import (
    PiecewiseAR1,
    ScaledNoise,
    StationaryAR,
    StationaryMA,
    TvAR1Sqrt,
    TvMA1Lag,
    simulate,
    true_distance,
    true_spectral_density,
)
from lsts.cli import build_parser, main

SEED = 20261018
U = np.linspace(0.0, 1.0, 11)[:, None]
LAM = np.linspace(0.0, np.pi, 13)[None, :]
DISTANCE_POINTS = ((0.5, 1.0), (0.25, 0.5), (0.7, 0.37))

# model -> (label, sha256 of simulate(model, 256, SEED), sha256 of f on U x LAM,
#           true_distance at DISTANCE_POINTS)
PINS = {
    StationaryAR(coeffs=(0.5, -0.3), sigma=1.7): (
        "ar(coeffs=[0.5, -0.3], sigma=1.7)",
        "55827967d4f10c41fa8c9b7fa8fd74b99e86f9a3f128fabd22ae703d0a73a7b1",
        "9cabeb8081b2f02209cdf576e22b78c23359f8660deccce9c12949cea8948b8d",
        (1.766974823035287e-17, -8.834874115176436e-18, 3.533949646070574e-17),
    ),
    StationaryAR(coeffs=(0.5,)): (
        "ar(coeffs=[0.5], sigma=1)",
        "3cae8af35e2e5658ec8ff21530b37d69f2a622a7bc347de8038294473f279a38",
        "d94b27b2f2fb653c18078788de1bad41aa253e3e3c96bc9d6fd2d58555c1119f",
        (0.0, -4.417437057588218e-18, 0.0),
    ),
    StationaryAR(): (
        "ar(coeffs=[], sigma=1)",
        "f098fbf445c9efd876921065f84513e2eaad15a13d35896f5bcab1ef182e0c9b",
        "fe0f547819e703d0aa456caff29be60968ca7af01c2b066cb36da92fb1f51408",
        (-4.417437057588218e-18, 0.0, 4.417437057588218e-18),
    ),
    StationaryMA(coeffs=(0.9, -0.4), sigma=0.6): (
        "ma(coeffs=[0.9, -0.4], sigma=0.6)",
        "358e527b82a95bc79e73632ff0e227b3f44b0f913f8249980be74ba802ccbf98",
        "c3e4cae79ba4d9047dca84d6d66f9a2f0e6f49a7eef74bea57650114b47b72ba",
        (0.0, -1.1043592643970545e-18, -6.6261555863823264e-18),
    ),
    ScaledNoise(): (
        "scaled-noise",
        "76ae3c94ed09202e0603749746b3721f19c567a1f6268bb53cbf6602d9222e88",
        "8cba46bb3fa726b76fd1309e85750715c3dc92015eb8bf40d2b98769f5a8e4f9",
        (-0.02984155182973037, -0.010568882939696173, -0.009686965611288206),
    ),
    TvAR1Sqrt(): (
        "tvar1-sqrt",
        "2c27ee3dabba8c1fae296d77adfa8f9770b62e0916685876eadf071c16fcdfba",
        "d805272f496cedc4c6c75ecb6e8354489fa7652ff19b60d6bb317c9e5023ea63",
        (-0.030570690725846294, 0.0019114686029199596, 0.0010733857656803818),
    ),
    PiecewiseAR1(): (
        "piecewise-ar1",
        "27e2f134dca33df2c0f472912dcecc04d971ec5d5f1669638b8dcf4abf067a24",
        "91d2eb85536686ddc4ec5f0705b0301ea374f3c69ced6a291cc388fa3b4938dc",
        (0.0, 0.007829554089483581, 0.008973491212429676),
    ),
    TvMA1Lag(q=1): (
        "tvma1-lag(q=1)",
        "1c1651d9270fbab17e06b30aff3f813ef691fc7a9e583eac21ffb49c7e8ba267",
        "a5a6de35e685f4eabfdda93e703f3f9cc4f3583f71188fc8bfa1a3e193014673",
        (-8.834874115176436e-18, 0.0, 0.001335054258227249),
    ),
    TvMA1Lag(q=6): (
        "tvma1-lag(q=6)",
        "362efcdd6daee425c23d94bcb43c458ba76451d1dd354c2fed56ea4f1c32e3b9",
        "b3e5dae7759877e1d5d019ebbe2a8942c7a1caa625eba8fad9a14dd57b682195",
        (8.834874115176436e-18, 2.208718528794109e-18, -3.208574687701032e-06),
    ),
}

MODELS = list(PINS)
IDS = [PINS[m][0] for m in MODELS]


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("model", MODELS, ids=IDS)
class TestPinnedModel:
    def test_label(self, model):
        assert model.label() == PINS[model][0]

    def test_simulated_path(self, model):
        assert sha256(simulate(model, 256, SEED)) == PINS[model][1]

    def test_spectral_density_grid(self, model):
        f = true_spectral_density(model, U, LAM)
        assert f.shape == (U.shape[0], LAM.shape[1])
        assert sha256(f) == PINS[model][2]

    def test_distance(self, model):
        got = tuple(true_distance(model, v, w) for v, w in DISTANCE_POINTS)
        assert got == PINS[model][3]


# `lsts simulate` flags -> the model they must simulate
CLI_MODELS = [
    (["ar1"], StationaryAR()),
    (["ar1", "--phi", "0.5", "--sigma", "1.7"], StationaryAR(coeffs=(0.5,), sigma=1.7)),
    (["ma1", "--theta", "0.9", "--sigma", "0.6"], StationaryMA(coeffs=(0.9,), sigma=0.6)),
    (["alt1"], ScaledNoise()),
    (["alt2"], TvAR1Sqrt()),
    (["alt3"], PiecewiseAR1()),
    (["alt4"], TvMA1Lag(q=1)),
    (["alt4", "--q", "6"], TvMA1Lag(q=6)),
]


def _simulate_choices() -> set[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(next(a.choices for a in sub.choices["simulate"]._actions if a.dest == "model"))


def test_every_cli_model_is_covered():
    assert _simulate_choices() == {flags[0] for flags, _ in CLI_MODELS}


@pytest.mark.parametrize("flags,model", CLI_MODELS, ids=[" ".join(f) for f, _ in CLI_MODELS])
def test_cli_simulate_matches_library(flags, model, capsys):
    assert main(["simulate", "--model", *flags, "--T", "64", "--seed", "5"]) == 0
    want = "".join(f"{v:.17g}\n" for v in simulate(model, 64, 5))
    assert capsys.readouterr().out == want
