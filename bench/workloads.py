"""The benchmark's workloads: the CLI calls one pass makes, built from the seed.

This module imports nothing heavy, so the set-up probe that times a
fresh process importing kernelspectra and preparing a workload's inputs
measures the package and not the benchmark.
"""

from __future__ import annotations

import math
from pathlib import Path

AFFINE = "affine-inner-2400"
DISTANCE = "distance-cross-300"
FE = "fe-solver"

WORKLOADS = (AFFINE, DISTANCE, FE)

# Output of compare calls; experiments.bytes_written counts the files here.
COMPARE_DIR = "compare"

SIGN_SCALED_A = math.sqrt(2.0 / math.pi)

# (a, nu, gamma) of the functional-equation laws fe-solver predicts.
FE_LAWS = (
    ("sign-scaled-half", SIGN_SCALED_A, 1.0, 0.5),
    ("sign-scaled-one", SIGN_SCALED_A, 1.0, 1.0),
    ("sign-scaled-two", SIGN_SCALED_A, 1.0, 2.0),
    ("semicircle", 0.0, 1.0, 1.0),
    ("atom", 1.0, 1.0, 0.5),          # affine MP with mass 1/2 at -1
    ("slow-window", 1.0, 1.0, 1.0),   # window widens to +-16
)
EXPAND_FAMILIES = ("gaussian", "rademacher", "sphere")
EXPAND_P = 500
EXPAND_SAMPLES = 1_000_000

AFFINE_CONFIG = {"ensemble": "gaussian", "kernel": "inner", "diag": "zero",
                 "envelope": "exp:a=1", "p": 1200, "n": 2400, "trials": 2,
                 "target": "affine-mp"}
DISTANCE_CONFIG = {"ensemble": "rademacher", "ensemble_b": "sphere",
                   "kernel": "distance", "diag": "keep", "envelope": "exp:a=-1",
                   "p": 600, "n": 300, "trials": 30, "target": "cross-ensemble"}
FE_COMPARE_CONFIG = {"ensemble": "gaussian", "kernel": "inner", "diag": "zero",
                     "envelope": "sign-scaled", "p": 400, "n": 400, "trials": 2,
                     "target": "functional-equation",
                     "law_a": repr(SIGN_SCALED_A), "law_nu": "1.0"}


def _compare(config: dict, seed: int, out: Path) -> list[str]:
    argv = ["compare"]
    for key, value in {**config, "seed": seed}.items():
        argv += ["--set", f"{key}={value}"]
    return argv + ["--out", str(out / COMPARE_DIR)]


def operations(name: str, seed: int, out: Path) -> list[list[str]]:
    """CLI argument lists of one pass; every output lands under ``out``."""
    if name == AFFINE:
        return [_compare(AFFINE_CONFIG, seed, out)]
    if name == DISTANCE:
        # The cross-ensemble target builds no law, so the predicted affine
        # MP law of the same model comes from predict.
        return [_compare(DISTANCE_CONFIG, seed, out),
                ["predict", "--law", "mp", "--gamma", "2",
                 "--envelope", "exp:a=-1", "--kernel", "distance",
                 "--diag", "keep", "--out", str(out / "mp-law.csv")]]
    if name == FE:
        ops = [["predict", "--law", "fe", "--a", repr(a), "--nu", repr(nu),
                "--gamma", repr(gamma), "--out", str(out / f"{label}.csv")]
               for label, a, nu, gamma in FE_LAWS]
        ops += [["expand", "--envelope", "sign-scaled", "--ensemble", family,
                 "--p", str(EXPAND_P), "--samples", str(EXPAND_SAMPLES),
                 "--seed", str(seed)] for family in EXPAND_FAMILIES]
        ops.append(_compare(FE_COMPARE_CONFIG, seed, out))
        return ops
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
