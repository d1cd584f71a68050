"""Vector ensembles: populations of the column vectors X_1, ..., X_n.

Every family is normalized so that E[X] = 0 and E||X||^2 = 1. For the iid
families each entry has mean 0 and variance exactly 1/p; the sphere family
gives ||X|| = 1 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import TAG_COLUMN, TAG_DIAGNOSTIC, substream

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
SPHERE = "sphere"

FAMILIES = (GAUSSIAN, RADEMACHER, SPHERE)
IID_FAMILIES = (GAUSSIAN, RADEMACHER)


@dataclass(frozen=True)
class VectorEnsemble:
    """Population of a column vector: distribution family plus dimension p."""

    family: str
    p: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown ensemble family {self.family!r}; "
                             f"expected one of {FAMILIES}")
        if self.p < 1:
            raise ValueError(f"dimension p must be >= 1, got {self.p}")

    @property
    def iid_entries(self) -> bool:
        return self.family in IID_FAMILIES


@dataclass(frozen=True)
class SampleMatrix:
    """p x n matrix whose columns are independent draws from the ensemble."""

    data: np.ndarray
    ensemble: VectorEnsemble
    seed: int

    @property
    def p(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def _draw(family: str, p: int, rng: np.random.Generator) -> np.ndarray:
    """One column of the family, normalized so that E||X||^2 = 1."""
    if family == GAUSSIAN:
        return rng.standard_normal(p) / np.sqrt(p)
    if family == RADEMACHER:
        return (2.0 * rng.integers(0, 2, size=p) - 1.0) / np.sqrt(p)
    # Sphere: normalized Gaussian vector, exact in distribution.
    g = rng.standard_normal(p)
    norm = np.linalg.norm(g)
    while norm == 0.0:  # probability zero, but keep the map total
        g = rng.standard_normal(p)
        norm = np.linalg.norm(g)
    return g / norm


def sample_matrix(ensemble: VectorEnsemble, n: int, seed: int) -> SampleMatrix:
    """Draw the p x n sample matrix with columns X_1, ..., X_n.

    Column j is generated from the counter-based substream keyed by
    (seed, j), so the output is independent of generation order and
    sample_matrix(ensemble, m, seed) for m < n yields the leading m
    columns of sample_matrix(ensemble, n, seed).
    """
    if n < 1:
        raise ValueError(f"sample count n must be >= 1, got {n}")
    p = ensemble.p
    data = np.empty((p, n))
    for j in range(n):
        data[:, j] = _draw(ensemble.family, p, substream(seed, TAG_COLUMN, j))
    return SampleMatrix(data=data, ensemble=ensemble, seed=seed)


@dataclass(frozen=True)
class MomentDiagnostic:
    """Monte Carlo estimate of E|sqrt(p) * entry|^K with its error bar.

    The moment-bound hypothesis on the entries says this quantity stays
    bounded as p grows; ``estimate_2p`` repeats the estimate at dimension
    2p and ``growth_flagged`` is set when the doubled-dimension estimate
    exceeds the base one by more than three combined standard errors.
    """

    family: str
    p: int
    order: int
    trials: int
    estimate: float
    stderr: float
    estimate_2p: float
    stderr_2p: float
    growth_flagged: bool


def _abs_entry_moment(family: str, p: int, K: int, trials: int,
                      seed: int, stream_offset: int) -> tuple[float, float]:
    # One observation per independent column: the column mean of
    # |sqrt(p) x_i|^K. Columns are independent for every family, so the
    # across-column standard error is valid even when entries within a
    # column are dependent (sphere).
    per_column = np.empty(trials)
    for t in range(trials):
        rng = substream(seed, TAG_DIAGNOSTIC, stream_offset + t)
        col = np.sqrt(p) * _draw(family, p, rng)
        per_column[t] = np.mean(np.abs(col) ** K)
    est = float(np.mean(per_column))
    se = float(np.std(per_column, ddof=1) / np.sqrt(trials))
    return est, se


def moment_diagnostic(ensemble: VectorEnsemble, K: int, trials: int,
                      seed: int) -> MomentDiagnostic:
    """Estimate the K-th absolute moment of the standardized entry."""
    if K < 2 or K % 2 != 0:
        raise ValueError(f"moment order K must be an even integer >= 2, got {K}")
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    est, se = _abs_entry_moment(ensemble.family, ensemble.p, K, trials, seed, 0)
    est2, se2 = _abs_entry_moment(ensemble.family, 2 * ensemble.p, K, trials,
                                  seed, trials)
    flagged = est2 - est > 3.0 * np.hypot(se, se2)
    return MomentDiagnostic(family=ensemble.family, p=ensemble.p, order=K,
                            trials=trials, estimate=est, stderr=se,
                            estimate_2p=est2, stderr_2p=se2,
                            growth_flagged=bool(flagged))


@dataclass(frozen=True)
class ConcentrationDiagnostic:
    """Realized maxima behind the concentration hypotheses.

    max_norm_dev = max_i | ||X_i||^2 - 1 |, max_inner = max_{i != j} |X_i^T X_j|.
    """

    max_norm_dev: float
    max_inner: float
    n: int
    p: int


def concentration_diagnostic(S: SampleMatrix) -> ConcentrationDiagnostic:
    """Exact concentration maxima over the realized sample."""
    if S.n < 2:
        raise ValueError("max_inner needs at least two columns (n >= 2)")
    G = S.data.T @ S.data
    norms_sq = np.diag(G).copy()
    off = G - np.diag(norms_sq)
    return ConcentrationDiagnostic(
        max_norm_dev=float(np.max(np.abs(norms_sq - 1.0))),
        max_inner=float(np.max(np.abs(off))),
        n=S.n, p=S.p,
    )
