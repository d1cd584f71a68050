"""Vector ensembles: populations of the column vectors X_1, ..., X_n.

Every family is normalized so that E[X] = 0 and E||X||^2 = 1. For the iid
families each entry has mean 0 and variance exactly 1/p; the sphere family
gives ||X|| = 1 exactly.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._rng import TAG_COLUMN, TAG_DIAGNOSTIC, substreams

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
SPHERE = "sphere"

FAMILIES = (GAUSSIAN, RADEMACHER, SPHERE)

# A sample of at least this many entries gets its own private anonymous
# mapping (ACCESS_COPY), so its pages go back to the OS when it is dropped:
# glibc raises its mmap threshold (up to 32 MiB) to the size of a freed
# mapped block, so a later heap sample of that size would stay resident
# after its free. The mapping asks for huge pages, as numpy does for large
# arrays, to keep page faults few; smaller samples stay on the heap.
_MAPPED_ENTRIES = 2 ** 20


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


def _fill_columns(family: str, rows: np.ndarray,
                  streams: Iterable[np.random.Generator]) -> np.ndarray:
    """Fill each row of ``rows`` with one column of the family.

    Row i is drawn from the i-th generator of ``streams`` and normalized
    so that E||X||^2 = 1; the iid families are scaled in one pass at the
    end, which rounds exactly as scaling each row would.

    Rademacher sign 2k is bit 31 of raw 64-bit word k and sign 2k + 1 is
    bit 63, the signs ``rng.integers(0, 2, size=p)`` draws; ``out=`` keeps
    temporaries small, since word-sized ones page-faulted on every call.
    """
    p = rows.shape[1]
    if family == RADEMACHER:
        words = np.empty((rows.shape[0], (p + 1) // 2), np.uint64)
        for row, rng in zip(words, streams):
            row[:] = rng.bit_generator.random_raw(row.size)
        np.right_shift(words[:, :p // 2], 63, out=rows[:, 1::2])
        words >>= 31
        np.bitwise_and(words, 1, out=rows[:, 0::2])
        rows *= 2.0
        rows -= 1.0
    else:
        for row, rng in zip(rows, streams):
            rng.standard_normal(out=row)
            if family == SPHERE:
                # Normalized Gaussian vector, exact in distribution.
                norm = np.linalg.norm(row)
                while norm == 0.0:  # probability zero, but keep the map total
                    rng.standard_normal(out=row)
                    norm = np.linalg.norm(row)
                row /= norm
    if family != SPHERE:
        rows /= np.sqrt(p)
    return rows


def sample_matrix(ensemble: VectorEnsemble, n: int, seed: int) -> SampleMatrix:
    """Draw the p x n sample matrix with columns X_1, ..., X_n.

    Column j is generated from the counter-based substream keyed by
    (seed, j), so the output is independent of generation order and
    sample_matrix(ensemble, m, seed) for m < n yields the leading m
    columns of sample_matrix(ensemble, n, seed). Columns are stored
    contiguously: ``data`` is the transpose of an n x p row array.
    """
    if n < 1:
        raise ValueError(f"sample count n must be >= 1, got {n}")
    shape = (n, ensemble.p)
    if n * ensemble.p < _MAPPED_ENTRIES:
        rows = np.empty(shape)
    else:
        buf = mmap.mmap(-1, 8 * n * ensemble.p, access=mmap.ACCESS_COPY)
        if hasattr(mmap, "MADV_HUGEPAGE"):  # Linux only
            buf.madvise(mmap.MADV_HUGEPAGE)
        rows = np.frombuffer(buf).reshape(shape)
    columns = _fill_columns(ensemble.family, rows,
                            substreams(seed, TAG_COLUMN, range(n)))
    return SampleMatrix(data=columns.T, ensemble=ensemble, seed=seed)


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
    cols = _fill_columns(family, np.empty((trials, p)),
                         substreams(seed, TAG_DIAGNOSTIC,
                                    range(stream_offset,
                                          stream_offset + trials)))
    per_column = np.mean(np.abs(np.sqrt(p) * cols) ** K, axis=1)
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


def concentration_diagnostic(S: SampleMatrix, G: np.ndarray
                             ) -> ConcentrationDiagnostic:
    """Exact concentration maxima over the realized sample.

    ``G`` is the sample's Gram matrix (``kernels.gram(S)``). Its diagonal
    is zeroed while the off-diagonal maximum is taken and restored before
    returning, so no n x n temporary is made.
    """
    if S.n < 2:
        raise ValueError("max_inner needs at least two columns (n >= 2)")
    norms_sq = np.diag(G).copy()
    np.fill_diagonal(G, 0.0)
    try:
        max_inner = max(G.max(), -G.min())
    finally:
        np.fill_diagonal(G, norms_sq)
    return ConcentrationDiagnostic(
        max_norm_dev=float(np.max(np.abs(norms_sq - 1.0))),
        max_inner=float(max_inner),
        n=S.n, p=S.p,
    )
