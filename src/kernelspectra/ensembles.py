"""Vector ensembles: populations of the column vectors X_1, ..., X_n.

Every family is normalized so that E[X] = 0 and E||X||^2 = 1. For the iid
families each entry has mean 0 and variance exactly 1/p; the sphere family
gives ||X|| = 1 exactly. Each family is one record in ``FAMILIES``; no
other module branches on the family.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from ._rng import TAG_BATCH, TAG_COLUMN, substream, substreams

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
SPHERE = "sphere"

# A sample of at least this many entries gets its own private anonymous
# mapping (ACCESS_COPY), so its pages go back to the OS when it is dropped:
# glibc raises its mmap threshold (up to 32 MiB) to the size of a freed
# mapped block, so a later heap sample of that size would stay resident
# after its free. The mapping asks for huge pages, as numpy does for large
# arrays, to keep page faults few; smaller samples stay on the heap.
_MAPPED_ENTRIES = 2 ** 20
_MC_BATCH = 200_000  # xi draws per Monte Carlo batch
MAX_EXACT_ORDER = 16  # highest moment order taken exactly


def normal_moment(k: int) -> int:
    """E N^k for standard normal: (k-1)!! for even k, 0 for odd."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    return 0 if k % 2 else math.prod(range(k - 1, 0, -2))


# Column fillers. The iid families are scaled in one pass at the end,
# which rounds exactly as scaling each row would.

def _fill_gaussian(rows: np.ndarray,
                   streams: Iterable[np.random.Generator]) -> None:
    for row, rng in zip(rows, streams):
        rng.standard_normal(out=row)
    rows /= np.sqrt(rows.shape[1])


def _fill_rademacher(rows: np.ndarray,
                     streams: Iterable[np.random.Generator]) -> None:
    """Sign 2k is bit 31 of raw 64-bit word k and sign 2k + 1 is bit 63,
    the signs ``rng.integers(0, 2, size=p)`` draws; ``out=`` keeps
    temporaries small, since word-sized ones page-faulted on every call."""
    p = rows.shape[1]
    words = np.empty((rows.shape[0], (p + 1) // 2), np.uint64)
    for row, rng in zip(words, streams):
        row[:] = rng.bit_generator.random_raw(row.size)
    np.right_shift(words[:, :p // 2], 63, out=rows[:, 1::2])
    words >>= 31
    np.bitwise_and(words, 1, out=rows[:, 0::2])
    rows *= 2.0
    rows -= 1.0
    rows /= np.sqrt(p)


def _fill_sphere(rows: np.ndarray,
                 streams: Iterable[np.random.Generator]) -> None:
    """Normalized Gaussian vectors, exact in distribution. Only an all-zero
    draw has norm 0, and it is redrawn; one batched matmul takes the ddot
    np.linalg.norm would take per row."""
    for row, rng in zip(rows, streams):
        rng.standard_normal(out=row)
        while row[0] == 0.0 and not row.any():  # probability zero, but
            rng.standard_normal(out=row)         # keep the map total
    rows /= np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0])


def _iid_xi_moments(entry_moment: Callable[[int], int], p: int,
                    K: int) -> tuple[Fraction, ...]:
    """E xi_p^k for k = 0 ... K >= 1 when the standardized entry x =
    sqrt(p) X_1i has E x^j = entry_moment(j).

    sqrt(p) xi_p is a sum of p iid copies of u = x y, with x and y
    standardized entries, so E (sqrt(p) xi_p)^k = k! [t^k] A(t)^p with
    A(t) = sum_j E[x^j]^2 t^j / j!. J.C.P. Miller's recurrence takes the
    power: b_n = (1/n) sum_{j=1..n} ((p + 1) j - n) a_j b_{n-j}.
    """
    a = [Fraction(entry_moment(j)) ** 2 / math.factorial(j)
         for j in range(K + 1)]
    b = [Fraction(1)]
    for n in range(1, K + 1):
        b.append(sum(((p + 1) * j - n) * a[j] * b[n - j]
                     for j in range(1, n + 1)) / n)
    return tuple(math.factorial(k) * b[k] / p ** (k // 2)
                 for k in range(K + 1))


def _sphere_xi_moments(p: int, K: int) -> tuple[Fraction, ...]:
    """xi_p / sqrt(p) is one coordinate of a uniform unit vector, so
    E xi_p^2k = p^k (2k-1)!! / prod_{j<k} (p + 2j) and each even moment
    is the one before times p (2k - 1) / (p + 2k - 2); at p = 1, xi = +-1.
    """
    m = [Fraction(1), Fraction(0)]
    for k in range(2, K + 1):
        m.append(m[k - 2] * Fraction(p * (k - 1), p + k - 2)
                 if k % 2 == 0 else Fraction(0))
    return tuple(m)


def _xi_batches(sample: Callable[..., np.ndarray], p: int, samples: int,
                seed: int) -> Iterator[tuple[np.ndarray, None]]:
    """``samples`` draws of xi_p in batches of up to _MC_BATCH; batch b
    comes from substream(seed, TAG_BATCH, b)."""
    for b, done in enumerate(range(0, samples, _MC_BATCH)):
        yield sample(p, substream(seed, TAG_BATCH, b),
                     min(_MC_BATCH, samples - done)), None


def _gaussian_xi(p: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """xi = sqrt(chi2_p / p) * N(0,1)."""
    radius = np.sqrt(rng.chisquare(p, size=count) / p)
    return radius * rng.standard_normal(count)


def _sphere_xi(p: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """xi = sqrt(p) (2 Beta((p-1)/2, (p-1)/2) - 1), and +-1 at p=1."""
    if p == 1:
        return 2.0 * rng.integers(0, 2, size=count) - 1.0
    t = 2.0 * rng.beta((p - 1) / 2.0, (p - 1) / 2.0, size=count) - 1.0
    return np.sqrt(p) * t


def _rademacher_xi_draws(p: int, samples: int, seed: int
                         ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One pair: the values (2k - p) / sqrt(p) of xi_p that ``samples``
    draws hit, ascending, and their counts: the histogram's exact law
    Multinomial(samples, C(p, k) / 2^p), drawn from substream(seed,
    TAG_BATCH, 0)."""
    row, total = [1], 1 << p
    for k in range(p):
        row.append(row[-1] * (p - k) // (k + 1))
    counts = substream(seed, TAG_BATCH, 0).multinomial(
        samples, [c / total for c in row])  # each C(p, k) / 2^p rounded once
    k = np.flatnonzero(counts)
    yield (2.0 * k - p) / np.sqrt(p), counts[k].astype(float)


@dataclass(frozen=True)
class Family:
    """A vector family: ``fill(rows, streams)`` fills row i of ``rows`` with
    a column drawn from the i-th stream; ``entry_moment(p, K)`` is
    E (sqrt(p) X_1)^K exactly; ``xi_moments(p, K)`` is E xi_p^k for k <= K
    exactly, with xi_p = sqrt(p) X^T Y; ``xi_draws(p, samples, seed)``
    yields (values, counts) pairs holding ``samples`` iid draws of xi_p,
    each value drawn counts times (once when counts is None)."""

    fill: Callable[[np.ndarray, Iterable[np.random.Generator]], None]
    entry_moment: Callable[[int, int], Fraction]
    xi_moments: Callable[[int, int], tuple[Fraction, ...]]
    xi_draws: Callable[[int, int, int], Iterator[tuple]]


def _iid_family(fill: Callable, entry_moment: Callable[[int], int],
                xi_draws: Callable) -> Family:
    """iid entries whose standardized x has E x^k = entry_moment(k)."""
    return Family(fill, lambda p, k: Fraction(entry_moment(k)),
                  partial(_iid_xi_moments, entry_moment), xi_draws)


FAMILIES: dict[str, Family] = {
    GAUSSIAN: _iid_family(_fill_gaussian, normal_moment,
                          partial(_xi_batches, _gaussian_xi)),
    # a random sign x has E x^j = 1 for even j and 0 for odd j
    RADEMACHER: _iid_family(_fill_rademacher, lambda j: 1 - j % 2,
                            _rademacher_xi_draws),
    # sqrt(p) X_1 has the law of xi_p, as X^T Y has the law of X_1
    SPHERE: Family(fill=_fill_sphere,
                   entry_moment=lambda p, k: _sphere_xi_moments(p, k)[k],
                   xi_moments=_sphere_xi_moments,
                   xi_draws=partial(_xi_batches, _sphere_xi)),
}


@dataclass(frozen=True)
class VectorEnsemble:
    """Population of a column vector: distribution family plus dimension p."""

    family: str
    p: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown ensemble family {self.family!r}; "
                             f"expected one of {tuple(FAMILIES)}")
        if self.p < 1:
            raise ValueError(f"dimension p must be >= 1, got {self.p}")


@dataclass(frozen=True)
class SampleMatrix:
    """p x n matrix whose columns are the vectors X_1, ..., X_n."""

    data: np.ndarray

    @property
    def p(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


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
    FAMILIES[ensemble.family].fill(rows, substreams(seed, TAG_COLUMN, range(n)))
    return SampleMatrix(data=rows.T)


@dataclass(frozen=True)
class MomentDiagnostic:
    """E (sqrt(p) x)^K of one entry x at dimensions p, 2p and 4p, exactly.

    The moment hypothesis says this stays bounded as p grows.
    ``growth_flagged``: m(2p) > m(p) and m(4p) m(p) >= m(2p)^2, a rise
    that does not slow, as for entries +-1/sqrt(sp) with s = c/p.
    """

    moments: tuple[Fraction, Fraction, Fraction]
    growth_flagged: bool


def moment_diagnostic(ensemble: VectorEnsemble, K: int) -> MomentDiagnostic:
    """The K-th moment of the standardized entry at p, 2p and 4p."""
    if K % 2 or not 2 <= K <= MAX_EXACT_ORDER:
        raise ValueError(f"moment order K must be even with 2 <= K <= "
                         f"{MAX_EXACT_ORDER}, got {K}")
    moment = FAMILIES[ensemble.family].entry_moment
    m1, m2, m4 = (moment(s * ensemble.p, K) for s in (1, 2, 4))
    return MomentDiagnostic(moments=(m1, m2, m4),
                            growth_flagged=m2 > m1 and m4 * m1 >= m2 * m2)


@dataclass(frozen=True)
class ConcentrationDiagnostic:
    """Realized maxima behind the concentration hypotheses.

    max_norm_dev = max_i | ||X_i||^2 - 1 |, max_inner = max_{i != j} |X_i^T X_j|.
    """

    max_norm_dev: float
    max_inner: float


def concentration_diagnostic(G: np.ndarray) -> ConcentrationDiagnostic:
    """Exact concentration maxima over the realized sample.

    ``G`` is the sample's Gram matrix (``kernels.gram(S)``). Its diagonal
    is zeroed while the off-diagonal maximum is taken and restored before
    returning, so no n x n temporary is made.
    """
    if G.shape[0] < 2:
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
    )
