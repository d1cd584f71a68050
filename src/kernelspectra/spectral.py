"""Eigenvalues, empirical spectral distributions, and distribution distances."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._csvio import read_table, write_table
from .errors import NumericalError
from .kernels import KernelMatrix

# Sum of eigenvalues must reproduce the trace to this relative accuracy.
_TRACE_RTOL = 1e-8


@dataclass(frozen=True)
class SpectralSample:
    """Sorted real spectrum of one realized kernel matrix."""

    eigenvalues: np.ndarray
    n: int
    p: int | None = None
    gamma: float | None = None
    seed: int | None = None

    @property
    def points(self) -> np.ndarray:
        return self.eigenvalues


def eigenvalues(A: KernelMatrix | np.ndarray) -> SpectralSample:
    """Full spectrum via a dense symmetric eigensolver, ascending order."""
    if isinstance(A, KernelMatrix):
        data = A.data
        prov = A.provenance
    else:
        data = np.asarray(A, dtype=float)
        prov = None
    try:
        lam = np.linalg.eigvalsh(data)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigensolver failed ({exc}); provenance: {prov}") from exc
    n = data.shape[0]
    scale = max(data.max(), -data.min()) if n else 0.0
    if abs(lam.sum() - np.trace(data)) > _TRACE_RTOL * n * max(scale, 1e-300):
        raise NumericalError(
            f"eigenvalue sum disagrees with trace beyond tolerance; "
            f"provenance: {prov}")
    return SpectralSample(
        eigenvalues=lam, n=n,
        p=prov.p if prov else None,
        gamma=(prov.p / n) if prov else None,
        seed=prov.seed if prov else None)


class Law:
    """A limit law: right-continuous ``cdf(x)`` and point masses ``atoms``.

    Subclasses also define ``stieltjes(z)``, ``window`` (the interval W1
    integrates over), ``table()`` (law.csv's x, density, cdf columns) and
    ``to_record()``.
    """

    def cdf_left(self, x) -> np.ndarray | float:
        """Left limit F(x-): the CDF less the mass of an atom sitting at x."""
        x_arr = np.asarray(x, dtype=float)
        out = np.asarray(self.cdf(x_arr), dtype=float)
        for loc, mass in self.atoms:
            out = out - mass * (x_arr == loc)
        return out if np.ndim(x) else float(out)


@dataclass(frozen=True)
class ESD:
    """Empirical spectral distribution: uniform weight 1/n on the points."""

    points: np.ndarray

    @staticmethod
    def of(sample: SpectralSample) -> "ESD":
        return ESD(points=np.sort(sample.eigenvalues))

    @staticmethod
    def pooled(samples: Sequence[SpectralSample]) -> "ESD":
        return ESD(points=np.sort(np.concatenate(
            [s.eigenvalues for s in samples])))

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.size == 0:
            raise ValueError("an ESD needs at least one point")

    @property
    def n(self) -> int:
        return self.points.size

    def cdf(self, x) -> np.ndarray | float:
        out = np.searchsorted(self.points, np.asarray(x, dtype=float),
                              side="right") / self.n
        return out if np.ndim(x) else float(out)

    def cdf_left(self, x) -> np.ndarray | float:
        out = np.searchsorted(self.points, np.asarray(x, dtype=float),
                              side="left") / self.n
        return out if np.ndim(x) else float(out)

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(location, mass) of every distinct point."""
        locs, counts = np.unique(self.points, return_counts=True)
        return tuple(zip(locs.tolist(), (counts / self.n).tolist()))


def empirical_stieltjes(s: SpectralSample | ESD, z: complex) -> complex:
    """m(z) = (1/n) sum_i 1/(lambda_i - z) for Im z > 0."""
    if np.imag(z) <= 0:
        raise ValueError(f"empirical_stieltjes requires Im z > 0, got z={z}")
    return complex(np.mean(1.0 / (s.points - z)))


def ks_distance(e: ESD, law) -> float:
    """sup_x |F_e(x) - F_law(x)|, exact for step vs smooth-plus-atom laws.

    ``law`` is an ESD or a limit law (``cdf``, ``cdf_left``, ``atoms``).
    The sup is evaluated at the empirical jump points and the law's atom
    locations, from both sides; between those points the empirical CDF is
    constant and the law CDF is monotone, so no other candidates matter.
    """
    locs = np.array([loc for loc, _ in law.atoms], dtype=float)
    candidates = np.unique(np.concatenate([e.points, locs]))
    right = np.abs(e.cdf(candidates) - np.asarray(law.cdf(candidates)))
    left = np.abs(e.cdf_left(candidates) - np.asarray(law.cdf_left(candidates)))
    return float(max(np.max(right), np.max(left)))


def wasserstein1(e1: ESD, e2: ESD) -> float:
    """W1 distance: sorted coupling for equal counts, else the CDF integral."""
    if e1.n == e2.n:
        return float(np.mean(np.abs(e1.points - e2.points)))
    grid = np.unique(np.concatenate([e1.points, e2.points]))
    diff = np.abs(np.asarray(e1.cdf(grid[:-1])) - np.asarray(e2.cdf(grid[:-1])))
    return float(np.sum(diff * np.diff(grid)))


@dataclass(frozen=True)
class VarianceDecayReport:
    """Sample variance of m_A(z) across trials, per matrix size."""

    z: complex
    sizes: tuple[int, ...]
    trials: int
    variances: tuple[float, ...]
    means: tuple[complex, ...]
    strictly_decreasing: bool


def stieltjes_variance_decay(model: Callable[[int, int], KernelMatrix | np.ndarray],
                             z: complex, trials: int,
                             sizes: Sequence[int]) -> VarianceDecayReport:
    """Variance of m_A(z) across trials for each size in ``sizes``.

    ``model(n, t)`` must build the trial-t kernel matrix at size n; it owns
    its own seeding, so a deterministic family (ignoring t) reports zero
    variance. Variance of the complex value is E|m - Em|^2.
    """
    if np.imag(z) <= 0:
        raise ValueError(f"stieltjes_variance_decay requires Im z > 0, got z={z}")
    if trials < 2:
        raise ValueError(f"variance needs trials >= 2, got {trials}")
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {sizes}")
    variances = []
    means = []
    for n in sizes:
        ms = np.array([empirical_stieltjes(eigenvalues(model(n, t)), z)
                       for t in range(trials)])
        mean = ms.mean()
        variances.append(float(np.mean(np.abs(ms - mean) ** 2)))
        means.append(complex(mean))
    decreasing = all(b < a for a, b in zip(variances, variances[1:]))
    return VarianceDecayReport(z=z, sizes=sizes, trials=trials,
                               variances=tuple(variances), means=tuple(means),
                               strictly_decreasing=decreasing)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def save_esd(path: str | Path, e: ESD, metadata: dict | None = None) -> None:
    """Write one eigenvalue per row under a 'lambda' header.

    Metadata (n, p, gamma, seed, spec string, ...) goes to a sidecar
    key=value file at <path>.meta.
    """
    write_table(path, ("lambda",), ([x] for x in e.points.tolist()),
                {"n": e.n, **(metadata or {})}.items())


def load_esd(path: str | Path) -> tuple[ESD, dict]:
    rows, meta = read_table(path, ("lambda",))
    return ESD(points=np.array([float(r[0]) for r in rows])), meta
