"""Eigenvalues, empirical spectral distributions, and distribution distances."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._csvio import read_table, write_table
from .errors import NumericalError

# Sum of eigenvalues must reproduce the trace to this relative accuracy.
_TRACE_RTOL = 1e-8


def eigenvalues(A: np.ndarray) -> ESD:
    """ESD of a symmetric matrix's full spectrum (dense eigensolver).

    Raises ValueError on a non-square or non-finite matrix, and
    NumericalError when the solver fails or its eigenvalue sum misses the
    trace.
    """
    data = np.asarray(A, dtype=float)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"eigenvalues needs a square matrix, got shape "
                         f"{data.shape}")
    n = data.shape[0]
    # max and min propagate NaN, so scale is non-finite iff an entry is.
    scale = max(data.max(), -data.min()) if n else 0.0
    if not np.isfinite(scale):
        raise ValueError("eigenvalues needs finite entries; the matrix has "
                         "a NaN or infinite entry")
    try:
        lam = np.linalg.eigvalsh(data)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed ({exc})") from exc
    tol = _TRACE_RTOL * n * max(scale, 1e-300)
    if not abs(lam.sum() - np.trace(data)) <= tol:
        raise NumericalError("eigenvalue sum disagrees with trace beyond "
                             "tolerance")
    return ESD(points=lam)


class Law:
    """A limit law: right-continuous ``cdf(x)`` and point masses ``atoms``.

    Subclasses also define ``stieltjes(z)``, ``window`` (the interval W1
    integrates over), ``table()`` (law.csv's columns by name, x, density
    and cdf first) and ``to_record()``.
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
    def pooled(esds: Sequence["ESD"]) -> "ESD":
        return ESD(points=np.concatenate([e.points for e in esds]))

    def __post_init__(self):
        # Stable, so already-ascending input (eigvalsh's) keeps its exact
        # order, signed zeros included.
        pts = np.sort(np.asarray(self.points, dtype=float), kind="stable")
        object.__setattr__(self, "points", pts)
        if pts.size == 0:
            raise ValueError("an ESD needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("an ESD needs finite points; got a NaN or "
                             "infinite point")

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

    def stieltjes(self, z: complex) -> complex:
        return empirical_stieltjes(self, z)


def empirical_stieltjes(e: ESD, z: complex) -> complex:
    """m(z) = (1/n) sum_i 1/(lambda_i - z) for Im z > 0."""
    if np.imag(z) <= 0:
        raise ValueError(f"empirical_stieltjes requires Im z > 0, got z={z}")
    return complex(np.mean(1.0 / (e.points - z)))


def ks_distance(e: ESD, law) -> float:
    """sup_x |F_e(x) - F_law(x)|, exact for step vs smooth-plus-atom laws.

    ``law`` is an ESD or a limit law (``cdf``, ``cdf_left``, ``atoms``).
    The sup is evaluated at the empirical jump points and the law's atom
    locations, from both sides; between those points the empirical CDF is
    constant and the law CDF is monotone, so no other candidates matter.

    Against a law with an atom of mass m at x0, KS >= (m - c) / 2, where c
    is the ESD's mass exactly at x0: the law jumps by m at x0 and the ESD
    by c, so |F_e(x0-) - F_law(x0-)| + |F_law(x0) - F_e(x0)| >= m - c. A
    spectrum that clusters around x0 without hitting it keeps KS >= m / 2
    at every n, so KS need not tend to 0 under weak convergence; compare
    Stieltjes transforms, or CDFs on the continuous support, instead.
    """
    locs = np.array([loc for loc, _ in law.atoms], dtype=float)
    candidates = np.unique(np.concatenate([e.points, locs]))
    right = np.abs(e.cdf(candidates) - np.asarray(law.cdf(candidates)))
    left = np.abs(e.cdf_left(candidates) - np.asarray(law.cdf_left(candidates)))
    return float(max(np.max(right), np.max(left)))


def wasserstein1(e: ESD, target) -> float:
    """W1 distance from ``e`` to an ESD or a limit law (``cdf``, ``window``).

    ESD: sorted coupling for equal counts, else the exact CDF integral.
    Law: trapezoid of |F_e - F_law| over the law's window widened to the
    ESD's range, on 4001 points merged with the ESD's.
    """
    if isinstance(target, ESD):
        if e.n == target.n:
            return float(np.mean(np.abs(e.points - target.points)))
        grid = np.unique(np.concatenate([e.points, target.points]))
        diff = np.abs(np.asarray(e.cdf(grid[:-1]))
                      - np.asarray(target.cdf(grid[:-1])))
        return float(np.sum(diff * np.diff(grid)))
    lo, hi = target.window
    lo = min(lo, float(e.points[0]))
    hi = max(hi, float(e.points[-1]))
    base = np.linspace(lo, hi, 4001)
    grid = np.unique(np.concatenate([base, e.points]))
    diff = np.abs(np.asarray(e.cdf(grid)) - np.asarray(target.cdf(grid)))
    return float(np.trapezoid(diff, grid))


@dataclass(frozen=True)
class VarianceDecayReport:
    """Sample variance of m_A(z) across trials, per matrix size."""

    z: complex
    sizes: tuple[int, ...]
    trials: int
    variances: tuple[float, ...]
    means: tuple[complex, ...]
    strictly_decreasing: bool


def stieltjes_variance_decay(model: Callable[[int, int], np.ndarray],
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

def save_esd(path: str | Path, spectra: Mapping[str, ESD],
             meta: Iterable[tuple] = ()) -> None:
    """One row per eigenvalue under a trial,lambda header, labelled by its
    spectrum's key in ``spectra``; ``meta`` pairs go to <path>.meta."""
    write_table(path, ("trial", "lambda"),
                ([label, lam] for label, e in spectra.items()
                 for lam in e.points.tolist()), meta)


def load_esd(path: str | Path) -> tuple[dict[str, ESD], dict[str, str]]:
    """save_esd's label -> ESD mapping, in file order, and the .meta."""
    rows, meta = read_table(path, ("trial", "lambda"))
    points: dict[str, list[float]] = {}
    for label, lam in rows:
        points.setdefault(label, []).append(float(lam))
    return {k: ESD(points=np.array(v)) for k, v in points.items()}, meta


def save_limit_law(path: str | Path, law: Law,
                   meta: Iterable[tuple] = ()) -> None:
    """law.table()'s columns under their names; ``meta`` pairs, then the
    law's record, go to <path>.meta."""
    table = law.table()
    rows = np.column_stack(list(table.values())).tolist()
    write_table(path, tuple(table), rows, [*meta, *law.to_record().items()])
