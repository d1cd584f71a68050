"""Reference computations the output checks compare against.

Everything here is written from the mathematics and the documented
stream layout, not from the package's code paths, so a check that
passes shows agreement between two independent computations. Nothing
is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate, special, stats

# Stream layout documented in kernelspectra._rng: the Philox key of the
# (seed, tag, index) substream is [seed, tag << 48 | index].
_TAG_COLUMN = 0
_TAG_TRIAL = 1


def _substream(seed: int, tag: int, index: int) -> np.random.Generator:
    key = np.array([seed & (2**64 - 1), (tag << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_seed(seed: int, trial: int) -> int:
    """Seed of trial ``trial`` in a run with master seed ``seed``."""
    return int(_substream(seed, _TAG_TRIAL, trial).integers(
        0, 2**63 - 1, dtype=np.int64))


def gaussian_columns(p: int, n: int, seed: int) -> np.ndarray:
    """p x n gaussian sample matrix, column j from the (seed, column, j) stream."""
    X = np.empty((p, n))
    for j in range(n):
        X[:, j] = _substream(seed, _TAG_COLUMN, j).standard_normal(p)
    return X / np.sqrt(p)


# ---------------------------------------------------------------------------
# Marchenko-Pastur law of X^T X for columns with E||X||^2 = 1, gamma = p/n
# ---------------------------------------------------------------------------

def mp_edges(gamma: float) -> tuple[float, float]:
    r = 1.0 / math.sqrt(gamma)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


@lru_cache(maxsize=8)
def _mp_cdf_knots(gamma: float, knots: int = 801) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-part CDF at knots on the support, by adaptive quadrature."""
    a, b = mp_edges(gamma)

    def density(x: float) -> float:
        return gamma * math.sqrt(max((b - x) * (x - a), 0.0)) / (2.0 * math.pi * x)

    xs = np.linspace(a, b, knots)
    pieces = [integrate.quad(density, lo, hi)[0] for lo, hi in zip(xs, xs[1:])]
    return xs, np.concatenate(([0.0], np.cumsum(pieces)))


def affine_mp_cdf(x: np.ndarray, gamma: float, shift: float,
                  scale: float) -> np.ndarray:
    """Right-continuous CDF of shift + scale * MP(gamma) for scale > 0."""
    xs, cdf = _mp_cdf_knots(gamma)
    u = (np.asarray(x, dtype=float) - shift) / scale
    out = np.interp(u, xs, cdf, left=0.0, right=float(cdf[-1]))
    if gamma < 1.0:
        out = out + (1.0 - gamma) * (u >= 0.0)
    return out


def affine_mp_support(gamma: float, shift: float,
                      scale: float) -> tuple[float, float]:
    a, b = mp_edges(gamma)
    return shift + scale * a, shift + scale * b


def ks_vs_continuous(points: np.ndarray, cdf) -> float:
    """sup |F_n - F| for sorted sample points against a continuous CDF."""
    pts = np.sort(points)
    n = pts.size
    f = cdf(pts)
    above = np.arange(1, n + 1) / n - f
    below = f - np.arange(n) / n
    return float(max(above.max(), below.max()))


def bulk_sup(points: np.ndarray, cdf, support: tuple[float, float]) -> float:
    """CDF distance over the law's continuous support, on 3000 points.

    The same statistic as the acceptance suite's bulk diagnostic: it
    skips the atom at the left of the support, where a finite-n cluster
    straddles the point mass and the two-sided KS sits near mass / 2.
    """
    pts = np.sort(points)
    ts = np.linspace(support[0] + 1e-9, support[1], 3000)
    emp = np.searchsorted(pts, ts, side="right") / pts.size
    return float(np.max(np.abs(emp - cdf(ts))))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    grid = np.union1d(a, b)
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# Functional equation of the p-dependent model
# ---------------------------------------------------------------------------

def semicircle_stieltjes(z: np.ndarray) -> np.ndarray:
    """(-z + sqrt(z^2 - 4)) / 2 on the branch with Im m > 0."""
    disc = np.sqrt(np.asarray(z, dtype=complex) ** 2 - 4.0)
    r1, r2 = (-z + disc) / 2.0, (-z - disc) / 2.0
    return np.where(r1.imag > r2.imag, r1, r2)


def fe_residual(m: np.ndarray, z: np.ndarray, a: float, nu: float,
                gamma: float) -> np.ndarray:
    """Residual of -1/m = z + a (1 - 1/(1 + a m / gamma)) + (nu - a^2) m / gamma.

    Returned in the form |1 + m D(m)|, which is |m| times the raw
    residual and stays meaningful where |m| is tiny.
    """
    d = z + a * (1.0 - 1.0 / (1.0 + a * m / gamma)) + (nu - a * a) * m / gamma
    return np.abs(1.0 + m * d)


# ---------------------------------------------------------------------------
# Exact (a, nu) of the sign-scaled envelope, k(xi) = sign(xi)
#
# a = E[sign(xi) xi] / sd(xi) = E|xi| (xi has mean 0 and variance 1) and
# nu = Var sign(xi) = 1 - P(xi = 0).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def sign_scaled_exact(family: str, p: int) -> tuple[float, float]:
    if family == "gaussian":
        # xi = sqrt(chi2_p / p) N(0, 1): E|xi| = sqrt(2/pi) E sqrt(chi2_p / p)
        e_radius = math.exp(special.gammaln((p + 1) / 2) - special.gammaln(p / 2)
                            ) * math.sqrt(2.0 / p)
        return math.sqrt(2.0 / math.pi) * e_radius, 1.0
    if family == "rademacher":
        # xi = (2 B - p) / sqrt(p), B ~ Binomial(p, 1/2)
        k = np.arange(p + 1)
        pmf = stats.binom.pmf(k, p, 0.5)
        return (float(np.sum(pmf * np.abs(2 * k - p))) / math.sqrt(p),
                1.0 - float(stats.binom.pmf(p // 2, p, 0.5)) * (p % 2 == 0))
    if family == "sphere":
        # xi = sqrt(p) t with t = 2 Beta(al, al) - 1, al = (p - 1) / 2
        al = (p - 1) / 2.0
        e_abs_t = stats.beta.expect(lambda u: abs(2.0 * u - 1.0), args=(al, al))
        return math.sqrt(p) * float(e_abs_t), 1.0
    raise ValueError(f"unknown family {family!r}")
