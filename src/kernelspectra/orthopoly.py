"""Moments of xi_p = sqrt(p) X^T Y and orthonormal polynomials built from them.

The law of xi_p is the ensemble's: ``xi_moments`` takes the exact moments
and ``envelope_coeffs`` the Monte Carlo draws from the family's record in
``ensembles.FAMILIES``, so this module names no family. Polynomials come
from the Cholesky factor M = L L^T of the Hankel moment matrix: row j of
L^{-1} holds the coefficients of p_j (Golub & Welsch, Math. Comp. 1969).
The p -> infinity comparison target is the orthonormal Hermite family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .ensembles import FAMILIES, MAX_EXACT_ORDER, VectorEnsemble, normal_moment
from .errors import DegeneracyError, EnvelopeError
from .kernels import Envelope

# The degeneracy rule below rejects M_7 for every moment sequence: on the
# exact N(0, 1) moments det M_6 is 9.9e-10 of its Hadamard bound, det M_7
# only 5.4e-14, so degree 6 is the highest that can be built.
MAX_DEGREE = 6
DEFAULT_SAMPLES = 1_000_000  # xi draws when a caller sets none
_CHUNK = 8192  # draws per power-sum product; its rows stay in cache

# det M_j <= this multiple of its Hadamard bound counts as degenerate
_DEGENERACY_RTOL = 1e-10
# rounding allowed in nu = E k^2 - a_0^2, relative to E k^2: for a
# constant envelope nu is 0 exactly and its rounding stays below 5e-14 E k^2
_ROUNDING_RTOL = 1e-12


@dataclass(frozen=True)
class MomentSequence:
    """Exact moments m_0, ..., m_K of xi_p or of its Gaussian limit."""

    exact_values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.exact_values) < 3:
            raise ValueError("a moment sequence needs at least m_0, m_1, m_2")
        if tuple(self.exact_values[:3]) != (1, 0, 1):
            raise ValueError("moment sequence violates normalization: "
                             "(m_0, m_1, m_2) must be (1, 0, 1)")

    @property
    def values(self) -> np.ndarray:
        return np.array([float(e) for e in self.exact_values])

    def exact(self, k: int) -> Fraction:
        return self.exact_values[k]


def gaussian_limit_moments(order: int) -> MomentSequence:
    """Moments of the standard normal: the p -> infinity limit of xi_p."""
    return MomentSequence(tuple(Fraction(normal_moment(k))
                                for k in range(order + 1)))


def _power_sums(xi: np.ndarray, order: int,
                weight: Callable[[np.ndarray], np.ndarray], weight_order: int,
                counts: np.ndarray | None = None) -> np.ndarray:
    """S[j, m] = sum_i c_i k_i^j xi_i^m for j = 0 ... weight_order and
    m = 0 ... order, with c = counts (or 1) and k = weight(xi).

    Each chunk of _CHUNK draws fills the rows V[m] = c xi^m and W[j] = k^j
    in place and adds the one product W V^T, so no temporary outgrows
    the chunk.
    """
    size = min(xi.size, _CHUNK)
    V = np.empty((order + 1, size))
    W = np.empty((weight_order + 1, size))
    W[0] = 1.0
    sums = np.zeros((weight_order + 1, order + 1))
    for c0 in range(0, xi.size, _CHUNK):
        x = xi[c0:c0 + _CHUNK]
        v, w = V[:, :x.size], W[:, :x.size]
        v[0] = 1.0 if counts is None else counts[c0:c0 + _CHUNK]
        for m in range(1, order + 1):
            np.multiply(v[m - 1], x, out=v[m])
        k = weight(x)
        for j in range(1, weight_order + 1):
            np.multiply(w[j - 1], k, out=w[j])
        sums += w @ v.T
    return sums


def xi_moments(ensemble: VectorEnsemble, K: int) -> MomentSequence:
    """Exact moments m_0 ... m_K of xi_p for the given ensemble, 2 <= K <= 16."""
    if not 2 <= K <= MAX_EXACT_ORDER:
        raise ValueError(f"need 2 <= K <= {MAX_EXACT_ORDER}, got {K}")
    return MomentSequence(FAMILIES[ensemble.family].xi_moments(ensemble.p, K))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def hermite(k: int) -> np.ndarray:
    """Monomial coefficients (ascending) of the orthonormal Hermite h_k.

    Orthonormal under the standard Gaussian weight, positive leading
    coefficient: the probabilists' He_k scaled by 1/sqrt(k!).
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return (np.polynomial.hermite_e.herme2poly([0.0] * k + [1.0])
            / math.sqrt(math.factorial(k)))


def _hankel(values: np.ndarray, j: int) -> np.ndarray:
    return np.array([[values[r + c] for c in range(j + 1)] for r in range(j + 1)])


def _orthonormal_factor(values: np.ndarray, k: int) -> np.ndarray:
    """C = L^{-1} for the Cholesky factor M_k = L L^T of the Hankel matrix
    of the moments ``values`` = m_0, m_1, ...

    Row j of C holds p_j's ascending coefficients: C M_k C^T = I, C_jj > 0.
    The first j whose M_j has no Cholesky factor, or whose det M_j =
    prod L_ii^2 is at most _DEGENERACY_RTOL max(Hadamard bound, 1), is
    degenerate.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if len(values) <= 2 * k:
        raise ValueError(f"need moments up to order {2 * k} for degree {k}, "
                         f"have {len(values) - 1}")
    M = _hankel(values, k)
    for j in range(k + 1):
        try:
            L = np.linalg.cholesky(M[:j + 1, :j + 1])
        except np.linalg.LinAlgError:
            raise DegeneracyError(
                f"det M_{j} is not positive (no Cholesky factor): measure "
                f"supported on fewer than {j + 1} points or moments "
                f"inconsistent") from None
        det = float(np.prod(np.diag(L)) ** 2)
        hadamard = float(np.prod(np.linalg.norm(M[:j + 1, :j + 1], axis=1)))
        if det <= _DEGENERACY_RTOL * max(hadamard, 1.0):
            raise DegeneracyError(
                f"det M_{j} = {det:.3g} is at most {_DEGENERACY_RTOL:g} x "
                f"max(Hadamard bound {hadamard:.3g}, 1): measure numerically"
                f" supported on fewer than {j + 1} points or moments "
                f"inconsistent")
    return np.tril(np.linalg.inv(L))  # inv leaves noise above the diagonal


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormal polynomials p_0 ... p_degree for one moment sequence:
    row k of the lower-triangular ``factor`` C (C M C^T = I) holds p_k."""

    moments: MomentSequence
    degree: int
    factor: np.ndarray

    @property
    def coefficients(self) -> tuple[np.ndarray, ...]:
        return tuple(row[:k + 1] for k, row in enumerate(self.factor))

    def evaluate(self, k: int, x) -> np.ndarray | float:
        return np.polynomial.polynomial.polyval(x, self.coefficients[k])

    def gram_residual(self) -> float:
        """max_{j,k} |<p_j, p_k> - delta_jk| = max |C M C^T - I|."""
        C = self.factor
        gram = C @ _hankel(self.moments.values, self.degree) @ C.T
        return float(np.max(np.abs(gram - np.eye(self.degree + 1))))


def build_basis(m: MomentSequence, degree: int) -> OrthoBasis:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree capped at {MAX_DEGREE}, got {degree}")
    return OrthoBasis(moments=m, degree=degree,
                      factor=_orthonormal_factor(m.values, degree))


def hermite_deviation(basis: OrthoBasis, k: int, grid) -> float:
    """max over the grid of |p_k(x) - h_k(x)| / (1 + |x|^k)."""
    if k > basis.degree:
        raise ValueError(f"degree {k} exceeds basis degree {basis.degree}")
    x = np.asarray(grid, dtype=float)
    pk = np.asarray(basis.evaluate(k, x))
    hk = np.polynomial.polynomial.polyval(x, hermite(k))
    return float(np.max(np.abs(pk - hk) / (1.0 + np.abs(x) ** k)))


# ---------------------------------------------------------------------------
# Envelope coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleParams:
    """Estimated admissibility data of an envelope for one (family, p).

    a_k = E[k(xi_p, p) p_k(xi_p)] for the rescaled kernel
    k(x, p) = sqrt(p) f(x / sqrt(p), p); nu is Var[k(xi_p, p)] via the
    Plancherel identity and tail_mass = nu - sum_{1<=k<=L} a_k^2.
    """

    degree: int
    coefficients: np.ndarray
    stderr: np.ndarray
    a: float
    nu: float
    nu_stderr: float
    tail_mass: float
    samples: int

    def __post_init__(self):
        mean_square = self.nu + self.coefficients[0] ** 2  # E k^2
        if self.a ** 2 > self.nu * (1.0 + 1e-9) + _ROUNDING_RTOL * mean_square:
            raise ValueError(f"a^2 = {self.a**2:.6g} exceeds nu = {self.nu:.6g}")


def envelope_coeffs(f: Envelope, ensemble: VectorEnsemble, L: int,
                    samples: int = DEFAULT_SAMPLES, seed: int = 0) -> AdmissibleParams:
    """Monte Carlo expansion coefficients of the rescaled envelope.

    The orthonormal basis is built from the empirical moments of the same
    sample, which makes {p_0 ... p_L} exactly orthonormal in L2 of the
    empirical measure; Bessel's inequality then guarantees tail_mass >= 0
    and a^2 <= nu up to float rounding.
    """
    if not 1 <= L <= MAX_DEGREE:
        raise ValueError(f"need 1 <= L <= {MAX_DEGREE}, got {L}")
    if samples < 1000:
        raise ValueError(f"need samples >= 1000, got {samples}")
    p = ensemble.p
    sqrt_p = np.sqrt(p)

    def rescaled(xi: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            kv = sqrt_p * np.asarray(f(xi / sqrt_p, p), dtype=float)
        if not np.all(np.isfinite(kv)):
            bad = int(np.argmax(~np.isfinite(kv)))
            raise EnvelopeError(
                f"rescaled envelope {f.name!r} non-finite at xi={float(xi[bad])!r}",
                x=float(xi[bad]))
        return kv

    # row j holds sum k(xi)^j xi^m over the draws
    draws = FAMILIES[ensemble.family].xi_draws(p, samples, seed)
    sums = sum(_power_sums(xi, 2 * L, rescaled, 4, c) for xi, c in draws)
    C = _orthonormal_factor(sums[0] / samples, L)

    cross = sums[1, :L + 1] / samples
    coeffs = C @ cross
    k2 = sums[2] / samples
    second = np.einsum("ij,jk,ik->i", C, _hankel(k2, L), C)  # E k^2 p_j^2
    errs = np.sqrt(np.maximum(second - coeffs ** 2, 0.0) / samples)

    mean_k = cross[0]
    nu = float(k2[0] - mean_k ** 2)
    # Delta method: nu_hat - nu is to first order the mean of k^2 - 2 mu k,
    # so the subtracted (mean k)^2 term adds its own sampling error.
    # Var(k^2 - 2 mu k) = Var(k^2) - 4 mu Cov(k^2, k) + 4 mu^2 Var(k).
    var_k2 = sums[4, 0] / samples - k2[0] ** 2
    cov_k2_k = sums[3, 0] / samples - k2[0] * mean_k
    var_nu = var_k2 - 4.0 * mean_k * cov_k2_k + 4.0 * mean_k ** 2 * nu
    nu_stderr = float(np.sqrt(max(var_nu, 0.0) / samples))
    tail = float(nu - np.sum(coeffs[1:] ** 2))
    tail_stderr = float(np.sqrt(nu_stderr ** 2
                                + np.sum((2.0 * coeffs[1:] * errs[1:]) ** 2)))
    if tail < -3.0 * tail_stderr - _ROUNDING_RTOL * k2[0]:
        warnings.warn(f"negative tail mass {tail:.3g} beyond 3 stderr "
                      f"({tail_stderr:.3g}): coefficients inconsistent",
                      stacklevel=2)
    return AdmissibleParams(degree=L, coefficients=coeffs, stderr=errs,
                            a=float(coeffs[1]), nu=nu, nu_stderr=nu_stderr,
                            tail_mass=tail, samples=samples)
