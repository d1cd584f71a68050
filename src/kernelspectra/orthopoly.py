"""Moments of xi_p = sqrt(p) X^T Y and orthonormal polynomials built from them.

The exact route raises the exponential moment series of one coordinate
product to the p-th power in rational arithmetic, valid for iid-entry
ensembles; Monte Carlo covers the rest. Polynomials come from the
bordered Hankel determinant construction with normalization
c_k^2 = 1/(det M_{k-1} det M_k), and the p -> infinity comparison target
is the orthonormal Hermite family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from ._rng import TAG_BATCH, substream
from .ensembles import GAUSSIAN, RADEMACHER, SPHERE, VectorEnsemble
from .errors import CapabilityError, DegeneracyError, EnvelopeError
from .kernels import Envelope

EXACT = "exact-combinatorial"
MONTE_CARLO = "monte-carlo"

MAX_EXACT_ORDER = 16
MAX_DEGREE = 8  # Hankel matrices of higher-order MC moments are ill-conditioned
_MC_BATCH = 200_000  # xi draws per Monte Carlo batch

# det M_j <= this multiple of its Hadamard bound counts as degenerate
_DEGENERACY_RTOL = 1e-10


def normal_moment(k: int) -> int:
    """E N^k for standard normal: (k-1)!! for even k, 0 for odd."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if k % 2 == 1:
        return 0
    out = 1
    for j in range(k - 1, 0, -2):
        out *= j
    return out


def _entry_moment(family: str, j: int) -> Fraction:
    """j-th moment of the standardized entry sqrt(p) * X_1i."""
    if j % 2 == 1:
        return Fraction(0)
    if family == GAUSSIAN:
        return Fraction(normal_moment(j))
    if family == RADEMACHER:
        return Fraction(1)
    raise CapabilityError(
        f"exact entry moments unavailable for family {family!r}")


def _exact_xi_moments(family: str, p: int, K: int) -> tuple[Fraction, ...]:
    """E xi_p^k for k = 0 ... K, exactly.

    sqrt(p) xi_p is a sum of p iid copies of u = x y, with x and y
    standardized entries, so E (sqrt(p) xi_p)^k = k! [t^k] A(t)^p with
    A(t) = sum_j E[x^j]^2 t^j / j!. J.C.P. Miller's recurrence takes the
    power: b_n = (1/n) sum_{j=1..n} ((p + 1) j - n) a_j b_{n-j}. Odd
    moments vanish, since A has only even terms.
    """
    a = [_entry_moment(family, j) ** 2 / math.factorial(j)
         for j in range(K + 1)]
    b = [Fraction(1)]
    for n in range(1, K + 1):
        b.append(sum(((p + 1) * j - n) * a[j] * b[n - j]
                     for j in range(1, n + 1)) / n)
    return tuple(math.factorial(k) * b[k] / p ** (k // 2)
                 for k in range(K + 1))


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_0, ..., m_K of xi_p (or of its Gaussian limit when p is None)."""

    values: np.ndarray
    source: str
    family: str | None = None
    p: int | None = None
    stderr: np.ndarray | None = None
    exact_values: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.size < 3:
            raise ValueError("a moment sequence needs at least m_0, m_1, m_2")
        tol = np.zeros(3)
        if self.source == MONTE_CARLO and self.stderr is not None:
            tol = 5.0 * np.nan_to_num(np.asarray(self.stderr)[:3]) + 1e-12
        checks = (abs(vals[0] - 1.0), abs(vals[1]), abs(vals[2] - 1.0))
        for idx, err in enumerate(checks):
            if err > tol[idx] + 1e-12:
                raise ValueError(
                    f"moment sequence violates normalization: m_{idx} off by "
                    f"{err:.3g} (source {self.source})")

    @property
    def order(self) -> int:
        return self.values.size - 1

    def exact(self, k: int) -> Fraction:
        if self.exact_values is None:
            raise CapabilityError("exact values only exist for the "
                                  "combinatorial source")
        return self.exact_values[k]


def gaussian_limit_moments(order: int) -> MomentSequence:
    """Moments of the standard normal: the p -> infinity limit of xi_p."""
    exact = tuple(Fraction(normal_moment(k)) for k in range(order + 1))
    return MomentSequence(values=np.array([float(e) for e in exact]),
                          source=EXACT, family=None, p=None,
                          exact_values=exact)


def _sample_xi(family: str, p: int, rng: np.random.Generator,
               count: int) -> np.ndarray:
    """Draw xi_p = sqrt(p) X^T Y via exact distributional identities.

    gaussian:   xi = sqrt(chi2_p / p) * N(0,1)
    rademacher: xi = (2 Binom(p, 1/2) - p) / sqrt(p)
    sphere:     xi = sqrt(p) (2 Beta((p-1)/2, (p-1)/2) - 1), and +-1 at p=1
    """
    if family == GAUSSIAN:
        radius = np.sqrt(rng.chisquare(p, size=count) / p)
        return radius * rng.standard_normal(count)
    if family == RADEMACHER:
        return (2.0 * rng.binomial(p, 0.5, size=count) - p) / np.sqrt(p)
    if family == SPHERE:
        if p == 1:
            return 2.0 * rng.integers(0, 2, size=count) - 1.0
        t = 2.0 * rng.beta((p - 1) / 2.0, (p - 1) / 2.0, size=count) - 1.0
        return np.sqrt(p) * t
    raise ValueError(f"unknown family {family!r}")


def _xi_batches(ensemble: VectorEnsemble, samples: int,
                seed: int) -> Iterator[np.ndarray]:
    """``samples`` draws of xi_p in batches of up to _MC_BATCH; batch b
    comes from substream(seed, TAG_BATCH, b)."""
    for b, done in enumerate(range(0, samples, _MC_BATCH)):
        yield _sample_xi(ensemble.family, ensemble.p,
                         substream(seed, TAG_BATCH, b),
                         min(_MC_BATCH, samples - done))


def _mc_moments(ensemble: VectorEnsemble, power_sums: np.ndarray,
                samples: int, order: int) -> MomentSequence:
    """Monte Carlo moments m_0 ... m_order from sums of xi^j over the draws.

    m_0 is pinned to 1. Moment m_k gets the standard error
    sqrt((mean xi^2k - m_k^2) / samples) when xi^2k was summed, else NaN.
    """
    raw = power_sums / samples
    values = raw[:order + 1].copy()
    values[0] = 1.0
    known = np.arange(min(order, (raw.size - 1) // 2) + 1)
    stderr = np.full(order + 1, np.nan)
    stderr[known] = np.sqrt(np.maximum(raw[2 * known] - values[known] ** 2,
                                       0.0) / samples)
    return MomentSequence(values=values, source=MONTE_CARLO,
                          family=ensemble.family, p=ensemble.p, stderr=stderr)


def xi_moments(ensemble: VectorEnsemble, K: int, method: str = EXACT,
               seed: int = 0, samples: int = 1_000_000) -> MomentSequence:
    """Moments m_0 ... m_K of xi_p for the given ensemble.

    The exact method raises a series to the p-th power and needs iid
    entries (gaussian, rademacher) and K <= 16; Monte Carlo works for any
    family and returns standard errors.
    """
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    if method == EXACT:
        if K > MAX_EXACT_ORDER:
            raise ValueError(f"exact moments limited to K <= {MAX_EXACT_ORDER}")
        if not ensemble.iid_entries:
            raise CapabilityError(
                f"exact moments need iid entries; family "
                f"{ensemble.family!r} requires the monte-carlo method")
        exact = _exact_xi_moments(ensemble.family, ensemble.p, K)
        return MomentSequence(values=np.array([float(e) for e in exact]),
                              source=EXACT, family=ensemble.family,
                              p=ensemble.p, exact_values=exact)
    if method != MONTE_CARLO:
        raise ValueError(f"method must be {EXACT!r} or {MONTE_CARLO!r}")
    if samples < 100:
        raise ValueError(f"need samples >= 100, got {samples}")
    sums = np.zeros(2 * K + 1)
    for xi in _xi_batches(ensemble, samples, seed):
        powers = np.ones_like(xi)
        sums[0] += xi.size
        for m in range(1, 2 * K + 1):
            powers = powers * xi
            sums[m] += powers.sum()
    return _mc_moments(ensemble, sums, samples, K)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def hermite(k: int) -> np.ndarray:
    """Monomial coefficients (ascending) of the orthonormal Hermite h_k.

    Orthonormal under the standard Gaussian weight, positive leading
    coefficient; satisfies x h_k = sqrt(k+1) h_{k+1} + sqrt(k) h_{k-1}.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    prev = np.array([1.0])
    if k == 0:
        return prev
    cur = np.array([0.0, 1.0])
    for deg in range(1, k):
        nxt = np.zeros(deg + 2)
        nxt[1:] = cur
        nxt[:deg] -= np.sqrt(deg) * prev
        nxt /= np.sqrt(deg + 1)
        prev, cur = cur, nxt
    return cur


def _hankel(values: np.ndarray, j: int) -> np.ndarray:
    return np.array([[values[r + c] for c in range(j + 1)] for r in range(j + 1)])


def _hankel_form(u: np.ndarray, v: np.ndarray, h: np.ndarray) -> float:
    """sum_r sum_s u_r v_s h_{r+s}, accumulated in row order."""
    total = 0.0
    for r, a in enumerate(u):
        for s, b in enumerate(v):
            total += a * b * h[r + s]
    return total


def hankel_determinants(m: MomentSequence, k: int) -> np.ndarray:
    """det M_0, ..., det M_k, raising DegeneracyError on a collapsed one."""
    if m.order < 2 * k:
        raise ValueError(f"need moments up to order {2 * k} for degree {k}, "
                         f"have {m.order}")
    dets = np.empty(k + 1)
    for j in range(k + 1):
        M = _hankel(m.values, j)
        det = float(np.linalg.det(M))
        hadamard = float(np.prod(np.linalg.norm(M, axis=1)))
        if det <= _DEGENERACY_RTOL * max(hadamard, 1.0):
            raise DegeneracyError(
                f"det M_{j} = {det:.3g} is not positive: measure supported "
                f"on fewer than {j + 1} points or moments inconsistent")
        dets[j] = det
    return dets


def orthopoly_from_moments(m: MomentSequence, k: int) -> np.ndarray:
    """Coefficients (ascending) of the k-th orthonormal polynomial.

    Bordered Hankel determinant expansion: the coefficient of x^j is the
    signed minor obtained by deleting column j from the moment rows,
    scaled by c_k = 1/sqrt(det M_{k-1} det M_k). The leading coefficient
    c_k det M_{k-1} is positive by construction.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return _orthopoly(m, k, hankel_determinants(m, k))


def _orthopoly(m: MomentSequence, k: int, dets: np.ndarray) -> np.ndarray:
    """orthopoly_from_moments given det M_0, ..., det M_j for some j >= k."""
    if k == 0:
        return np.array([1.0])
    c_k = 1.0 / np.sqrt(dets[k - 1] * dets[k])
    rows = np.array([[m.values[r + c] for c in range(k + 1)]
                     for r in range(k)])
    coeffs = np.empty(k + 1)
    cols = np.arange(k + 1)
    for j in range(k + 1):
        minor = rows[:, cols != j]
        coeffs[j] = (-1.0) ** (k + j) * float(np.linalg.det(minor))
    return c_k * coeffs


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormal polynomials p_0 ... p_degree for one moment sequence."""

    moments: MomentSequence
    degree: int
    coefficients: tuple[np.ndarray, ...]
    hankel_dets: np.ndarray

    def evaluate(self, k: int, x) -> np.ndarray | float:
        return np.polynomial.polynomial.polyval(x, self.coefficients[k])

    def inner_product(self, j: int, k: int) -> float:
        """<p_j, p_k> under the moment functional."""
        return _hankel_form(self.coefficients[j], self.coefficients[k],
                            self.moments.values)

    def gram_residual(self) -> float:
        """max_{j,k} |<p_j, p_k> - delta_jk|."""
        worst = 0.0
        for j in range(self.degree + 1):
            for k in range(j + 1):
                target = 1.0 if j == k else 0.0
                worst = max(worst, abs(self.inner_product(j, k) - target))
        return worst


def build_basis(m: MomentSequence, degree: int) -> OrthoBasis:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree capped at {MAX_DEGREE}, got {degree}")
    dets = hankel_determinants(m, degree)
    coeffs = tuple(_orthopoly(m, k, dets) for k in range(degree + 1))
    return OrthoBasis(moments=m, degree=degree, coefficients=coeffs,
                      hankel_dets=dets)


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
    family: str
    p: int
    samples: int

    def __post_init__(self):
        if self.a ** 2 > self.nu * (1.0 + 1e-9) + 1e-12:
            raise ValueError(f"a^2 = {self.a**2:.6g} exceeds nu = {self.nu:.6g}")

    def to_record(self) -> dict:
        rec = {"type": "admissible-params", "family": self.family, "p": self.p,
               "degree": self.degree, "a": self.a, "nu": self.nu,
               "tail_mass": self.tail_mass, "samples": self.samples}
        for k in range(self.degree + 1):
            rec[f"a_{k}"] = float(self.coefficients[k])
        return rec


def envelope_coeffs(f: Envelope, ensemble: VectorEnsemble, L: int,
                    samples: int = 1_000_000, seed: int = 0) -> AdmissibleParams:
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
    n_mom = 2 * L
    sum_xi = np.zeros(n_mom + 1)        # sum xi^m
    sum_k_xi = np.zeros(L + 1)          # sum k(xi) xi^j
    sum_k2_xi = np.zeros(n_mom + 1)     # sum k(xi)^2 xi^m
    sum_k3 = 0.0
    sum_k4 = 0.0
    for xi in _xi_batches(ensemble, samples, seed):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            kv = sqrt_p * np.asarray(f(xi / sqrt_p, p), dtype=float)
        if not np.all(np.isfinite(kv)):
            bad = int(np.argmax(~np.isfinite(kv)))
            raise EnvelopeError(
                f"rescaled envelope {f.name!r} non-finite at xi={xi[bad]!r}",
                x=float(xi[bad]))
        kv2 = kv * kv
        powers = np.ones_like(xi)
        sum_xi[0] += xi.size
        sum_k_xi[0] += kv.sum()
        sum_k2_xi[0] += kv2.sum()
        sum_k3 += float((kv2 * kv).sum())
        sum_k4 += float((kv2 * kv2).sum())
        for mdeg in range(1, n_mom + 1):
            powers = powers * xi
            sum_xi[mdeg] += powers.sum()
            if mdeg <= L:
                sum_k_xi[mdeg] += (kv * powers).sum()
            sum_k2_xi[mdeg] += (kv2 * powers).sum()
    basis = build_basis(_mc_moments(ensemble, sum_xi, samples, n_mom), L)

    cross = sum_k_xi / samples
    coeffs = np.array([float(np.dot(basis.coefficients[k],
                                    cross[:k + 1]))
                       for k in range(L + 1)])
    k2 = sum_k2_xi / samples
    errs = np.empty(L + 1)
    for k in range(L + 1):
        c = basis.coefficients[k]
        errs[k] = np.sqrt(max(_hankel_form(c, c, k2) - coeffs[k] ** 2, 0.0)
                          / samples)

    mean_k = cross[0]
    nu = float(k2[0] - mean_k ** 2)
    # Delta method: nu_hat - nu is to first order the mean of k^2 - 2 mu k,
    # so the subtracted (mean k)^2 term adds its own sampling error.
    # Var(k^2 - 2 mu k) = Var(k^2) - 4 mu Cov(k^2, k) + 4 mu^2 Var(k).
    var_k2 = sum_k4 / samples - k2[0] ** 2
    cov_k2_k = sum_k3 / samples - k2[0] * mean_k
    var_nu = var_k2 - 4.0 * mean_k * cov_k2_k + 4.0 * mean_k ** 2 * nu
    nu_stderr = float(np.sqrt(max(var_nu, 0.0) / samples))
    tail = float(nu - np.sum(coeffs[1:] ** 2))
    tail_stderr = float(np.sqrt(nu_stderr ** 2
                                + np.sum((2.0 * coeffs[1:] * errs[1:]) ** 2)))
    if tail < -3.0 * tail_stderr:
        warnings.warn(f"negative tail mass {tail:.3g} beyond 3 stderr "
                      f"({tail_stderr:.3g}): coefficients inconsistent",
                      stacklevel=2)
    return AdmissibleParams(degree=L, coefficients=coeffs, stderr=errs,
                            a=float(coeffs[1]), nu=nu, nu_stderr=nu_stderr,
                            tail_mass=tail, family=ensemble.family, p=p,
                            samples=samples)
