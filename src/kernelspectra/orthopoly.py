"""Moments of xi_p = sqrt(p) X^T Y and orthonormal polynomials built from them.

The exact route enumerates partitions of the moment order over distinct
coordinate indices, valid for iid-entry ensembles; Monte Carlo covers the
rest. Polynomials come from the bordered Hankel determinant construction
with normalization c_k^2 = 1/(det M_{k-1} det M_k), and the p -> infinity
comparison target is the orthonormal Hermite family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._rng import TAG_BATCH, substream
from .ensembles import GAUSSIAN, RADEMACHER, SPHERE, VectorEnsemble
from .errors import CapabilityError, DegeneracyError, EnvelopeError
from .kernels import Envelope

EXACT = "exact-combinatorial"
MONTE_CARLO = "monte-carlo"

MAX_EXACT_ORDER = 16
MAX_DEGREE = 8  # Hankel matrices of higher-order MC moments are ill-conditioned

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


@lru_cache(maxsize=64)
def _partitions_min2(k: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of k into parts >= 2, non-increasing."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 1, -1):
            if remaining - part in (1,):
                continue  # a leftover of 1 can never be completed
            rec(remaining - part, part, prefix + (part,))

    rec(k, k, ())
    return tuple(out)


def _exact_xi_moment(family: str, p: int, k: int) -> Fraction:
    """E xi_p^k by summing over multiplicity patterns of the index tuple.

    Tuples (i_1, ..., i_k) are grouped by the partition of k given by
    their value multiplicities; a partition with m parts contributes
    (number of position set-partitions) * (falling factorial of p over m)
    * prod_r (entry moment of order part_r)^2.
    """
    if k == 0:
        return Fraction(1)
    if k % 2 == 1:
        return Fraction(0)  # symmetric entries kill every odd pattern
    total = Fraction(0)
    for parts in _partitions_min2(k):
        m = len(parts)
        if m > p:
            continue
        moment_prod = Fraction(1)
        for part in parts:
            q = _entry_moment(family, part)
            if q == 0:
                moment_prod = Fraction(0)
                break
            moment_prod *= q * q
        if moment_prod == 0:
            continue
        ways = math.factorial(k)
        for part in parts:
            ways //= math.factorial(part)
        for mult in _multiplicities(parts).values():
            ways //= math.factorial(mult)
        falling = 1
        for r in range(m):
            falling *= (p - r)
        total += Fraction(ways * falling) * moment_prod
    return total / Fraction(p ** (k // 2))


def _multiplicities(parts: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in parts:
        out[part] = out.get(part, 0) + 1
    return out


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


def xi_moments(ensemble: VectorEnsemble, K: int, method: str = EXACT,
               seed: int = 0, samples: int = 1_000_000) -> MomentSequence:
    """Moments m_0 ... m_K of xi_p for the given ensemble.

    The exact method enumerates index partitions and needs iid entries
    (gaussian, rademacher) and K <= 16; Monte Carlo works for any family
    and returns standard errors.
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
        exact = tuple(_exact_xi_moment(ensemble.family, ensemble.p, k)
                      for k in range(K + 1))
        return MomentSequence(values=np.array([float(e) for e in exact]),
                              source=EXACT, family=ensemble.family,
                              p=ensemble.p, exact_values=exact)
    if method != MONTE_CARLO:
        raise ValueError(f"method must be {EXACT!r} or {MONTE_CARLO!r}")
    if samples < 100:
        raise ValueError(f"need samples >= 100, got {samples}")
    sums = np.zeros(2 * K + 1)
    done = 0
    batch_index = 0
    while done < samples:
        count = min(200_000, samples - done)
        rng = substream(seed, TAG_BATCH, batch_index)
        xi = _sample_xi(ensemble.family, ensemble.p, rng, count)
        powers = np.ones_like(xi)
        sums[0] += count
        for m in range(1, 2 * K + 1):
            powers = powers * xi
            sums[m] += powers.sum()
        done += count
        batch_index += 1
    raw = sums / samples
    values = raw[:K + 1].copy()
    values[0] = 1.0
    stderr = np.sqrt(np.maximum(raw[2 * np.arange(K + 1)]
                                - values ** 2, 0.0) / samples)
    return MomentSequence(values=values, source=MONTE_CARLO,
                          family=ensemble.family, p=ensemble.p, stderr=stderr)


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
    dets = hankel_determinants(m, k)
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
        cj, ck = self.coefficients[j], self.coefficients[k]
        total = 0.0
        for r, a in enumerate(cj):
            for s, b in enumerate(ck):
                total += a * b * self.moments.values[r + s]
        return total

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
    coeffs = tuple(orthopoly_from_moments(m, k) for k in range(degree + 1))
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
    done = 0
    batch_index = 0
    while done < samples:
        count = min(200_000, samples - done)
        rng = substream(seed, TAG_BATCH, batch_index)
        xi = _sample_xi(ensemble.family, p, rng, count)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            kv = sqrt_p * np.asarray(f(xi / sqrt_p, p), dtype=float)
        if not np.all(np.isfinite(kv)):
            bad = int(np.argmax(~np.isfinite(kv)))
            raise EnvelopeError(
                f"rescaled envelope {f.name!r} non-finite at xi={xi[bad]!r}",
                x=float(xi[bad]))
        kv2 = kv * kv
        powers = np.ones_like(xi)
        sum_xi[0] += count
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
        done += count
        batch_index += 1
    raw = sum_xi / samples
    values = raw.copy()
    values[0] = 1.0
    stderr_m = np.full(n_mom + 1, np.nan)
    stderr_m[:L + 1] = np.sqrt(np.maximum(
        raw[2 * np.arange(L + 1)] - values[:L + 1] ** 2, 0.0) / samples)
    mhat = MomentSequence(values=values, source=MONTE_CARLO,
                          family=ensemble.family, p=p, stderr=stderr_m)
    basis = build_basis(mhat, L)

    cross = sum_k_xi / samples
    coeffs = np.array([float(np.dot(basis.coefficients[k],
                                    cross[:k + 1]))
                       for k in range(L + 1)])
    k2 = sum_k2_xi / samples
    errs = np.empty(L + 1)
    for k in range(L + 1):
        c = basis.coefficients[k]
        second = 0.0
        for r, a_r in enumerate(c):
            for s, a_s in enumerate(c):
                second += a_r * a_s * k2[r + s]
        errs[k] = np.sqrt(max(second - coeffs[k] ** 2, 0.0) / samples)

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
