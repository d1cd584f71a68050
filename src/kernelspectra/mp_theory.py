"""Marchenko-Pastur law in the gamma = p/n parameterization, and its affine images.

The continuous density is gamma/(2 pi x) * sqrt((b - x)(x - a)) on [a, b]
with a = (1 - 1/sqrt(gamma))^2, b = (1 + 1/sqrt(gamma))^2, plus an atom of
mass (1 - gamma) at 0 when gamma < 1. This is the limiting spectral law of
the Gram matrix X^T X for columns normalized to E||X||^2 = 1.

The closed-form Stieltjes transform is derived by mapping to the standard
sample-covariance parameterization with ratio lambda = 1/gamma, where m
solves lambda z m^2 + (z + lambda - 1) m + 1 = 0; the root is selected by
the Herglotz property (Im m > 0), not by a principal-branch convention.
The CDF is closed-form too: on the support, Im G(m(x + i0)) / pi for an
elementary antiderivative G of m, exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .kernels import KernelSpec, linearization_coefficients
from .spectral import Law


def _check_gamma(gamma: float) -> None:
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


def mp_support(gamma: float) -> tuple[float, float]:
    """Endpoints [a, b] of the continuous part."""
    _check_gamma(gamma)
    r = 1.0 / np.sqrt(gamma)
    return float((1.0 - r) ** 2), float((1.0 + r) ** 2)


def mp_atom_mass(gamma: float) -> float:
    """Mass of the atom at 0; nonzero only for gamma < 1."""
    _check_gamma(gamma)
    return float(max(0.0, 1.0 - gamma))


def mp_density(gamma: float, x) -> np.ndarray | float:
    """Continuous density; the atom at 0 is reported separately."""
    a, b = mp_support(gamma)
    # gamma / (2 pi x) overflows for x < ~1e-309, next to a zero left edge
    # only; there the density is gamma / (2 pi) sqrt(b - x) / sqrt(x).
    # A scalar twin of the array path, bit-equal to it: criterion 01's 120
    # quadratures take 0.21 s through it and 1.0 s, its gate, through arrays.
    if np.ndim(x) == 0:
        xs = float(x)
        if not a < xs < b:
            return 0.0
        out = gamma / (2.0 * np.pi * xs) * math.sqrt((b - xs) * (xs - a))
        return float(out if out < math.inf else gamma / (2.0 * np.pi)
                     * math.sqrt(b - xs) * (math.sqrt(xs - a) / xs))
    x_arr = np.asarray(x, dtype=float)
    inside = (x_arr > a) & (x_arr < b)
    out = np.zeros_like(x_arr)
    xs = x_arr[inside]
    with np.errstate(over="ignore"):
        d = gamma / (2.0 * np.pi * xs) * np.sqrt((b - xs) * (xs - a))
    out[inside] = np.where(d < np.inf, d, gamma / (2.0 * np.pi)
                           * np.sqrt(b - xs) * (np.sqrt(xs - a) / xs))
    return out


def _mp_continuous_cdf(gamma: float, x) -> np.ndarray:
    """CDF of the continuous part, in closed form.

    On (a, b) the boundary value m(x + i0) is elementary and
    G(m) = log m - gamma (log(1 + m/gamma) + 1/(1 + m/gamma)) is an
    antiderivative of m, so the full CDF (atom included) is Im G / pi.
    Im m and Im(1 + m/gamma) are positive there, so the principal logs
    are continuous. Outside (a, b) the CDF is constant.
    """
    a, b = mp_support(gamma)
    atom = mp_atom_mass(gamma)
    x_arr = np.asarray(x, dtype=float)
    out = np.where(x_arr >= b, 1.0 - atom, 0.0)
    inside = (x_arr > a) & (x_arr < b)
    xs = x_arr[inside]
    m = gamma * ((1.0 - 1.0 / gamma) - xs
                 + 1j * np.sqrt((b - xs) * (xs - a))) / (2.0 * xs)
    w = 1.0 + m / gamma
    out[inside] = (np.log(m) - gamma * (np.log(w) + 1.0 / w)).imag / np.pi - atom
    return out


def mp_cdf(gamma: float, x) -> np.ndarray | float:
    """Right-continuous CDF including the atom at 0."""
    x_arr = np.asarray(x, dtype=float)
    out = _mp_continuous_cdf(gamma, x_arr) + mp_atom_mass(gamma) * (x_arr >= 0.0)
    return out if np.ndim(x) else float(out)


def mp_stieltjes(gamma: float, z) -> np.ndarray | complex:
    """Stieltjes transform m(z) of the full law (atom included), Im z > 0.

    Far out, |z| >= 1e4 (1 + lambda), the root formula's numerator
    cancels; there m is the root of smaller modulus (|m| <= 1/dist(z,
    support)), taken from the other by Vieta: their product is 1/(lambda z).
    """
    _check_gamma(gamma)
    z_arr = np.asarray(z, dtype=complex)
    if np.any(z_arr.imag <= 0):
        raise ValueError("mp_stieltjes requires Im z > 0")
    lam = 1.0 / gamma
    far = abs(z_arr) >= 1e4 * (1.0 + lam)
    # each formula gets a stand-in at the other's points; u^2 would overflow
    u = np.where(far, z_arr, 4j * (1.0 + lam)) - 1.0 - lam
    m_far = -2.0 / (2.0 * lam + u + u * np.sqrt(1.0 - 4.0 * lam / u / u))
    zn = np.where(far, 4j * (1.0 + lam), z_arr)
    disc = np.sqrt((zn - 1.0 - lam) ** 2 - 4.0 * lam)
    m_plus = ((1.0 - lam) - zn + disc) / (2.0 * lam * zn)
    m_minus = ((1.0 - lam) - zn - disc) / (2.0 * lam * zn)
    m = np.where(m_plus.imag > m_minus.imag, m_plus, m_minus)
    if np.any(m.imag <= 0):
        raise SolverError("no MP root with Im m > 0: Im m underflows")
    m = np.where(far, m_far, m)
    return m if np.ndim(z) else complex(m)


@dataclass(frozen=True)
class AffineMPLaw(Law):
    """Image of the MP law under x -> shift + scale * x.

    scale = 0 marks the degenerate case: the law collapses to a unit atom
    at the shift. Otherwise the continuous part lives on the mapped
    support (reversed when scale < 0) and the MP atom at 0 is transported
    to the shift with mass (1 - gamma) * 1{gamma < 1}.
    """

    gamma: float
    shift: float
    scale: float

    def __post_init__(self):
        _check_gamma(self.gamma)
        lo, hi = self._widened(0.1)  # table()'s range; nan if shift or scale is
        if not np.isfinite(hi - lo):
            raise ValueError(f"shift and scale must be finite, with a finite "
                             f"table range, got shift={self.shift}, "
                             f"scale={self.scale}")

    @property
    def degenerate(self) -> bool:
        return self.scale == 0.0

    @property
    def atom_mass(self) -> float:
        return 1.0 if self.degenerate else mp_atom_mass(self.gamma)

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        if self.atom_mass > 0.0:
            return ((self.shift, self.atom_mass),)
        return ()

    @property
    def support(self) -> tuple[float, float]:
        if self.degenerate:
            return (self.shift, self.shift)
        a, b = mp_support(self.gamma)
        lo, hi = self.shift + self.scale * a, self.shift + self.scale * b
        return (min(lo, hi), max(lo, hi))

    def _widened(self, margin: float) -> tuple[float, float]:
        lo, hi = self.support
        span = max(hi - lo, 1.0)
        return lo - margin * span, hi + margin * span

    @property
    def window(self) -> tuple[float, float]:
        """Support widened by 5% of its span (at least 0.05) on each side."""
        return self._widened(0.05)

    def table(self) -> dict[str, np.ndarray]:
        """x, density, cdf on 2001 points over the support widened by 10%."""
        x = np.linspace(*self._widened(0.1), 2001)
        return {"x": x, "density": self.density(x), "cdf": self.cdf(x)}

    def _pullback(self, x) -> np.ndarray:
        """(x - shift) / scale: +-inf where it overflows at a tiny |scale|,
        which the MP law's CDF and density take as their limits."""
        with np.errstate(over="ignore"):
            return (np.asarray(x, dtype=float) - self.shift) / self.scale

    def density(self, x) -> np.ndarray | float:
        """Continuous density at x (atoms excluded)."""
        x_arr = np.asarray(x, dtype=float)
        if self.degenerate:
            out = np.zeros_like(x_arr)
        else:
            out = np.asarray(mp_density(self.gamma, self._pullback(x_arr)))
            out = out / abs(self.scale)
        return out if np.ndim(x) else float(out)

    def cdf(self, x) -> np.ndarray | float:
        x_arr = np.asarray(x, dtype=float)
        if self.degenerate:
            out = (x_arr >= self.shift).astype(float)
        elif self.scale > 0:
            out = np.asarray(mp_cdf(self.gamma, self._pullback(x_arr)))
        else:  # 1 - F(y-), where F(y-) is F(y) less the atom at y = 0
            y = self._pullback(x_arr)
            out = 1.0 - (mp_cdf(self.gamma, y) - self.atom_mass * (y == 0.0))
        return out if np.ndim(x) else float(out)

    def stieltjes(self, z) -> np.ndarray | complex:
        """Transform of the pushforward: (1/scale) m_MP((z - shift)/scale).

        Where w = (z - shift)/scale overflows (everywhere when scale = 0),
        the law is an atom at the shift to relative |scale| b / |z - shift|,
        and m is its transform 1/(shift - z).
        """
        z_arr = np.asarray(z, dtype=complex)
        if np.any(z_arr.imag <= 0):
            raise ValueError("stieltjes requires Im z > 0")
        m = 1.0 / (self.shift - z_arr)
        with np.errstate(all="ignore"):
            w = (z_arr - self.shift) / self.scale
        mapped = np.isfinite(w)
        if mapped.any():  # conj(w) has Im > 0 where scale < 0; 1j stands in
            w = np.where(mapped, w if self.scale > 0 else np.conjugate(w), 1j)
            m_mp = mp_stieltjes(self.gamma, w)
            m_mp = m_mp if self.scale > 0 else np.conjugate(m_mp)
            m = np.where(mapped, m_mp / self.scale, m)
        return m if np.ndim(z) else complex(m)

    def to_record(self) -> dict:
        return {
            "type": "affine-mp",
            "gamma": self.gamma,
            "shift": self.shift,
            "scale": self.scale,
            "atom_mass": self.atom_mass,
            "atom_location": self.shift,
        }


def predicted_law(spec: KernelSpec, gamma: float) -> AffineMPLaw:
    """Affine MP image (or degenerate atom) predicted for spec's model.

    The shift/scale come from the linearization theorems:
    inner/keep shifts the spectrum by f(1) - f(0) - f'(0) and scales by
    f'(0); inner/zero shifts by -f(0) - f'(0); the distance kernel shifts
    by f(0) - f(2) + 2 f'(2) and scales by -2 f'(2). A vanishing scale
    degenerates the law to an atom at the shift. The slopes are the ones
    the envelope records; an envelope missing one it needs (a p-dependent
    envelope, a jump or a kink) raises DerivativeError.
    """
    alpha, beta = linearization_coefficients(spec)
    return AffineMPLaw(gamma=float(gamma), shift=float(alpha), scale=float(beta))
