"""Closed-form limit law of the p-dependent model.

The Stieltjes transform m(z) of the limit law with parameters (a, nu,
gamma) satisfies

    -1/m = z + a (1 - 1/(1 + (a/gamma) m)) + ((nu - a^2)/gamma) m .

With c = a/gamma and d = (nu - a^2)/gamma, multiplying by m (1 + c m)
gives the cubic

    d c m^3 + ((z + a) c + d) m^2 + (z + c) m + 1 = 0 ,

and m(z) is its root with Im m > 0. The solver takes the roots w = 1/m
of the monic reversed cubic w^3 + (z + c) w^2 + ((z + a) c + d) w + d c
in closed form over z: Cardano's largest root, one Newton step, and the
other two by Vieta. Where d c = 0 the degree in m drops (the MP quadratic
at nu = a^2, the semicircle of variance nu/gamma at a = 0, m = -1/z at
a = nu = 0) and the lost root is w = 0 exactly.
Every Stieltjes transform has Im(-1/m) >= Im z, while a root with
Im m <= 0 has Im w >= 0, so the Herglotz root is the one with
Im w < -Im z / 2. Rounding noise in Im w is ~1e-16 max|w|, so below
Im z = 1e-12 max|w| it is one with Im w < -1e-12 max|w|, or else the
nonzero root nearest to the one picked at Re z + 1e-12 max|w| i (m is
continuous). If that root is real (Im w within the noise and |Im w| <=
1e-3 |Re w|) and 1e-3 max|w| clear of the others, Im m is
Im z / x'(Re m), m's first-order term off the axis (x(m) is below);
else Im m, noise of either sign, is floored at Im z |m|^2.

Atoms and the support are closed-form too:

- A root can only blow up where the leading coefficient in m vanishes.
  For d > 0 it is the constant d c (or d), so there is no atom. At
  nu = a^2 > 0 it is (z + a) c: an atom at -a of mass 1 - gamma when
  gamma < 1. At a = nu = 0 the law is the unit atom at 0.
- The support edges are the critical values of the inverse map
  x(m) = -1/m - a c m / (1 + c m) - d m. At d c = 0 they are
  c -+ 2 sqrt(a c + d). Otherwise, with w = 1/m, m^2 x'(m) = 0 reads
  a c / (w + c)^2 + d / w^2 = 1. Its root t = w > 0 gives the left end
  of the support's hull, -t - a c / (t + c) - d / t, and its root
  w = -c - s below -c the right end, c + s + a c / s + d / (s + c).
  Both t and s solve A / t^2 + B / (t + c)^2 = 1 over t > 0, with
  (A, B) = (d, a c) and (a c, d): the left side is convex and falls from
  inf to 0, so Newton's method from below converges to the one root.
  Solving for s itself keeps the near-double root at tiny gamma, where
  s ~ a / sqrt(gamma) is far below c = a / gamma, and each edge is a sum
  of terms of one sign.

The law's CDF is closed-form as well. Since x is a rational function of
m, an antiderivative G of m in z, dG/dz = m, is elementary:

    G(m) = log m - gamma (log(1 + c m) + 1/(1 + c m)) - d m^2 / 2 ,

with the gamma term only for a > 0, because m x'(m) = 1/m
- a c m / (1 + c m)^2 - d m. Im m and Im(1 + c m) stay positive, so the
principal logs are continuous along x + i eps, and Im G -> 0 as
x -> -inf: Im G(m(x + i eps)) / pi is the CDF of the law smoothed by a
Cauchy kernel of width eps. At eps = 1e-300 it is the law's own CDF,
which LimitLaw.cdf evaluates inside the support's hull. law.csv
tabulates the law smoothed at the fixed eps = 1e-3, with the density
Im m(x + i eps) / pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvio import read_table
from .errors import SolverError
from .spectral import Law

_EPSILON = 1e-3           # law.csv's inversion offset, in its .meta
_AXIS = 1e-300            # cdf's offset: the exact law, no root part subnormal
_MASS_TOL = 1e-3          # the window must hold all mass but this
_GRID_POINTS = 2000       # rows of every solved table
_ISOLATED = 1e-3          # a root this far from the others, over max|w|
# cube roots of unity; a complex ufunc at import pages in ~0.25 MB of code
_CUBE_ROOTS = np.array([1.0, -0.5 + 0.75 ** 0.5 * 1j, -0.5 - 0.75 ** 0.5 * 1j])


def _check_params(a: float, nu: float, gamma: float) -> None:
    """Refuse a law that the solver cannot evaluate without overflow."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not 0 <= a < np.inf:
        raise ValueError(f"a must be nonnegative and finite, got {a}")
    if not np.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    if nu < a * a * (1.0 - 1e-12):
        raise ValueError(f"need a^2 <= nu, got a^2={a*a:.6g}, nu={nu:.6g}")
    if not np.isfinite(_quartic(a, nu, gamma)).all():
        raise ValueError(f"c = a/gamma, d = (nu - a^2)/gamma or the support "
                         f"quartic overflows at a={a}, nu={nu}, gamma={gamma}")


def _cd(a: float, nu: float, gamma: float) -> tuple[float, float]:
    """c = a/gamma and d = (nu - a^2)/gamma, d clamped at 0."""
    return a / gamma, max(nu - a * a, 0.0) / gamma


def _quartic(a: float, nu: float, gamma: float) -> list[float]:
    c, d = _cd(a, nu, gamma)
    return [1.0, 2.0 * c, c * c - d - a * c, -2.0 * c * d, -c * c * d]


def _reciprocal_roots(a: float, nu: float, gamma: float, z) -> np.ndarray:
    """Roots w = 1/m of the reversed cubic at each z, shape z.shape + (3,)."""
    c, d = _cd(a, nu, gamma)
    z = np.asarray(z, dtype=complex)
    B, C, D = z + c, (z + a) * c + d, d * c
    s = np.maximum(np.maximum(abs(B), np.sqrt(abs(C))), np.cbrt(D))
    b, c, d = B / s, C / s / s, D / s / s / s  # in v = w / s: |v| <= 2
    with np.errstate(all="ignore"):  # a rejected Newton step may overflow
        # Cardano: v = u + t - b/3, u^3 the larger root of y^2 + Q y -
        # P^3/27, u t = -P/3, u and t over the cube roots of unity
        P, Q = c - b * b / 3.0, (2.0 / 27.0) * b * b * b - b * c / 3.0 + d
        r = np.sqrt(0.25 * Q * Q + P * P * P / 27.0)
        r = np.where((Q.conjugate() * r).real > 0, -r, r) - 0.5 * Q
        u = np.cbrt(abs(r)) * np.exp(1j * np.angle(r) / 3.0)
        t = np.where(u == 0, 0.0, -P / (3.0 * u))
        v = (u[..., None] * _CUBE_ROOTS + t[..., None] / _CUBE_ROOTS
             - b[..., None] / 3.0)
        v = np.take_along_axis(v, abs(v).argmax(-1)[..., None], -1)[..., 0]
        f = ((v + b) * v + c) * v + d  # one Newton step where it lowers |f|
        x = v - f / ((3.0 * v + 2.0 * b) * v + c)
        v = np.where(abs(((x + b) * x + c) * x + d) < abs(f), x, v)
        S, R = (c + d / v) / v, -d / v  # the other two: y^2 - S y + R = 0
        e = np.frexp(np.maximum(abs(S), np.sqrt(abs(R))))[1]  # of max |y|
        h = np.ldexp(1.0, np.where(e < -400, e, 0))  # keeps tiny S^2 normal
        S, R = S / h, R / h / h
        r = np.sqrt(S * S - 4.0 * R)
        q = 0.5 * (S + np.where((S.conjugate() * r).real < 0, -r, r))
        y = np.divide(R, q, out=np.zeros_like(q), where=d != 0)
    return np.stack([v, q * h, y * h], axis=-1) * s[..., None]


def _stieltjes(a: float, nu: float, gamma: float, z) -> np.ndarray:
    """m(z) at every point of ``z``; raises SolverError where the
    Herglotz root is not unique."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("the limit law's Stieltjes transform requires "
                         "Im z > 0")
    w = _reciprocal_roots(a, nu, gamma, z)
    herglotz = w.imag < -0.5 * z.imag[..., None]
    lift = 1e-12 * abs(w).max(axis=-1)
    near = z.imag < lift
    if np.any(near):  # the root with Im w < 0 beyond rounding noise, or
        # else the one nearest the root picked at Re z + i lift (a point
        # not near is solved at z alone, as its lift may be subnormal)
        clear = w.imag < -lift[..., None]
        herglotz = np.where(near[..., None], clear, herglotz)
        lost = near & ~clear.any(axis=-1)
        w_lost, up_by = w[lost], lift[lost]
        w_up = _reciprocal_roots(a, nu, gamma, z[lost].real + 1j * up_by)
        up = w_up.imag < -0.5 * up_by[..., None]
        gap = abs(w_lost - np.where(up, w_up, 0).sum(axis=-1)[..., None])
        gap[w_lost == 0] = np.inf  # the lost root, m = inf
        herglotz[lost] = (gap == gap.min(axis=-1, keepdims=True)) \
            & (up.sum(axis=-1) == 1)[..., None]
    unique = herglotz.sum(axis=-1) == 1
    if not unique.all():
        at = complex(z[~unique].flat[0])
        raise SolverError(
            f"{int(np.sum(~unique))} point(s) without exactly one Herglotz "
            f"root, first at z={at} (a={a}, nu={nu}, gamma={gamma})", z=at)
    root = w[herglotz].reshape(z.shape)
    m = 1.0 / root
    im = m.imag
    if np.any(near):  # a real root clear of the others: Im z / x'(Re m)
        c, d = _cd(a, nu, gamma)
        apart = np.where(herglotz | (w == 0), np.inf,
                         abs(w - root[..., None])).min(axis=-1)
        with np.errstate(all="ignore"):  # non-finite slopes are not used
            m2 = m.real * m.real
            slope = 1.0 - m2 * (a * c / (1.0 + c * m.real) ** 2 + d)  # m^2 x'
            real = ((slope > 0) & (apart > _ISOLATED * abs(w).max(axis=-1))
                    & (root.imag >= -lift)  # no Im w beyond rounding noise
                    & (abs(root.imag) <= _ISOLATED * abs(root.real)))
            im = np.where(real, z.imag * m2 / slope, im)
    floor = z.imag * abs(m) * abs(m)  # finite, as |m| <= 1/Im z
    return np.where(near, m.real + 1j * np.maximum(im, floor), m)


def equation_residual(m, a: float, nu: float, gamma: float, z):
    """| -1/m - z - a(1 - 1/(1 + (a/gamma) m)) - ((nu - a^2)/gamma) m |."""
    pole = 1.0 + (a / gamma) * np.asarray(m)
    return np.abs(-1.0 / np.asarray(m) - np.asarray(z)
                  - a * (1.0 - 1.0 / pole)
                  - ((nu - a * a) / gamma) * np.asarray(m))


def solve_point(a: float, nu: float, gamma: float, z: complex) -> complex:
    """Herglotz solution m(z) of the functional equation at one point.

    Raises ValueError unless Im z > 0, and SolverError where rounding
    leaves no unique root with Im m > 0.
    """
    _check_params(a, nu, gamma)
    return complex(_stieltjes(a, nu, gamma, complex(z)))


def _atoms(a: float, nu: float, gamma: float
           ) -> tuple[tuple[float, float], ...]:
    if _cd(a, nu, gamma)[1] > 0:
        return ()
    if a == 0:
        return ((0.0, 1.0),)
    return ((float(-a), float(1.0 - gamma)),) if gamma < 1 else ()


def _edge_root(A: float, B: float, c: float) -> float:
    """The t > 0 with A/t^2 + B/(t + c)^2 = 1, for A > 0 and B, c >= 0."""
    t = max(np.sqrt(A), np.sqrt(B) - c)  # where the left side is >= 1
    while True:  # Newton from below rises, and stops past the root
        u, v = A / (t * t), B / ((t + c) * (t + c))
        after = t + (u + v - 1.0) / (2.0 * (u / t + v / (t + c)))
        if not after > t:
            return t
        t = after


def _support(a: float, nu: float, gamma: float) -> tuple[float, float]:
    c, d = _cd(a, nu, gamma)
    if d * c == 0:
        r = 2.0 * np.sqrt(a * c + d)
        return float(c - r), float(c + r)
    t, s = _edge_root(d, a * c, c), _edge_root(a * c, d, c)
    lo = -(t + a * c / (t + c) + d / t)
    return float(lo), float(c + s + a * c / s + d / (s + c))


def _window(a: float, nu: float, gamma: float) -> tuple[float, float]:
    """solve_grid's window: the support's hull and the atoms, widened on
    each side by 4 eps / (pi * 1e-3), outside which the smoothed law's
    Cauchy tails put at most 5e-4 of its mass, and below an atom by an ulp
    at least."""
    atoms = _atoms(a, nu, gamma)
    ends = [*_support(a, nu, gamma), *(loc for loc, _ in atoms)]
    margin = 4.0 * _EPSILON / (np.pi * _MASS_TOL)
    lo = min(ends) - margin
    if atoms:  # where margin rounds off, an atom at lo would fall in cdf[0]
        lo = min(lo, np.nextafter(min(ends), -np.inf))
    return lo, max(ends) + margin


def _smoothed_cdf(a: float, nu: float, gamma: float,
                  m: np.ndarray) -> np.ndarray:
    """CDF of the law smoothed at width eps at x, from m = m(x + i eps)."""
    c, d = _cd(a, nu, gamma)
    g = np.log(m) - 0.5 * d * m * m
    if a > 0:
        g -= gamma * (np.log(1.0 + c * m) + 1.0 / (1.0 + c * m))
    return g.imag / np.pi


@dataclass(frozen=True)
class LimitLaw(Law):
    """Limit law, with its table inverted on a grid at eps = 1e-3.

    ``m_values`` is m(x + i eps) at the grid points; ``cdf_values`` holds
    the smoothed law's CDF there, right-continuous, with each atom as an
    exact step instead of its smoothed profile.
    """

    a: float
    nu: float
    gamma: float
    grid: np.ndarray
    m_values: np.ndarray
    cdf_values: np.ndarray
    atoms: tuple[tuple[float, float], ...]

    def cdf(self, x) -> np.ndarray | float:
        """Exact CDF: Im G(m(x + i0)) / pi inside the support's hull, where
        the atoms lie below, and outside it the mass at or below x."""
        x_arr = np.asarray(x, dtype=float)
        lo, hi = self.support
        out = np.zeros(x_arr.shape)
        for loc, mass in self.atoms:
            out += mass * (x_arr >= loc)
        out[x_arr >= hi] = 1.0
        inside = (lo < x_arr) & (x_arr < hi)
        m = _stieltjes(self.a, self.nu, self.gamma, x_arr[inside] + 1j * _AXIS)
        out[inside] = _smoothed_cdf(self.a, self.nu, self.gamma, m)
        out = np.clip(out, 0.0, 1.0)
        return out if np.ndim(x) else float(out)

    @property
    def support(self) -> tuple[float, float]:
        """Hull of the continuous part's support, from the closed form."""
        return _support(self.a, self.nu, self.gamma)

    @property
    def window(self) -> tuple[float, float]:
        """The solved grid's end points."""
        return float(self.grid[0]), float(self.grid[-1])

    def table(self) -> dict[str, np.ndarray]:
        """x, density, cdf and m = re_m + i im_m at the grid points. The
        density is the raw inversion Im m / pi at eps (atoms appear in it
        as spikes of height ~ mass/(pi eps))."""
        return {"x": self.grid, "density": self.m_values.imag / np.pi,
                "cdf": self.cdf_values, "re_m": self.m_values.real,
                "im_m": self.m_values.imag}

    def stieltjes(self, z) -> np.ndarray | complex:
        """Exact transform from the cubic's roots (no interpolation)."""
        m = _stieltjes(self.a, self.nu, self.gamma, z)
        return m if np.ndim(z) else complex(m)

    def to_record(self) -> dict:
        return {"type": "functional-equation", "a": self.a, "nu": self.nu,
                "gamma": self.gamma, "epsilon": _EPSILON,
                "atoms": list(self.atoms)}


def solve_grid(a: float, nu: float, gamma: float) -> LimitLaw:
    """The limit law, with its table inverted at imaginary offset 1e-3 on a
    grid of _GRID_POINTS over _window. Raises SolverError when the grid
    holds less than 1 - 1e-3 of the mass.
    """
    _check_params(a, nu, gamma)
    atoms = _atoms(a, nu, gamma)
    grid = np.linspace(*_window(a, nu, gamma), _GRID_POINTS)
    m_eps = _stieltjes(a, nu, gamma, grid + 1j * _EPSILON)
    cdf = _smoothed_cdf(a, nu, gamma, m_eps)
    for loc, mass in atoms:
        cdf += mass * ((grid >= loc) - 0.5
                       - np.arctan((grid - loc) / _EPSILON) / np.pi)
    if cdf[-1] - cdf[0] < 1.0 - _MASS_TOL:
        raise SolverError(f"recovered mass {cdf[-1] - cdf[0]:.6f} misses 1 "
                          f"beyond tolerance {_MASS_TOL}")
    np.clip(cdf, 0.0, 1.0, out=cdf)
    return LimitLaw(a=a, nu=nu, gamma=gamma, grid=grid, m_values=m_eps,
                    cdf_values=cdf, atoms=atoms)


def load_limit_law(path: str | Path) -> LimitLaw:
    """The LimitLaw save_limit_law wrote to ``path``, solved again from the
    a, nu and gamma of its sidecar, which with eps determine every row."""
    _, meta = read_table(path, ("x", "density", "cdf", "re_m", "im_m"))
    if not {"a", "nu", "gamma", "epsilon"} <= meta.keys():
        raise ValueError(f"{path}.meta lacks the law's parameters")
    if float(meta["epsilon"]) != _EPSILON:
        raise ValueError(f"{path}.meta records epsilon={meta['epsilon']}, "
                         f"but tables are solved at epsilon={_EPSILON}")
    return solve_grid(*(float(meta[k]) for k in ("a", "nu", "gamma")))
