"""Solver for the limiting functional equation of the p-dependent model.

The Stieltjes transform m(z) of the limit law with parameters (a, nu,
gamma) satisfies

    -1/m = z + a (1 - 1/(1 + (a/gamma) m)) + ((nu - a^2)/gamma) m ,

whose Herglotz solution is unique. The solver is a damped fixed-point
iteration (damping 0.5, restarted with stronger damping if the iterate
leaves the upper half-plane or approaches the pole), and densities come
from Stieltjes inversion rho(x) ~ Im m(x + i eps) / pi on a grid.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvio import read_table, write_table
from .errors import SolverError
from .spectral import Law

RESIDUAL_TOL = 1e-10      # functional-equation residual bound on returned m
STEP_TOL = 1e-13          # successive-change stopping rule
MAX_STEPS = 10_000
_POLE_TOL = 1e-12
_MASS_TOL = 1e-3          # CDF terminal mass must reach 1 within this
_BOUNDARY_DENSITY = 1e-8  # unsmoothed density bound at the window edges
_PROBE_EPS = 1e-9         # imaginary offset used for the edge probes


def _check_params(a: float, nu: float, gamma: float) -> None:
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not 0 <= a < np.inf:
        raise ValueError(f"a must be nonnegative and finite, got {a}")
    if not np.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    if nu < a * a * (1.0 - 1e-12):
        raise ValueError(f"need a^2 <= nu, got a^2={a*a:.6g}, nu={nu:.6g}")


def _rhs(m, a: float, nu: float, gamma: float, z):
    pole = 1.0 + (a / gamma) * m
    return -1.0 / (z + a * (1.0 - 1.0 / pole) + ((nu - a * a) / gamma) * m)


def equation_residual(m, a: float, nu: float, gamma: float, z):
    """| -1/m - z - a(1 - 1/(1 + (a/gamma) m)) - ((nu - a^2)/gamma) m |."""
    pole = 1.0 + (a / gamma) * np.asarray(m)
    return np.abs(-1.0 / np.asarray(m) - np.asarray(z)
                  - a * (1.0 - 1.0 / pole)
                  - ((nu - a * a) / gamma) * np.asarray(m))


def _scaled_residual(m, a: float, nu: float, gamma: float, z):
    """|1 + m D(m)|, the residual of the pole-free form of the equation.

    Multiplying through by m avoids the 1/|m|^2 float floor of the raw
    residual at far-field points where |m| ~ 1/|z| is tiny.
    """
    pole = 1.0 + (a / gamma) * np.asarray(m)
    den = (np.asarray(z) + a * (1.0 - 1.0 / pole)
           + ((nu - a * a) / gamma) * np.asarray(m))
    return np.abs(1.0 + np.asarray(m) * den)


_SCALED_RESIDUAL_TOL = 1e-11


def _residual_ok(m, a: float, nu: float, gamma: float, z) -> np.ndarray:
    return ((equation_residual(m, a, nu, gamma, z) < RESIDUAL_TOL)
            | (_scaled_residual(m, a, nu, gamma, z) < _SCALED_RESIDUAL_TOL))


def solve_point(a: float, nu: float, gamma: float, z: complex,
                m0: complex | None = None) -> complex:
    """Herglotz solution m(z) of the functional equation at one point.

    Damped fixed-point iteration from m0 = -1/z with damping 0.5; on a
    Herglotz violation or pole approach the iteration restarts with the
    damping halved. The returned value satisfies the residual bound
    RESIDUAL_TOL and Im m > 0.
    """
    _check_params(a, nu, gamma)
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"solve_point requires Im z > 0, got z={z}")
    start = complex(m0) if m0 is not None else -1.0 / z
    damping = 0.5
    last_residual = np.inf
    for _attempt in range(6):
        m = start
        ok = True
        for _step in range(MAX_STEPS):
            if abs(1.0 + (a / gamma) * m) < _POLE_TOL:
                ok = False
                break
            m_new = (1.0 - damping) * m + damping * _rhs(m, a, nu, gamma, z)
            if m_new.imag <= 0 or not np.isfinite(m_new):
                ok = False
                break
            step = abs(m_new - m)
            m = m_new
            if step < STEP_TOL:
                break
        if ok:
            last_residual = float(equation_residual(m, a, nu, gamma, z))
            if bool(_residual_ok(m, a, nu, gamma, z)):
                return m
        damping *= 0.5
        start = -1.0 / z
    raise SolverError(
        f"fixed point did not converge at z={z} (a={a}, nu={nu}, "
        f"gamma={gamma}); last residual {last_residual:.3g}",
        z=z, residual=last_residual)


def _solve_vector(a: float, nu: float, gamma: float, zs: np.ndarray,
                  m0: np.ndarray | None = None,
                  damping: float = 0.5) -> np.ndarray:
    """Cold vectorized fixed point over a batch of points.

    Points that stall or leave the Herglotz domain are re-solved one at a
    time through solve_point's restart ladder.
    """
    zs = np.asarray(zs, dtype=complex)
    m = (-1.0 / zs) if m0 is None else np.array(m0, dtype=complex)
    active = np.ones(zs.shape, dtype=bool)
    failed = np.zeros(zs.shape, dtype=bool)
    for _step in range(MAX_STEPS):
        if not active.any():
            break
        ma = m[active]
        za = zs[active]
        m_new = (1.0 - damping) * ma + damping * _rhs(ma, a, nu, gamma, za)
        bad = (m_new.imag <= 0) | ~np.isfinite(m_new)
        conv = (np.abs(m_new - ma) < STEP_TOL) & ~bad
        m_new[bad] = ma[bad]
        m[active] = m_new
        idx = np.flatnonzero(active)
        failed[idx[bad]] = True
        active[idx[bad | conv]] = False
    still = active | failed
    still |= ~_residual_ok(m, a, nu, gamma, zs)
    for i in np.flatnonzero(still):
        warm = complex(m[i - 1]) if i > 0 and not still[i - 1] else None
        m[i] = solve_point(a, nu, gamma, complex(zs[i]), m0=warm)
    return m


def _cauchy_profile(x: np.ndarray, loc: float, mass: float,
                    eps: float) -> np.ndarray:
    return mass * eps / (np.pi * ((x - loc) ** 2 + eps ** 2))


def _refine_atom(a: float, nu: float, gamma: float, lo: float, hi: float,
                 eps: float) -> float:
    """Golden-section maximization of Im m(x + i eps) over [lo, hi]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1 = solve_point(a, nu, gamma, complex(x1, eps)).imag
    f2 = solve_point(a, nu, gamma, complex(x2, eps)).imag
    for _ in range(30):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = solve_point(a, nu, gamma, complex(x2, eps)).imag
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = solve_point(a, nu, gamma, complex(x1, eps)).imag
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LimitLaw(Law):
    """Numerically inverted limit law on a grid.

    ``density`` is the raw inversion Im m / pi at the requested epsilon
    (atoms appear in it as spikes of height ~ mass/(pi eps)); ``cdf_values``
    holds right-continuous values at the grid points with detected atoms
    integrated exactly as steps rather than through the quadrature.
    """

    a: float
    nu: float
    gamma: float
    epsilon: float
    grid: np.ndarray
    m_values: np.ndarray
    density: np.ndarray
    cdf_values: np.ndarray
    atoms: tuple[tuple[float, float], ...]

    @property
    def continuous_cdf(self) -> np.ndarray:
        steps = np.zeros_like(self.grid)
        for loc, mass in self.atoms:
            steps += mass * (self.grid >= loc)
        return self.cdf_values - steps

    def cdf(self, x) -> np.ndarray | float:
        """Trapezoidal CDF evaluator: 0 below the grid, 1 above it."""
        x_arr = np.asarray(x, dtype=float)
        cont = self.continuous_cdf
        out = np.interp(x_arr, self.grid, cont, left=0.0, right=float(cont[-1]))
        for loc, mass in self.atoms:
            out = out + mass * (x_arr >= loc)
        out = np.where(x_arr > self.grid[-1], 1.0, out)
        out = np.clip(out, 0.0, 1.0)
        return out if np.ndim(x) else float(out)

    @property
    def window(self) -> tuple[float, float]:
        """The solved grid's end points."""
        return float(self.grid[0]), float(self.grid[-1])

    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, density, cdf) at the grid points."""
        return self.grid, self.density, self.cdf_values

    def stieltjes(self, z) -> np.ndarray | complex:
        """Exact transform by re-solving the equation (no interpolation)."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.array([solve_point(self.a, self.nu, self.gamma, zz)
                        for zz in z_arr])
        return out if np.ndim(z) else complex(out[0])

    def to_record(self) -> dict:
        return {"type": "functional-equation", "a": self.a, "nu": self.nu,
                "gamma": self.gamma, "epsilon": self.epsilon,
                "atoms": list(self.atoms)}


def _detect_atoms(a: float, nu: float, gamma: float, grid: np.ndarray,
                  im_eps: np.ndarray, eps: float
                  ) -> tuple[tuple[float, float], ...]:
    """Locate atoms as spikes whose Im m doubles when eps halves.

    Candidate spikes are local maxima of Im m on the grid; each peak is
    refined off-grid by golden-section search (an atom between grid
    points shows up damped by (grid offset / eps)^2, so the scaling test
    only works at the refined location). Atoms lighter than ~10 eps are
    indistinguishable from smoothing noise and are not reported.
    """
    med = float(np.median(im_eps))
    threshold = max(1.0, 5.0 * med)
    inner = im_eps[1:-1]
    is_peak = ((inner > threshold) & (inner >= im_eps[:-2])
               & (inner >= im_eps[2:]))
    peaks = np.flatnonzero(is_peak) + 1
    if peaks.size == 0:
        return ()
    h = grid[1] - grid[0]
    merged: list[int] = []
    for i in peaks:
        if merged and i - merged[-1] <= 3:
            if im_eps[i] > im_eps[merged[-1]]:
                merged[-1] = i
        else:
            merged.append(i)
    atoms: list[tuple[float, float]] = []
    for peak in merged:
        loc = _refine_atom(a, nu, gamma, grid[peak] - h, grid[peak] + h,
                           eps / 2)
        im1 = solve_point(a, nu, gamma, complex(loc, eps)).imag
        im2 = solve_point(a, nu, gamma, complex(loc, eps / 2)).imag
        if im2 > 1.6 * im1:  # 1/eps scaling; hard edges grow only ~sqrt(2)
            mass = (eps / 2) * im2
            if mass > 10.0 * eps:
                atoms.append((float(loc), float(mass)))
    return tuple(atoms)


def _initial_range(a: float, nu: float, gamma: float) -> tuple[float, float]:
    w = 2.0 * np.sqrt(max(nu, 1e-12)) * (1.0 + 1.0 / np.sqrt(gamma))
    w += abs(a) * (2.0 + 1.0 / gamma) + 1.0
    return -w, w


def solve_grid(a: float, nu: float, gamma: float,
               x_range: tuple[float, float] | None = None,
               n_points: int = 2000, epsilon: float = 1e-3) -> LimitLaw:
    """Invert the limit law on a real grid at imaginary offset epsilon.

    The window auto-widens geometrically until the unsmoothed density at
    both edges (probed at a tiny offset) is below 1e-8 and the recovered
    mass is within 1e-3 of 1. Grid points are solved cold in a vectorized
    chunk; a warm-vs-cold consistency check on sample points guards
    against branch hopping.
    """
    _check_params(a, nu, gamma)
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if n_points < 16:
        raise ValueError(f"need n_points >= 16, got {n_points}")
    if x_range is None:
        lo, hi = _initial_range(a, nu, gamma)
    else:
        lo, hi = float(x_range[0]), float(x_range[1])
        if not lo < hi:
            raise ValueError(f"empty x_range {x_range}")
    symmetric = a == 0.0 and x_range is None

    for _expansion in range(60):
        grid = np.linspace(lo, hi, n_points)
        m_eps = _solve_vector(a, nu, gamma, grid + 1j * epsilon)
        atoms = _detect_atoms(a, nu, gamma, grid, m_eps.imag, epsilon)
        density = m_eps.imag / np.pi
        cont_density = density.copy()
        for loc, mass in atoms:
            cont_density -= _cauchy_profile(grid, loc, mass, epsilon)
        np.maximum(cont_density, 0.0, out=cont_density)
        h = grid[1] - grid[0]
        cont_cdf = np.concatenate(([0.0], np.cumsum(
            0.5 * (cont_density[1:] + cont_density[:-1]) * h)))
        mass_total = cont_cdf[-1] + sum(m for _, m in atoms)

        probe_lo = solve_point(a, nu, gamma, complex(lo, _PROBE_EPS)).imag / np.pi
        probe_hi = solve_point(a, nu, gamma, complex(hi, _PROBE_EPS)).imag / np.pi
        widen_lo = probe_lo >= _BOUNDARY_DENSITY
        widen_hi = probe_hi >= _BOUNDARY_DENSITY
        if mass_total < 1.0 - _MASS_TOL and not (widen_lo or widen_hi):
            widen_lo = widen_hi = True
        if not (widen_lo or widen_hi):
            break
        width = hi - lo
        if symmetric:
            lo -= 0.5 * width
            hi += 0.5 * width
        else:
            if widen_lo:
                lo -= 0.5 * width
            if widen_hi:
                hi += 0.5 * width
    else:
        raise SolverError(
            f"support window did not stabilize for (a={a}, nu={nu}, "
            f"gamma={gamma}); last mass {mass_total:.6f}")

    # continuation-consistency guard: cold and warm solves must agree
    for idx in (n_points // 4, n_points // 2, (3 * n_points) // 4):
        cold = solve_point(a, nu, gamma, complex(grid[idx], epsilon))
        if abs(cold - m_eps[idx]) > 1e-10:
            raise SolverError(
                f"warm/cold mismatch at x={grid[idx]}: "
                f"|diff|={abs(cold - m_eps[idx]):.3g}", z=complex(grid[idx], epsilon))

    cdf = cont_cdf.copy()
    for loc, mass in atoms:
        cdf += mass * (grid >= loc)
    np.clip(cdf, 0.0, 1.0, out=cdf)
    if abs(cdf[-1] - 1.0) > _MASS_TOL:
        raise SolverError(f"recovered mass {cdf[-1]:.6f} misses 1 beyond "
                          f"tolerance {_MASS_TOL}")
    return LimitLaw(a=a, nu=nu, gamma=gamma, epsilon=epsilon, grid=grid,
                    m_values=m_eps, density=density, cdf_values=cdf,
                    atoms=atoms)


_LAW_COLUMNS = ("x", "density", "cdf", "re_m", "im_m")


def save_limit_law(path: str | Path, law: LimitLaw) -> None:
    """CSV columns x, density, cdf, re_m, im_m; parameters in <path>.meta."""
    columns = (law.grid, law.density, law.cdf_values, law.m_values.real,
               law.m_values.imag)
    write_table(path, _LAW_COLUMNS, np.column_stack(columns).tolist(),
                law.to_record().items())


def load_limit_law(path: str | Path) -> LimitLaw:
    rows, meta = read_table(path, _LAW_COLUMNS)
    if not {"a", "nu", "gamma", "epsilon"} <= meta.keys():
        raise ValueError(f"{path}.meta lacks the law's parameters")
    data = np.array([[float(v) for v in row] for row in rows])
    atoms = tuple(ast.literal_eval(meta.get("atoms", "[]")))
    return LimitLaw(a=float(meta["a"]), nu=float(meta["nu"]),
                    gamma=float(meta["gamma"]),
                    epsilon=float(meta["epsilon"]), grid=data[:, 0],
                    m_values=data[:, 3] + 1j * data[:, 4],
                    density=data[:, 1], cdf_values=data[:, 2], atoms=atoms)
