import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernelspectra import (AffineMPLaw, SolverError, limit_solver, solve_grid,
                           solve_point)
from kernelspectra.limit_solver import equation_residual


def _semicircle_m(z):
    disc = np.sqrt(complex(z) ** 2 - 4.0)
    cands = ((-z + disc) / 2.0, (-z - disc) / 2.0)
    return max(cands, key=lambda w: w.imag)


# ---------------------------------------------------------------------------
# solve_point
# ---------------------------------------------------------------------------

def test_semicircle_value_at_i():
    m = solve_point(0.0, 1.0, 1.0, 1j)
    assert abs(m - 1j * (np.sqrt(5.0) - 1.0) / 2.0) < 1e-12


def test_semicircle_closed_form_on_grid():
    zs = np.linspace(-4.0, 4.0, 50) + 1j
    worst = max(abs(solve_point(0.0, 1.0, 1.0, complex(z)) - _semicircle_m(z))
                for z in zs)
    assert worst < 1e-10


def test_far_field_tail():
    for a, nu, gamma in ((0.0, 1.0, 1.0), (1.0, 1.0, 0.5), (0.8, 1.0, 2.0)):
        z = 1e6 * (0.3 + 1.0j)
        m = solve_point(a, nu, gamma, z)
        assert abs(m + 1.0 / z) < 1e-6 * abs(1.0 / z)


def test_residual_and_herglotz_invariants():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = float(rng.uniform(0.0, 1.5))
        nu = a * a + float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.3, 3.0))
        z = complex(rng.uniform(-4, 4), rng.uniform(1e-3, 2.0))
        m = solve_point(a, nu, gamma, z)
        assert m.imag > 0
        assert equation_residual(m, a, nu, gamma, z) < 1e-10


def test_parameter_validation():
    with pytest.raises(ValueError):
        solve_point(1.0, 0.5, 1.0, 1j)  # nu < a^2
    with pytest.raises(ValueError):
        solve_point(0.0, 1.0, -1.0, 1j)
    with pytest.raises(ValueError):
        solve_point(0.0, 1.0, 1.0, 1.0 - 1j)
    with pytest.raises(ValueError):
        solve_point(-0.5, 1.0, 1.0, 1j)


def test_nu_equal_a_squared_matches_affine_mp_transform():
    # at nu = a^2 the law is the MP image with shift -a, scale a
    law = AffineMPLaw(gamma=1.0, shift=-1.0, scale=1.0)
    for z in (1j, -0.5 + 0.2j, 2.0 + 0.05j):
        m = solve_point(1.0, 1.0, 1.0, z)
        assert abs(m - law.stieltjes(z)) < 1e-9


# ---------------------------------------------------------------------------
# solve_grid
# ---------------------------------------------------------------------------

def test_grid_mass_and_monotone_cdf():
    law = solve_grid(np.sqrt(2 / np.pi), 1.0, 1.0, epsilon=1e-3)
    assert abs(law.cdf_values[-1] - 1.0) <= 1e-3
    assert np.all(np.diff(law.cdf_values) >= -1e-12)
    assert np.all(law.m_values.imag > 0)
    assert np.all(equation_residual(law.m_values, law.a, law.nu,
                                    law.gamma, law.grid + 1j * law.epsilon)
                  < 1e-10)


def test_grid_reduces_to_affine_mp_at_nu_equals_a_squared():
    law = solve_grid(1.0, 1.0, 1.0, epsilon=1e-3)
    mp = AffineMPLaw(gamma=1.0, shift=-1.0, scale=1.0)
    smoothed = np.asarray(mp.stieltjes(law.grid + 1e-3j)).imag / np.pi
    assert np.max(np.abs(law.density - smoothed)) < 1e-3


def test_semicircle_density_is_even():
    law = solve_grid(0.0, 1.0, 1.0, x_range=(-5.0, 5.0), n_points=1001,
                     epsilon=1e-3)
    assert np.max(np.abs(law.density - law.density[::-1])) < 1e-6


def test_semicircle_median_at_zero():
    law = solve_grid(0.0, 1.0, 1.0, epsilon=1e-3)
    assert abs(law.cdf(0.0) - 0.5) < 1e-3


def test_law_cdf_clamps_outside_grid():
    law = solve_grid(0.0, 1.0, 1.0, epsilon=1e-3)
    assert law.cdf(law.grid[0] - 10.0) == 0.0
    assert law.cdf(law.grid[-1] + 10.0) == 1.0


def test_epsilon_refinement_stability():
    coarse = solve_grid(0.0, 1.0, 1.0, x_range=(-5, 5), n_points=1001,
                        epsilon=1e-3)
    fine = solve_grid(0.0, 1.0, 1.0, x_range=(-5, 5), n_points=1001,
                      epsilon=5e-4)
    assert np.max(np.abs(coarse.density - fine.density)) < 0.05
    # smooth-region cdf values move by less than 1e-3
    for x in (-1.5, -0.5, 0.0, 0.8, 1.7):
        assert abs(coarse.cdf(x) - fine.cdf(x)) < 1e-3


def test_atom_detection_matches_affine_mp():
    # linear-envelope parameters with gamma < 1: atom of mass 1 - gamma at -a
    law = solve_grid(1.0, 1.0, 0.5, epsilon=1e-3)
    assert len(law.atoms) == 1
    loc, mass = law.atoms[0]
    assert abs(loc - (-1.0)) < 0.01
    assert abs(mass - 0.5) < 0.02
    mp = AffineMPLaw(gamma=0.5, shift=-1.0, scale=1.0)
    for x in (-2.0, -1.1, -0.9, 0.5, 1.5, 2.5, 3.2):
        assert abs(law.cdf(x) - float(mp.cdf(x))) < 0.01
    assert abs(law.cdf_values[-1] - 1.0) <= 1e-3


def test_grid_validation():
    with pytest.raises(ValueError):
        solve_grid(0.0, 1.0, 1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        solve_grid(0.0, 1.0, 1.0, n_points=4)
    with pytest.raises(ValueError):
        solve_grid(0.0, 1.0, 1.0, x_range=(2.0, -2.0))


def test_solver_error_carries_location():
    err = SolverError("boom", z=1j, residual=0.5)
    assert err.z == 1j and err.residual == 0.5


def test_record_fields():
    law = solve_grid(0.0, 1.0, 1.0, epsilon=1e-3)
    rec = law.to_record()
    assert rec["type"] == "functional-equation"
    assert rec["gamma"] == 1.0 and rec["epsilon"] == 1e-3


# ---------------------------------------------------------------------------
# closed form: roots, atoms, support
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       excess=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       gamma=st.floats(0.05, 5.0),
       x=st.floats(-10.0, 10.0), y=st.floats(1e-9, 10.0))
def test_closed_form_root_and_atoms(a, excess, gamma, x, y):
    assume(abs(complex(x, y)) <= 10.0)
    nu = a * a + excess
    z = complex(x, y)
    # A Stieltjes transform has Im(-1/m) >= Im z; the other roots have
    # Im m <= 0, i.e. Im w >= 0 for w = 1/m. Exactly one root is of the
    # first kind, and none lies between the two.
    w = limit_solver._reciprocal_roots(a, nu, gamma, z)
    tol = 1e-12 * (1.0 + np.abs(w))
    herglotz = w.imag <= -y + tol
    assert herglotz.sum() == 1
    assert np.all(herglotz | (w.imag >= -tol))
    m = solve_point(a, nu, gamma, z)
    assert m.imag > 0
    assert equation_residual(m, a, nu, gamma, z) < 1e-10
    # Atoms exist only where d = (nu - a^2)/gamma vanishes; the law is then
    # the affine MP image with shift -a and scale a.
    law = solve_grid(a, nu, gamma, n_points=16)
    if (nu - a * a) / gamma == 0.0:
        assert law.atoms == AffineMPLaw(gamma, shift=-a, scale=a).atoms
    else:
        assert law.atoms == ()


def test_exact_atoms():
    assert solve_grid(1.0, 1.0, 0.5).atoms == ((-1.0, 0.5),)
    for gamma in (0.5, 1.0, 2.0):
        assert solve_grid(0.0, 0.0, gamma).atoms == ((0.0, 1.0),)
    assert solve_grid(1.0, 1.0, 1.0).atoms == ()
    assert solve_grid(1.0, 1.5, 0.5).atoms == ()


@pytest.mark.parametrize("a, gamma", [(1.0, 0.5), (1.0, 1.0), (0.7, 2.0),
                                      (2.5, 1.0), (0.3, 0.1)])
def test_support_at_nu_equal_a_squared_is_affine_mp(a, gamma):
    law = solve_grid(a, a * a, gamma)
    expected = AffineMPLaw(gamma, shift=-a, scale=a).support
    assert law.support == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("nu, gamma", [(1.0, 1.0), (2.0, 0.5), (0.3, 3.0)])
def test_support_at_a_zero_is_semicircle(nu, gamma):
    r = 2.0 * np.sqrt(nu / gamma)
    assert solve_grid(0.0, nu, gamma).support == (-r, r)


@pytest.mark.parametrize("a, nu, gamma", [(np.sqrt(2 / np.pi), 1.0, 0.5),
                                          (0.7, 0.6, 2.0), (0.3, 2.0, 0.25)])
def test_support_bounds_the_density(a, nu, gamma):
    law = solve_grid(a, nu, gamma)
    lo, hi = law.support
    span = hi - lo
    x = np.array([lo - 1e-6 * span, lo + 1e-6 * span,
                  hi - 1e-6 * span, hi + 1e-6 * span])
    density = law.stieltjes(x + 1e-15j).imag / np.pi
    assert density[1] > 100.0 * density[0]
    assert density[2] > 100.0 * density[3]


def test_near_atom_cdf_matches_affine_mp():
    # nu a hair above a^2 smears the atom over a width far below epsilon
    # and the grid step; the closed-form CDF still carries its mass.
    law = solve_grid(1.0, 1.0 + 1e-10, 0.5, epsilon=1e-3)
    assert law.atoms == ()
    mp = AffineMPLaw(gamma=0.5, shift=-1.0, scale=1.0)
    for x in (-1.5, -0.5, 0.5, 2.0, 4.0):
        assert abs(law.cdf(x) - float(mp.cdf(x))) < 1e-3


def test_stieltjes_is_vectorized_and_matches_solve_point():
    law = solve_grid(0.7, 0.6, 2.0)
    z = np.array([[1j, -0.5 + 0.2j], [2.0 + 0.05j, 30.0 + 1e-6j]])
    m = law.stieltjes(z)
    assert m.shape == z.shape
    np.testing.assert_allclose(
        m.ravel(), [solve_point(0.7, 0.6, 2.0, v) for v in z.ravel()],
        rtol=1e-13)
    assert isinstance(law.stieltjes(1j), complex)


def test_point_without_a_unique_herglotz_root_raises(monkeypatch):
    monkeypatch.setattr(limit_solver, "_reciprocal_roots",
                        lambda a, nu, gamma, z: np.array([-1j, -2j, 1.0]))
    with pytest.raises(SolverError) as err:
        solve_point(0.5, 1.0, 1.0, 1j)
    assert err.value.z == 1j
