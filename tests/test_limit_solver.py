import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernelspectra import (AffineMPLaw, ExperimentConfig, SolverError,
                           limit_solver, load_limit_law, save_limit_law,
                           solve_grid, solve_point)
from kernelspectra.limit_solver import equation_residual

_TINY = float(np.finfo(float).tiny)  # the smallest normal float


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


@pytest.mark.parametrize("a, gamma", [(1.0, 0.5), (1.0, 2.0), (0.7, 1.0),
                                      (2.0, 3.0)])
def test_nu_equal_a_squared_matches_affine_mp_next_to_the_axis(a, gamma):
    # the MP transform's root comparison raised SolverError at gamma = 2
    # and 3 here, and was 1.8e-9 off at gamma = 1
    xs = np.concatenate([np.linspace(-6.0, 8.0, 57), [-a, 0.0]])
    law = AffineMPLaw(gamma=gamma, shift=-a, scale=a)
    for z in (xs[:, None] + 1j * np.array([1e-3, 1e-8, 1e-12, 1e-20])).flat:
        m = solve_point(a, a * a, gamma, z)
        assert abs(law.stieltjes(z) - m) <= 1e-14 * abs(m), z


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
    assert np.max(np.abs(law.table()["density"] - smoothed)) < 1e-3


def test_semicircle_density_is_even():
    # the default window is symmetric about the semicircle's centre
    density = solve_grid(0.0, 1.0, 1.0, epsilon=1e-3).table()["density"]
    assert np.max(np.abs(density - density[::-1])) < 1e-6


def test_semicircle_median_at_zero():
    law = solve_grid(0.0, 1.0, 1.0, epsilon=1e-3)
    assert abs(law.cdf(0.0) - 0.5) < 1e-3


def test_law_cdf_clamps_outside_grid():
    law = solve_grid(0.0, 1.0, 1.0, epsilon=1e-3)
    assert law.cdf(law.grid[0] - 10.0) == 0.0
    assert law.cdf(law.grid[-1] + 10.0) == 1.0


def test_epsilon_refinement_stability():
    coarse = solve_grid(0.0, 1.0, 1.0, epsilon=1e-3)
    fine = solve_grid(0.0, 1.0, 1.0, epsilon=5e-4)
    # the windows widen with epsilon; compare where both grids reach
    inside = (coarse.grid >= fine.grid[0]) & (coarse.grid <= fine.grid[-1])
    fine_density = np.interp(coarse.grid[inside], fine.grid,
                             fine.table()["density"])
    assert np.max(np.abs(coarse.table()["density"][inside]
                         - fine_density)) < 0.05
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


def test_solver_error_carries_location():
    err = SolverError("boom", z=1j)
    assert err.z == 1j


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
    law = solve_grid(a, nu, gamma)
    if (nu - a * a) / gamma == 0.0:
        assert law.atoms == AffineMPLaw(gamma, shift=-a, scale=a).atoms
    else:
        assert law.atoms == ()


def _companion_roots(a, nu, gamma, z):
    """Oracle: the reversed cubic's roots as its companion's eigenvalues."""
    c, d = a / gamma, max(nu - a * a, 0.0) / gamma
    companion = np.zeros(z.shape + (3, 3), dtype=complex)
    companion[..., 0, 0] = -(z + c)
    companion[..., 0, 1] = -((z + a) * c + d)
    companion[..., 0, 2] = -d * c
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    return np.linalg.eigvals(companion)


@pytest.mark.parametrize("far", [False, True])
def test_closed_form_roots_match_companion_eigenvalues(far):
    # Wherever the companion matrix finds exactly one Herglotz root, the
    # closed form finds exactly one too, with the same m to 1e-12.
    rng = np.random.default_rng(20 + far)
    checked = 0
    for _ in range(150):
        a = rng.choice([0.0, 5e-324, rng.uniform(0.0, 3.0)])
        nu = a * a + rng.choice([0.0, rng.uniform(0.0, 3.0)])
        gamma = 10.0 ** rng.uniform(-3.0, 3.0)
        y = 10.0 ** rng.uniform(-12.0, 1.0, 200)
        r = 10.0 ** rng.uniform(1.0, 8.0, 200) if far else \
            rng.uniform(0.0, 10.0, 200)
        x = rng.choice([-1.0, 1.0], 200) * np.sqrt(np.maximum(r * r - y * y,
                                                              0.0))
        z = x + 1j * y
        w = _companion_roots(a, nu, gamma, z)
        w_closed = limit_solver._reciprocal_roots(a, nu, gamma, z)
        herglotz = w.imag < -0.5 * y[:, None]
        closed = w_closed.imag < -0.5 * y[:, None]
        unique = herglotz.sum(axis=1) == 1
        assert np.all(closed[unique].sum(axis=1) == 1)
        np.testing.assert_allclose(1.0 / w_closed[unique][closed[unique]],
                                   1.0 / w[unique][herglotz[unique]],
                                   rtol=1e-12, atol=0.0)
        checked += unique.sum()
    assert checked > 0.99 * 150 * 200


def test_exact_atoms():
    assert solve_grid(1.0, 1.0, 0.5).atoms == ((-1.0, 0.5),)
    for gamma in (0.5, 1.0, 2.0):
        assert solve_grid(0.0, 0.0, gamma).atoms == ((0.0, 1.0),)
    assert solve_grid(1.0, 1.0, 1.0).atoms == ()
    assert solve_grid(1.0, 1.5, 0.5).atoms == ()


@pytest.mark.parametrize("a, nu, gamma", [(1.0, 1.0, 0.5), (0.3, 0.09, 0.25)])
@pytest.mark.parametrize("epsilon", [1e-20, 1e-30, 1e-300, 1e-307, _TINY])
def test_atom_law_solves_at_tiny_epsilon(a, nu, gamma, epsilon):
    # 4 eps / (pi 1e-3) rounds off next to the atom at -a; the window must
    # still start below it, or the atom's whole mass falls into cdf[0].
    # At _TINY, (grid + a) / eps overflows to +-inf, where arctan is +-pi/2;
    # filterwarnings = error fails the test on any warning.
    law = solve_grid(a, nu, gamma, epsilon=epsilon)
    assert law.atoms == ((-a, 1.0 - gamma),)
    assert law.grid[0] < -a
    assert law.cdf(-a) >= 1.0 - gamma


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


_SIGN_SCALED_A = float(np.sqrt(2.0 / np.pi))


@pytest.mark.parametrize("a, nu, gamma", [
    (_SIGN_SCALED_A, 1.0, 0.5), (_SIGN_SCALED_A, 1.0, 2.0), (0.0, 1.0, 1.0),
    (1.0, 1.0, 0.5), (0.5, 1.0, 2.0)])
def test_stieltjes_next_to_the_real_axis_matches_the_value_above_it(
        a, nu, gamma):
    # Once Im z is lost next to the roots' size the Herglotz root test is
    # rounding noise. m is continuous, so away from the support's edges
    # and the atoms m(x + i y) for y <= 1e-12 is within ~1e-8 |m'| of
    # m(x + 1e-8 i), where the test still holds.
    marks = [*limit_solver._support(a, nu, gamma),
             *(loc for loc, _ in limit_solver._atoms(a, nu, gamma))]
    xs = np.linspace(min(marks) - 1.5, max(marks) + 1.5, 40)
    xs = xs[[min(abs(x - e) for e in marks) > 0.1 for x in xs]]
    z = xs[:, None] + 1j * np.logspace(-12, -300, 30)
    m = limit_solver._stieltjes(a, nu, gamma, z)
    above = limit_solver._stieltjes(a, nu, gamma, xs + 1e-8j)
    np.testing.assert_allclose(m, np.broadcast_to(above[:, None], z.shape),
                               rtol=1e-6)


def test_stieltjes_of_the_sign_scaled_law_below_its_support():
    # m(x + 1e-35 i) by mpmath at 700 digits: 0.26623269589548027024
    m = solve_point(_SIGN_SCALED_A, 1.0, 0.5, -4.187505077315176 + 1e-35j)
    assert abs(m - 0.26623269589548027024) < 1e-15


_TINY_IM = np.logspace(-1, -295, 43)


@pytest.mark.parametrize("x", [-30.0, -1.0, 1e-3, 0.1, 6.3, 30.0])
def test_unit_atom_law_next_to_the_axis_is_minus_one_over_z(x):
    # a = nu = 0 is the unit atom at 0, so m = -1/z and Im m > 0; rounding
    # noise in Im w used to leave Im m < 0 at 6.3 + 1e-36 i
    z = x + 1j * _TINY_IM
    m = limit_solver._stieltjes(0.0, 0.0, 0.5, z)
    assert np.all(m.imag > 0)
    np.testing.assert_allclose(m, -1.0 / z, rtol=1e-15)


@pytest.mark.parametrize("eta", [1e-20, 1e-100, 1e-295])
@pytest.mark.parametrize("a, nu, gamma, x, slope", [
    pytest.param(0.0, 0.0, 0.5, 6.3, 1.0 / 6.3 ** 2, id="atom-6.3"),  # -1/z
    *(pytest.param(0.0, 1.0, 1.0, x, (-1.0 + x / np.sqrt(x * x - 4.0)) / 2.0,
                   id=f"semicircle-{x:g}") for x in (2.5, 3.0, 10.0)),
])
def test_im_m_outside_the_support_next_to_the_axis_is_im_z_times_m_prime(
        a, nu, gamma, x, slope, eta):
    # outside the support m is real on the axis, so Im m(x + i eta) is
    # eta m'(x) = eta / x'(m); rounding noise in Im w used to give ~1e-33
    m = solve_point(a, nu, gamma, x + 1j * eta)
    assert abs(m.imag / (eta * slope) - 1.0) < 1e-10


@pytest.mark.parametrize("a, gamma", [(1.0, 0.5), (0.5, 0.3), (2.0, 0.9)])
def test_stieltjes_at_the_atom_of_a_nu_equal_a_squared_law(a, gamma):
    # the atom at -a of mass 1 - gamma puts m near (1 - gamma) i / Im z,
    # so the root w = 1/m is as small as the lost root w = 0 is close
    z = -a + 1j * _TINY_IM
    m = limit_solver._stieltjes(a, a * a, gamma, z)
    law = AffineMPLaw(gamma=gamma, shift=-a, scale=a)
    np.testing.assert_allclose(m, law.stieltjes(z), rtol=1e-14)


def test_grid_next_to_the_axis_has_a_monotone_cdf():
    # at epsilon = 1e-30 every grid point is next to the axis; a negative
    # Im m flipped a log branch and the recovered mass read -1
    law = solve_grid(_SIGN_SCALED_A, 1.0, 0.5, epsilon=1e-30)
    assert np.all(np.diff(law.cdf_values) >= 0)
    assert law.cdf_values[-1] == 1.0
    assert np.all(law.table()["density"] >= 0)


def test_stieltjes_at_the_hard_edge_of_a_nu_equal_a_squared_law():
    # at gamma = 1, m blows up like 1/sqrt(z + a): both nonzero roots
    # w = 1/m are ~sqrt(Im z), far beyond the rounding noise in Im w, and
    # too close together to be told apart from the roots above them
    a = 1.0
    u = 1j * _TINY_IM  # z + a
    r = np.sqrt(u * u - 4.0 * a * u)  # w^2 + u w + a u = 0, without w = 0
    w = np.where((r - u).imag < 0, (r - u) / 2, (-r - u) / 2)
    m = limit_solver._stieltjes(a, a * a, 1.0, u - a)
    np.testing.assert_allclose(m, 1.0 / w, rtol=1e-14)


def test_epsilon_must_be_a_normal_float():
    # the root rescaling divides by a scale as small as epsilon
    for epsilon in (1e-310, 5e-324, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="normal float >= 2.22"):
            solve_grid(0.0, 0.0, 1.0, epsilon=epsilon)
    with pytest.raises(ValueError, match="normal float >= 2.22"):
        ExperimentConfig(target="functional-equation", law_a=0.0,
                         law_nu=0.0, epsilon=1e-310)
    assert ExperimentConfig(target="functional-equation", law_a=0.0,
                            law_nu=0.0, epsilon=_TINY).epsilon == _TINY
    law = solve_grid(0.0, 0.0, 1.0, epsilon=_TINY)  # and without a warning
    assert law.atoms == ((0.0, 1.0),) and law.cdf(0.0) == 1.0


def test_epsilon_is_bounded_where_the_window_stays_finite():
    # the window spans more than 8 epsilon / (pi * 1e-3); the largest
    # epsilon whose width is finite solves without a warning
    top = limit_solver._MAX_EPSILON
    law = solve_grid(0.0, 1.0, 0.5, epsilon=top)
    assert np.isfinite(law.grid[-1] - law.grid[0])
    assert np.isfinite(law.cdf_values).all() and law.cdf_values[-1] > 0.999
    assert ExperimentConfig(target="functional-equation", law_a=0.0,
                            law_nu=1.0, epsilon=top).epsilon == top
    for epsilon in (np.nextafter(top, np.inf), 1e306, np.finfo(float).max):
        with pytest.raises(ValueError,
                           match=re.escape(f"epsilon must be <= {top},")):
            solve_grid(0.0, 1.0, 0.5, epsilon=epsilon)
    # where c or d is large, the cubic's roots at the window's ends
    # overflow first: refused, where solving it warned and raised
    # SolverError
    for a, nu, gamma, epsilon in ((1.0, 1.0, 0.5, top),
                                  (1e70, 1e140, 0.5, 1e250)):
        with pytest.raises(ValueError, match=re.escape(
                f"overflows the roots at a={a}, nu={nu}")):
            solve_grid(a, nu, gamma, epsilon=epsilon)
    assert solve_grid(1e70, 1e140, 0.5, epsilon=1e200).atoms


@pytest.mark.parametrize("a, nu, gamma", [(0.5, 1.0, 1e-300),   # c^2 = inf
                                          (1e100, 1e201, 1.0)])  # c^2 d = inf
def test_a_law_whose_support_quartic_overflows_is_refused(a, nu, gamma):
    named = re.escape(f"a={a}, nu={nu}, gamma={gamma}")
    with pytest.raises(ValueError, match=named):
        solve_grid(a, nu, gamma)
    with pytest.raises(ValueError, match=named):
        solve_point(a, nu, gamma, 1j)


def test_points_off_the_axis_beside_near_ones_solve_without_a_warning():
    # at |w| ~ 1e-300 a point's lift is subnormal: continued from Re z +
    # i lift, 5 + 1e-300i overflowed although it is not near the axis
    law = solve_grid(0.0, 0.0, 0.5)
    z = np.array([1e-300j, 5 + 1e-300j])
    m = law.stieltjes(z)
    for k in range(2):
        assert m[k] == law.stieltjes(z[k])
    np.testing.assert_allclose(m, [1e300j, -0.2 + 4e-302j], rtol=1e-15)


def test_a_grid_that_misses_the_mass_is_refused(monkeypatch):
    # the window holds all but 5e-4 of the mass, so only a narrowed
    # window reaches the check
    monkeypatch.setattr(limit_solver, "_window", lambda *args: (-0.5, 0.5))
    with pytest.raises(SolverError, match="recovered mass"):
        solve_grid(0.0, 1.0, 1.0)


def test_a_law_loads_back_from_its_record_alone(tmp_path):
    # the rows are solved again from a, nu, gamma and epsilon, so a sidecar
    # without one of them cannot be loaded
    path = tmp_path / "law.csv"
    law = solve_grid(1.0, 1.0, 0.5, epsilon=2e-3)
    save_limit_law(path, law)
    loaded = load_limit_law(path)
    assert loaded.grid.size == 2000 and loaded.epsilon == 2e-3
    np.testing.assert_array_equal(loaded.cdf_values, law.cdf_values)
    sidecar = tmp_path / "law.csv.meta"
    sidecar.write_text("".join(line for line in sidecar.read_text()
                               .splitlines(keepends=True)
                               if not line.startswith("epsilon=")))
    with pytest.raises(ValueError, match="lacks the law's parameters"):
        load_limit_law(path)
