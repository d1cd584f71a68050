import math

import numpy as np
import pytest
from scipy.integrate import quad

from kernelspectra import (AffineMPLaw, DerivativeError, Envelope,
                           KernelSpec, VectorEnsemble, gram, mp_atom_mass,
                           mp_cdf, mp_density, mp_stieltjes, mp_support,
                           parse_envelope, predicted_law, sample_matrix)

GAMMAS = (0.5, 1.0, 2.0)


def _quad_density(gamma, fn):
    a, b = mp_support(gamma)
    val, _ = quad(lambda x: mp_density(gamma, x) * fn(x), a, b, limit=400)
    return val


# ---------------------------------------------------------------------------
# density and cdf
# ---------------------------------------------------------------------------

def test_density_value_at_gamma_one():
    # (1/(2 pi 2)) sqrt((4-2)(2-0)) = 1/(2 pi)
    assert abs(mp_density(1.0, 2.0) - 1.0 / (2.0 * np.pi)) < 1e-12


def test_density_outside_support_is_zero():
    assert mp_density(1.0, 5.0) == 0.0
    assert mp_density(1.0, -1.0) == 0.0
    assert mp_density(0.5, 0.05) == 0.0  # in the gap between atom and bulk


@pytest.mark.parametrize("gamma", GAMMAS)
def test_scalar_density_equals_array_density_bit_for_bit(gamma):
    a, b = mp_support(gamma)
    xs = np.concatenate([np.linspace(a - 1.0, b + 1.0, 997), [a, b]])
    scalar = np.array([mp_density(gamma, float(x)) for x in xs])
    assert scalar.tobytes() == mp_density(gamma, xs).tobytes()


@pytest.mark.parametrize("x", [5e-324, 1e-315])
def test_density_next_to_a_zero_left_edge_is_finite(x):
    # gamma = 1 has a = 0, so the density sqrt((4 - x) / x) / (2 pi) is
    # finite at every positive x; gamma / (2 pi x) alone overflowed to inf.
    # At 5e-324 = 2^-1074 it is 2^538 / (2 pi); x 2^1100 keeps x normal.
    exact = math.ldexp(math.sqrt((4.0 - x) / math.ldexp(x, 1100)), 550) \
        / (2.0 * math.pi)
    scalar = mp_density(1.0, x)
    array = mp_density(1.0, np.array([x]))  # filterwarnings = error
    assert np.isfinite(scalar) and abs(scalar / exact - 1.0) < 1e-12
    assert array.tobytes() == np.array([scalar]).tobytes()
    # a numpy gamma overflowed there with a warning
    gamma = np.float64(1.0)
    assert mp_density(gamma, x) == scalar
    assert mp_density(gamma, np.array([x])).tobytes() == array.tobytes()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_total_mass_is_one(gamma):
    mass = _quad_density(gamma, lambda x: 1.0) + mp_atom_mass(gamma)
    assert abs(mass - 1.0) < 1e-6


def test_cdf_includes_atom_for_small_gamma():
    assert mp_cdf(0.5, 0.0) >= 0.5
    assert mp_cdf(0.5, -1e-9) == 0.0


def test_cdf_boundary_values():
    for gamma in GAMMAS:
        a, b = mp_support(gamma)
        assert mp_cdf(gamma, min(a, 0.0) - 1.0) == 0.0
        assert abs(mp_cdf(gamma, b + 1.0) - 1.0) < 1e-6


@pytest.mark.parametrize("gamma", GAMMAS)
def test_cdf_monotone_and_consistent_with_quadrature(gamma):
    a, b = mp_support(gamma)
    xs = np.linspace(a - 0.5, b + 0.5, 101)
    vals = np.asarray(mp_cdf(gamma, xs))
    assert np.all(np.diff(vals) >= -1e-12)
    mid = 0.5 * (a + b)
    oracle = mp_atom_mass(gamma) + quad(lambda x: mp_density(gamma, x),
                                        a, mid, limit=400)[0]
    assert abs(mp_cdf(gamma, mid) - oracle) < 1e-6


def test_cdf_matches_arcsine_closed_form_at_gamma_one():
    # at gamma = 1: F(x) = (2/pi)(phi + sin phi cos phi), phi = arcsin(sqrt(x)/2)
    x = np.array([1e-6, 1e-4, 0.004, 0.5, 2.0, 3.9])
    phi = np.arcsin(np.sqrt(x) / 2.0)
    exact = 2.0 / np.pi * (phi + np.sin(phi) * np.cos(phi))
    assert np.max(np.abs(mp_cdf(1.0, x) - exact)) <= 1e-14


@pytest.mark.parametrize("gamma", [0.1, 0.5, 2.0, 10.0])
def test_cdf_matches_quadrature_to_rounding(gamma):
    # x = a + (b - a) sin^2(theta) makes the integrand smooth for quad
    a, b = mp_support(gamma)

    def integrand(theta):
        s2 = np.sin(theta) ** 2
        return (gamma * (b - a) ** 2 * s2 * np.cos(theta) ** 2
                / (np.pi * (a + (b - a) * s2)))

    xs = np.linspace(a, b, 9)[1:-1]
    oracle = [mp_atom_mass(gamma)
              + quad(integrand, 0.0, np.arcsin(np.sqrt((x - a) / (b - a))),
                     epsabs=1e-13)[0] for x in xs]
    assert np.max(np.abs(mp_cdf(gamma, xs) - oracle)) <= 1e-12


# ---------------------------------------------------------------------------
# Stieltjes transform
# ---------------------------------------------------------------------------

def test_stieltjes_far_field_tail():
    for gamma in GAMMAS:
        z = 1e6 * (1.0 + 1.0j)
        m = mp_stieltjes(gamma, z)
        assert abs(m - (-1.0 / z)) < 1e-5 * abs(1.0 / z)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_stieltjes_far_from_the_support_matches_its_series(gamma):
    # m(z) = -sum_k mu_k / z^(k+1) with the MP moments mu_0 ... mu_3 =
    # 1, 1, 1 + lambda, 1 + 3 lambda + lambda^2; the next term is below
    # 1e-20 relative at |z| >= 1e6
    lam = 1.0 / gamma
    mu = (1.0, 1.0, 1.0 + lam, 1.0 + lam * (3.0 + lam))
    for r in (1e6, 1e10, 1e16, 1e50, 1e100, 1e200, 1e300):
        for z in (r * 1j, r * (0.6 + 0.8j), r * (-0.6 + 0.8j), r + 1.0j,
                  -r + 1.0j, r + 1e-300j, -r + 1e-300j):
            w = 1.0 / z
            series = -w * (mu[0] + w * (mu[1] + w * (mu[2] + w * mu[3])))
            m = mp_stieltjes(gamma, z)
            assert abs(m - series) <= 1e-14 * abs(series)
            assert m.imag >= 0.0


@pytest.mark.parametrize("gamma", GAMMAS)
def test_stieltjes_matches_quadrature(gamma):
    a, b = mp_support(gamma)
    for z in (1j, 1.0 + 1j, 3.0 + 0.7j):
        re = quad(lambda x: mp_density(gamma, x) * (x - z.real)
                  / ((x - z.real) ** 2 + z.imag ** 2), a, b, limit=400)[0]
        im = quad(lambda x: mp_density(gamma, x) * z.imag
                  / ((x - z.real) ** 2 + z.imag ** 2), a, b, limit=400)[0]
        oracle = re + 1j * im + mp_atom_mass(gamma) / (0.0 - z)
        assert abs(mp_stieltjes(gamma, z) - oracle) < 1e-6


def test_stieltjes_is_herglotz_on_a_grid():
    for gamma in GAMMAS:
        zs = (np.linspace(-3, 8, 40)[:, None]
              + 1j * np.array([1e-3, 0.1, 1.0])[None, :]).ravel()
        m = mp_stieltjes(gamma, zs)
        assert np.all(np.asarray(m).imag > 0)


@pytest.mark.parametrize("gamma, z, exact", [
    # by mpmath at 700 digits; the root comparison gave the first two far
    # off and raised "Im m underflows" at the last three
    (1.0, -1e-50 + 1e-60j, 1e25 + 5e14j),
    (1.0, -1e-12 + 1e-30j, 999999.500000125 + 4.999999999999376e-13j),
    (2.0, 1e-12j, 2.0 + 8e-12j),
    (2.0, 6.854119407013854e-20j, 2.0 + 5.483295525611083e-19j),
    (100.0, 1e-30j, 1.0101010101010102 + 1.0306101521283646e-30j),
])
def test_stieltjes_next_to_the_axis_matches_mpmath(gamma, z, exact):
    m = mp_stieltjes(gamma, z)
    assert abs(m.real / exact.real - 1.0) <= 1e-12
    assert abs(m.imag / exact.imag - 1.0) <= 1e-12


def test_stieltjes_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        mp_stieltjes(1.0, 1.0 - 1j)
    with pytest.raises(ValueError):
        mp_stieltjes(1.0, 2.0)


_TINY = float(np.finfo(float).tiny)  # the smallest normal float


@pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0, 1e-310,
                                   np.nextafter(_TINY, 0.0)])
@pytest.mark.parametrize("call", [
    lambda g: mp_support(g),
    lambda g: mp_atom_mass(g),
    lambda g: mp_density(g, 1.0),
    lambda g: mp_density(g, np.array([0.5, 1.0])),
    lambda g: mp_cdf(g, 1.0),
    lambda g: mp_stieltjes(g, 1j),
])
def test_public_functions_reject_non_positive_or_non_finite_gamma(call, gamma):
    with pytest.raises(ValueError, match="positive and finite"):
        call(gamma)


def test_the_smallest_normal_gamma_is_a_unit_atom_at_zero():
    # below it the MP support or the transform overflows (1e-310 gave
    # nan+nanj); filterwarnings = error, so each call here is warning-free
    with pytest.raises(ValueError, match="gamma must be positive and finite, "
                       "a normal float >= 2.2250738585072014e-308, got "
                       "2.225073858507201e-308"):
        mp_stieltjes(np.nextafter(_TINY, 0.0), 1j)
    assert mp_stieltjes(_TINY, 1j) == 1j
    np.testing.assert_array_equal(mp_stieltjes(_TINY, np.array([1j, 2j])),
                                  [1j, 0.5j])
    assert mp_cdf(_TINY, -1.0) == 0.0 and mp_cdf(_TINY, 0.0) == 1.0
    assert mp_density(_TINY, 1.0) == 0.0
    np.testing.assert_array_equal(mp_density(_TINY, np.array([0.0, 1.0])),
                                  [0.0, 0.0])


# ---------------------------------------------------------------------------
# predicted laws
# ---------------------------------------------------------------------------

def test_predicted_law_exp_inner_keep():
    spec = KernelSpec("inner", "keep", parse_envelope("exp:a=1"))
    law = predicted_law(spec, 1.0)
    assert abs(law.shift - (np.e - 2.0)) < 1e-12
    assert law.scale == 1.0
    lo, hi = law.support
    assert abs(lo - (np.e - 2.0)) < 1e-12
    assert abs(hi - (np.e + 2.0)) < 1e-12


def test_predicted_law_square_envelope_degenerates():
    # f(x) = x^2: f'(0) = 0, alpha = f(1) - f(0) = 1 -> unit atom at 1
    sq = Envelope("square", lambda x, p: x * x, ((0.0, 0.0), (2.0, 4.0)))
    law = predicted_law(KernelSpec("inner", "keep", sq), 1.0)
    assert law.degenerate
    assert law.atoms == ((1.0, 1.0),)
    assert law.cdf(0.999) == 0.0 and law.cdf(1.0) == 1.0
    assert abs(law.stieltjes(1j) - 1.0 / (1.0 - 1j)) < 1e-14
    assert law.support == (1.0, 1.0)
    assert law.density(1.0) == 0.0
    np.testing.assert_array_equal(law.density(np.array([0.5, 1.0])), 0.0)
    with pytest.raises(ValueError, match="Im z > 0"):
        law.stieltjes(1.0)


def test_predicted_law_identity_is_plain_mp():
    law = predicted_law(KernelSpec("inner", "keep",
                                   parse_envelope("identity")), 0.7)
    assert law.shift == 0.0 and law.scale == 1.0
    xs = np.linspace(-1, 7, 50)
    assert np.allclose(np.asarray(law.cdf(xs)), np.asarray(mp_cdf(0.7, xs)))


def test_predicted_law_distance_has_positive_scale():
    spec = KernelSpec("distance", "keep", parse_envelope("exp:a=-1"))
    law = predicted_law(spec, 2.0)
    assert abs(law.scale - 2.0 * np.exp(-2.0)) < 1e-12
    assert law.scale > 0


def test_predicted_law_requires_derivative():
    spec = KernelSpec("inner", "zero", parse_envelope("sign-scaled"))
    with pytest.raises(DerivativeError):
        predicted_law(spec, 1.0)


def test_predicted_law_rejects_symmetric_kink():
    # |x| records no slope at 0, so it has no affine law
    spec = KernelSpec("inner", "zero", Envelope("abs", lambda x, p: np.abs(x)))
    with pytest.raises(DerivativeError, match="'abs' records no slope at x=0.0"):
        predicted_law(spec, 0.5)


# ---------------------------------------------------------------------------
# affine map consistency and negative scale
# ---------------------------------------------------------------------------

def test_affine_map_matches_eigenvalue_pushforward():
    S = sample_matrix(VectorEnsemble("gaussian", 30), 40, seed=5)
    G = gram(S)
    lam_g = np.linalg.eigvalsh(G)
    for alpha, beta in ((0.5, 2.0), (-1.0, -0.75)):
        lam_affine = np.linalg.eigvalsh(beta * G + alpha * np.eye(40))
        pushed = np.sort(beta * lam_g + alpha)
        assert np.max(np.abs(lam_affine - pushed)) < 1e-9


def test_negative_scale_law_is_a_valid_distribution():
    law = AffineMPLaw(gamma=0.5, shift=1.0, scale=-2.0)
    lo, hi = law.support
    assert lo < hi
    xs = np.linspace(lo - 1.0, hi + 1.0, 301)
    cdf = np.asarray(law.cdf(xs))
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[0] < 1e-12
    assert abs(cdf[-1] - 1.0) < 1e-6
    # atom transported to the shift, which is now the right edge
    assert law.atoms == ((1.0, law.atom_mass),)
    assert abs(law.cdf(1.0) - 1.0) < 1e-9
    assert law.cdf(1.0 - 1e-9) < 1.0 - law.atom_mass + 1e-6
    m = law.stieltjes(0.3 + 1j)
    assert m.imag > 0


def test_negative_scale_density_matches_reflection():
    law = AffineMPLaw(gamma=2.0, shift=0.0, scale=-1.0)
    xs = np.linspace(-6, 0, 200)
    assert np.allclose(np.asarray(law.density(xs)),
                       np.asarray(mp_density(2.0, -xs)))


def test_law_record_fields():
    law = AffineMPLaw(gamma=0.5, shift=-2.0, scale=1.0)
    rec = law.to_record()
    assert rec == {"type": "affine-mp", "gamma": 0.5, "shift": -2.0,
                   "scale": 1.0, "atom_mass": 0.5, "atom_location": -2.0}


@pytest.mark.parametrize("shift, scale", [(0.0, 1e308), (1e308, 1e308),
                                          (-1e308, -1e308)])
def test_a_law_whose_table_range_overflows_is_refused(shift, scale):
    # linspace over the table's range would give nan x values
    with pytest.raises(ValueError, match="finite table range"):
        AffineMPLaw(gamma=0.5, shift=shift, scale=scale)


@pytest.mark.parametrize("scale", [1e-320, -1e-320])
def test_a_density_beyond_the_float_range_is_inf_without_a_warning(scale):
    # 3e-320 / 1e-320 = 3 pulls back inside [a, b]; the density there,
    # ~0.1 / 1e-320, rounds to inf (filterwarnings = error)
    law = AffineMPLaw(gamma=0.5, shift=0.0, scale=scale)
    assert law.density(3.0 * scale) == np.inf
    np.testing.assert_array_equal(law.density(np.array([3.0 * scale, 1.0])),
                                  [np.inf, 0.0])


def test_a_law_near_the_float_limit_writes_a_finite_table():
    table = AffineMPLaw(gamma=0.5, shift=0.0, scale=-1e307).table()
    assert all(np.isfinite(col).all() for col in table.values())
    assert table["cdf"][0] == 0.0 and table["cdf"][-1] == 1.0


@pytest.mark.parametrize("scale", [1e-306, -1e-306, 1e-320, -1e-320])
def test_a_tiny_scale_takes_the_atom_limit_where_the_pullback_overflows(scale):
    # (x - shift) / scale overflows 600 away from the shift; there the law
    # is an atom at the shift to relative |scale| b / |x - shift|
    law = AffineMPLaw(gamma=0.5, shift=2.0, scale=scale)
    assert law.cdf(600.0) == 1.0 and law.cdf(-600.0) == 0.0
    np.testing.assert_array_equal(law.cdf(np.array([-600.0, 600.0])),
                                  [0.0, 1.0])
    assert law.density(600.0) == 0.0 and law.density(-600.0) == 0.0
    for z in (600 + 1j, -600 + 1j, 1j):
        np.testing.assert_allclose(law.stieltjes(z), 1.0 / (2.0 - z),
                                   rtol=1e-15)
    m = law.stieltjes(np.array([600 + 1j, 2.0 + 2.0 * scale + 1e-300j]))
    assert m[0] == 1.0 / (2.0 - (600 + 1j)) and m[1].imag > 0


@pytest.mark.parametrize("gamma, scale", [(0.01, 1.0), (0.01, -1.0),
                                          (2.2250738585072014e-308, 1.0)])
def test_the_table_and_window_reach_an_atom_far_from_the_support(gamma,
                                                                 scale):
    # the support [77, 125] (or its mirror) widened by 10% missed the atom
    # of mass 0.99 at 0; at the smallest gamma every x was 4.49e307
    law = AffineMPLaw(gamma=gamma, shift=0.0, scale=scale)
    table = law.table()
    x, cdf = table["x"], table["cdf"]
    assert np.unique(x).size == x.size == 2001
    assert x[0] <= np.nextafter(0.0, -np.inf) and x[-1] >= 0.0
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    lo, hi = law.support  # the far side keeps its 5% margin
    margin = 0.05 * (hi - lo)
    assert law.window == ((-5e-324, hi + margin) if scale > 0
                          else (lo - margin, 0.0))


def test_the_table_keeps_its_range_where_it_holds_the_atom():
    law = AffineMPLaw(gamma=0.5, shift=-1.0, scale=1.0)
    lo, hi = law.support
    span = hi - lo
    assert (law.table()["x"][[0, -1]] == [lo - 0.1 * span,
                                          hi + 0.1 * span]).all()
