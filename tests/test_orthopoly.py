import itertools
from fractions import Fraction

import numpy as np
import pytest

from kernelspectra import (CapabilityError, DegeneracyError, Envelope,
                           EnvelopeError, VectorEnsemble, build_basis,
                           envelope_coeffs, gaussian_limit_moments, hermite,
                           hermite_deviation, orthopoly_from_moments,
                           parse_envelope, xi_moments)
from kernelspectra.orthopoly import normal_moment

polyval = np.polynomial.polynomial.polyval


# ---------------------------------------------------------------------------
# exact moments: independent tuple-enumeration oracle
# ---------------------------------------------------------------------------

def _entry_moment_table(family, max_order):
    if family == "gaussian":
        return {j: Fraction(normal_moment(j)) for j in range(max_order + 1)}
    return {j: Fraction(1 if j % 2 == 0 else 0)
            for j in range(max_order + 1)}


def _oracle_xi_moment(family, p, k):
    """E xi^k by brute-force enumeration of all index tuples in [p]^k."""
    table = _entry_moment_table(family, k)
    total = Fraction(0)
    for tup in itertools.product(range(p), repeat=k):
        counts = {}
        for idx in tup:
            counts[idx] = counts.get(idx, 0) + 1
        term = Fraction(1)
        for c in counts.values():
            term *= table[c] * table[c]
            if term == 0:
                break
        total += term
    if k % 2 == 1:
        assert total == 0
        return Fraction(0)
    return total / Fraction(p ** (k // 2))


@pytest.mark.parametrize("family", ["gaussian", "rademacher"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_exact_moments_match_tuple_enumeration_oracle(family, p):
    m = xi_moments(VectorEnsemble(family, p), K=6)
    for k in range(7):
        assert m.exact(k) == _oracle_xi_moment(family, p, k)


@pytest.mark.parametrize("p", [10, 100, 1000])
def test_gaussian_fourth_moment_formula(p):
    m = xi_moments(VectorEnsemble("gaussian", p), K=4)
    assert m.exact(4) == Fraction(3) + Fraction(6, p)


@pytest.mark.parametrize("p", [10, 100, 1000])
def test_rademacher_fourth_moment_formula(p):
    m = xi_moments(VectorEnsemble("rademacher", p), K=4)
    assert m.exact(4) == Fraction(3) - Fraction(2, p)


def test_rademacher_p1_fourth_moment_is_one():
    m = xi_moments(VectorEnsemble("rademacher", 1), K=4)
    assert m.exact(4) == 1


def test_second_moment_is_exactly_one():
    for family in ("gaussian", "rademacher"):
        for p in (1, 7, 64):
            m = xi_moments(VectorEnsemble(family, p), K=4)
            assert m.exact(2) == 1
            assert m.exact(1) == 0
            assert m.exact(3) == 0


def test_moment_matching_decays_like_one_over_p():
    # |m_k(p) - E N^k| <= C_k / p, checked as a decreasing sequence
    for family in ("gaussian", "rademacher"):
        for k in range(3, 9):
            devs = []
            for p in (10, 100, 1000, 10000):
                m = xi_moments(VectorEnsemble(family, p), K=8)
                devs.append(abs(float(m.values[k]) - normal_moment(k)))
            for lo, hi in zip(devs[1:], devs[:-1]):
                assert lo <= hi + 1e-12
            if devs[0] > 0:
                # ratio consistent with a 1/p rate across two decades
                assert devs[2] <= devs[0] / 50.0


def test_exact_method_rejects_sphere_and_large_order():
    with pytest.raises(CapabilityError):
        xi_moments(VectorEnsemble("sphere", 10), K=4)
    with pytest.raises(ValueError):
        xi_moments(VectorEnsemble("gaussian", 10), K=18)


def test_monte_carlo_moments_agree_with_exact():
    ens = VectorEnsemble("gaussian", 50)
    exact = xi_moments(ens, K=6)
    mc = xi_moments(ens, K=6, method="monte-carlo", seed=3, samples=200_000)
    for k in range(2, 7):
        tol = 5.0 * mc.stderr[k] + 1e-9
        assert abs(mc.values[k] - float(exact.values[k])) < tol


def test_monte_carlo_sphere_moments_normalized():
    mc = xi_moments(VectorEnsemble("sphere", 40), K=4,
                    method="monte-carlo", seed=4, samples=100_000)
    assert abs(mc.values[2] - 1.0) < 5.0 * mc.stderr[2]


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

def _gram_schmidt_hermite(k):
    """Oracle: orthonormalize monomials under exact Gaussian moments."""
    dim = k + 1
    moments = np.array([float(normal_moment(j)) for j in range(2 * dim)])
    basis = []
    for deg in range(dim):
        v = np.zeros(dim)
        v[deg] = 1.0
        for b in basis:
            inner = sum(v[r] * b[s] * moments[r + s]
                        for r in range(dim) for s in range(dim))
            v = v - inner * b
        norm = np.sqrt(sum(v[r] * v[s] * moments[r + s]
                           for r in range(dim) for s in range(dim)))
        v = v / norm
        if v[deg] < 0:
            v = -v
        basis.append(v)
    return basis[k][:k + 1]


def test_hermite_low_degrees():
    assert np.array_equal(hermite(0), [1.0])
    assert np.array_equal(hermite(1), [0.0, 1.0])
    assert np.allclose(hermite(2), [-1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])


@pytest.mark.parametrize("k", range(7))
def test_hermite_matches_gram_schmidt_oracle(k):
    assert np.allclose(hermite(k), _gram_schmidt_hermite(k), atol=1e-10)


def test_hermite_three_term_recurrence():
    # x h_k = sqrt(k+1) h_{k+1} + sqrt(k) h_{k-1}
    for k in range(1, 9):
        hk = hermite(k)
        lhs = np.concatenate(([0.0], hk))  # multiply by x
        rhs = np.sqrt(k + 1) * hermite(k + 1)
        rhs = rhs + np.sqrt(k) * np.concatenate(
            (hermite(k - 1), np.zeros(2)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# polynomials from moments
# ---------------------------------------------------------------------------

def test_first_polynomial_is_x():
    m = xi_moments(VectorEnsemble("rademacher", 7), K=4)
    assert np.allclose(orthopoly_from_moments(m, 1), [0.0, 1.0], atol=1e-12)


def test_gaussian_limit_moments_reproduce_hermite():
    limit = gaussian_limit_moments(12)
    for k in range(7):
        coeffs = orthopoly_from_moments(limit, k)
        assert np.max(np.abs(coeffs - hermite(k))) < 1e-8


def test_rademacher_p1_degree2_degenerates():
    m = xi_moments(VectorEnsemble("rademacher", 1), K=4)
    with pytest.raises(DegeneracyError):
        orthopoly_from_moments(m, 2)


def _cholesky_orthopoly(m, k):
    """Oracle: orthonormal polynomials from the Hankel Cholesky factor."""
    H = np.array([[float(m.values[r + c]) for c in range(k + 1)]
                  for r in range(k + 1)])
    L = np.linalg.cholesky(H)
    C = np.linalg.inv(L)  # rows give coefficients
    return C[k, :]


@pytest.mark.parametrize("k", range(5))
def test_determinant_route_matches_cholesky_oracle(k):
    m = xi_moments(VectorEnsemble("rademacher", 5), K=10)
    ours = orthopoly_from_moments(m, k)
    oracle = _cholesky_orthopoly(m, k)
    assert np.max(np.abs(ours - oracle)) < 1e-8


def test_basis_orthonormality_under_moment_functional():
    for family, p in (("gaussian", 20), ("rademacher", 9)):
        m = xi_moments(VectorEnsemble(family, p), K=12)
        basis = build_basis(m, 6)
        assert basis.gram_residual() < 1e-8
        assert all(c[-1] > 0 for c in basis.coefficients)


def test_basis_degree_cap():
    m = gaussian_limit_moments(20)
    with pytest.raises(ValueError):
        build_basis(m, 9)


# ---------------------------------------------------------------------------
# hermite deviation
# ---------------------------------------------------------------------------

def test_deviation_zero_for_limit_moments():
    basis = build_basis(gaussian_limit_moments(12), 6)
    grid = np.linspace(-6, 6, 301)
    for k in range(7):
        assert hermite_deviation(basis, k, grid) < 1e-8


def test_deviation_degree_one_is_zero():
    m = xi_moments(VectorEnsemble("rademacher", 5), K=6)
    basis = build_basis(m, 2)
    assert hermite_deviation(basis, 1, np.linspace(-4, 4, 101)) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_deviation_decreases_in_p_for_rademacher(k):
    grid = np.linspace(-6, 6, 301)
    devs = []
    for p in (10, 100, 1000):
        m = xi_moments(VectorEnsemble("rademacher", p), K=8)
        devs.append(hermite_deviation(build_basis(m, 4), k, grid))
    assert devs[0] > devs[1] > devs[2]


# ---------------------------------------------------------------------------
# envelope coefficients
# ---------------------------------------------------------------------------

def test_linear_envelope_coefficients():
    lin = Envelope("lin", lambda x, p: 2.0 * x)
    params = envelope_coeffs(lin, VectorEnsemble("gaussian", 300), L=4,
                             samples=150_000, seed=7)
    assert abs(params.a - 2.0) < 5.0 * params.stderr[1] + 0.01
    assert abs(params.nu - 4.0) < 0.05
    assert abs(params.tail_mass) < 1e-9  # Bessel with the empirical basis
    for k in (2, 3, 4):
        assert abs(params.coefficients[k]) < 5.0 * params.stderr[k] + 1e-6


def test_sign_envelope_coefficients_match_gaussian_integral():
    # a -> E|N| = sqrt(2/pi), nu -> Var(sign) = 1
    params = envelope_coeffs(parse_envelope("sign-scaled"),
                             VectorEnsemble("gaussian", 1000), L=4,
                             samples=200_000, seed=8)
    assert abs(params.a - np.sqrt(2.0 / np.pi)) < 0.015
    assert abs(params.nu - 1.0) < 0.01


@pytest.mark.parametrize("family", ["gaussian", "sphere"])
def test_sign_scaled_nu_stderr_covers_exact_nu(family):
    # k = sign(xi) = +-1, so k^2 is constant and all of nu_hat's error
    # comes from the subtracted (mean k)^2; the exact nu is 1
    params = envelope_coeffs(parse_envelope("sign-scaled"),
                             VectorEnsemble(family, 500), L=4,
                             samples=200_000, seed=12)
    assert params.nu_stderr > 0.0
    assert abs(params.nu - 1.0) <= 5.0 * params.nu_stderr


def test_coefficients_bounded_by_l2_norm():
    # |a_k| <= ||k||_{L2} = sqrt(nu + mean^2), Cauchy-Schwarz
    params = envelope_coeffs(parse_envelope("exp:a=1"),
                             VectorEnsemble("gaussian", 200), L=6,
                             samples=100_000, seed=9)
    bound = np.sqrt(params.nu + (params.coefficients[0]) ** 2)
    assert np.all(np.abs(params.coefficients) <= bound + 1e-9)


def test_plancherel_consistency_and_admissibility():
    params = envelope_coeffs(parse_envelope("exp:a=1"),
                             VectorEnsemble("rademacher", 150), L=5,
                             samples=100_000, seed=10)
    assert np.sum(params.coefficients[1:] ** 2) <= params.nu + 1e-9
    assert params.a ** 2 <= params.nu + 1e-9
    assert params.tail_mass >= -1e-9


def test_envelope_coeffs_propagates_degeneracy():
    with pytest.raises(DegeneracyError):
        envelope_coeffs(parse_envelope("exp:a=1"),
                        VectorEnsemble("rademacher", 1), L=2,
                        samples=5_000, seed=11)


def test_envelope_coeffs_flags_non_finite_envelope():
    bad = Envelope("inv", lambda x, p: np.divide(
        1.0, x, out=np.full_like(np.asarray(x, dtype=float), np.inf),
        where=np.asarray(x) != 0))
    with pytest.raises(EnvelopeError):
        # rademacher with even p hits xi = 0 with positive probability
        envelope_coeffs(bad, VectorEnsemble("rademacher", 2), L=2,
                        samples=5_000, seed=12)


def test_envelope_coeffs_validation():
    env = parse_envelope("identity")
    with pytest.raises(ValueError):
        envelope_coeffs(env, VectorEnsemble("gaussian", 10), L=0,
                        samples=5_000)
    with pytest.raises(ValueError):
        envelope_coeffs(env, VectorEnsemble("gaussian", 10), L=2, samples=10)


def test_admissible_params_record():
    lin = Envelope("lin", lambda x, p: x)
    params = envelope_coeffs(lin, VectorEnsemble("gaussian", 50), L=2,
                             samples=20_000, seed=13)
    rec = params.to_record()
    assert rec["type"] == "admissible-params"
    assert rec["degree"] == 2
    assert "a_1" in rec
