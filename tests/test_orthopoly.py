import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from kernelspectra import (DegeneracyError, Envelope, EnvelopeError,
                           VectorEnsemble, build_basis, envelope_coeffs,
                           gaussian_limit_moments, hermite, hermite_deviation,
                           parse_envelope, xi_moments)
from kernelspectra import ensembles
from kernelspectra.ensembles import FAMILIES
from kernelspectra.orthopoly import (_CHUNK, _hankel, _orthonormal_factor,
                                    _power_sums, normal_moment)

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


@pytest.mark.parametrize("p", [1, 2, 3, 5, 40, 500, 10_000])
def test_sphere_moments_match_gamma_ratio_oracle(p):
    # xi / sqrt(p) = t with t^2 ~ Beta(1/2, (p-1)/2):
    # E xi^2k = p^k Gamma(k + 1/2) Gamma(p/2) / (Gamma(1/2) Gamma(k + p/2))
    m = xi_moments(VectorEnsemble("sphere", p), K=16)
    for k in range(17):
        if k % 2:
            assert m.exact(k) == 0
            continue
        j = k // 2
        oracle = np.exp(j * np.log(p) + gammaln(j + 0.5) + gammaln(p / 2)
                        - gammaln(0.5) - gammaln(j + p / 2))
        assert abs(float(m.exact(k)) / oracle - 1.0) < 1e-10, k


def test_second_moment_is_exactly_one():
    for family in FAMILIES:
        for p in (1, 7, 64):
            m = xi_moments(VectorEnsemble(family, p), K=4)
            assert m.exact(2) == 1
            assert m.exact(1) == 0
            assert m.exact(3) == 0


def test_moment_matching_decays_like_one_over_p():
    # |m_k(p) - E N^k| <= C_k / p, checked as a decreasing sequence
    for family in FAMILIES:
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


def test_xi_moments_rejects_order_outside_two_to_sixteen():
    for K in (1, 17, 18):
        with pytest.raises(ValueError):
            xi_moments(VectorEnsemble("gaussian", 10), K=K)


def _draws(ens, samples, seed):
    """The (values, counts) pairs envelope_coeffs draws for ``ens``."""
    return list(FAMILIES[ens.family].xi_draws(ens.p, samples, seed))


def _mc_moments(ens, samples, seed):
    """Means of xi^0 ... xi^6 over the draws of envelope_coeffs for ``ens``,
    and the standard errors sqrt((mean xi^2k - mean_k^2) / samples)."""
    means = sum(_power_sums(xi, 12, np.ones_like, 0, counts)[0]
                for xi, counts in _draws(ens, samples, seed)) / samples
    k = np.arange(7)
    return means[k], np.sqrt((means[2 * k] - means[k] ** 2) / samples)


def test_monte_carlo_moments_agree_with_exact():
    # the Monte Carlo route of envelope_coeffs against the exact moments
    for family in FAMILIES:
        ens = VectorEnsemble(family, 50)
        exact = xi_moments(ens, K=6)
        means, stderr = _mc_moments(ens, 200_000, 3)
        for k in range(2, 7):
            tol = 5.0 * stderr[k] + 1e-9
            assert abs(means[k] - float(exact.values[k])) < tol, (family, k)


@pytest.mark.parametrize("p", [1, 2, 7, 50, 500])
def test_rademacher_histogram_moments_match_exact(p):
    # the counts are the histogram of ``samples`` draws of xi_p, so its
    # moments estimate the exact ones within their standard errors
    samples = 200_000
    [(xi, counts)] = _draws(VectorEnsemble("rademacher", p), samples, 5)
    assert counts.sum() == samples and np.all(counts > 0)
    heads = (xi * np.sqrt(p) + p) / 2.0  # xi = (2k - p) / sqrt(p)
    assert np.allclose(heads, np.round(heads), rtol=0.0, atol=1e-9)
    assert np.all(np.diff(heads) > 0.5)
    assert heads[0] > -0.5 and heads[-1] < p + 0.5
    means, stderr = _mc_moments(VectorEnsemble("rademacher", p), samples, 5)
    exact = xi_moments(VectorEnsemble("rademacher", p), K=6)
    for k in range(2, 7):
        tol = 5.0 * stderr[k] + 1e-9
        assert abs(means[k] - float(exact.values[k])) < tol, k


def test_rademacher_pmf_is_exact_at_large_p(monkeypatch):
    # each C(p, k) / 2^p is the correctly rounded quotient, also at p = 1e4
    p, seen = 10_000, {}

    class Stream:
        def multinomial(self, samples, pvals):
            seen["pmf"] = pvals
            return np.bincount([p // 2], minlength=p + 1) * samples

    monkeypatch.setattr(ensembles, "substream", lambda *args: Stream())
    [(xi, counts)] = _draws(VectorEnsemble("rademacher", p), 1000, 0)
    assert xi.tolist() == [0.0] and counts.tolist() == [1000.0]
    pmf = seen["pmf"]
    assert len(pmf) == p + 1 and abs(math.fsum(pmf) - 1.0) <= 1e-12
    for k in (0, 1, 3_000, 4_900, 5_000, 5_123, 9_999, 10_000):
        assert pmf[k] == math.comb(p, k) / 2 ** p, k


def test_rademacher_never_draws_single_values(monkeypatch):
    # every draw comes as at most p + 1 atoms with their counts
    record, sizes = FAMILIES["rademacher"], []

    def atoms_only(p, samples, seed):
        for xi, counts in record.xi_draws(p, samples, seed):
            if counts is None or xi.size > p + 1:
                pytest.fail("drew single values")
            sizes.append(xi.size)
            yield xi, counts

    monkeypatch.setitem(FAMILIES, "rademacher",
                        dataclasses.replace(record, xi_draws=atoms_only))
    params = envelope_coeffs(parse_envelope("exp:a=1"),
                             VectorEnsemble("rademacher", 60), L=3,
                             samples=1_000_000, seed=2)
    assert params.samples == 1_000_000 and len(sizes) == 1


def test_envelope_is_evaluated_only_at_drawn_atoms():
    # p = 40: xi = +-sqrt(40) has probability 2^-40 each, so 10^6 draws
    # miss it and an envelope that is non-finite only there is fine
    p, sizes = 40, []

    def edge(x, p):
        sizes.append(np.size(x))
        return np.where(np.abs(x) >= 1.0, np.inf, x)

    params = envelope_coeffs(Envelope("edge", edge),
                             VectorEnsemble("rademacher", p), L=2,
                             samples=1_000_000, seed=4)
    assert abs(params.a - 1.0) < 5.0 * params.stderr[1]
    assert sum(sizes) < p + 1


def test_non_finite_envelope_reports_smallest_drawn_atom():
    ens, n, seed = VectorEnsemble("rademacher", 40), 100_000, 6
    [(xi, _)] = _draws(ens, n, seed)
    wide = Envelope("wide", lambda x, p: np.where(np.abs(x) > 0.5,
                                                  np.inf, x))
    with pytest.raises(EnvelopeError) as err:
        envelope_coeffs(wide, ens, L=2, samples=n, seed=seed)
    assert err.value.x == float(xi[0]) < -0.5 * np.sqrt(ens.p)


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


def _recurrence_hermite(k):
    """Oracle: h_{d+1} = (x h_d - sqrt(d) h_{d-1}) / sqrt(d+1), coefficientwise."""
    prev, cur = np.zeros(1), np.array([1.0])
    for deg in range(k):
        nxt = np.concatenate(([0.0], cur))
        nxt[:deg] -= np.sqrt(deg) * prev
        prev, cur = cur, nxt / np.sqrt(deg + 1)
    return cur


@pytest.mark.parametrize("k", range(13))
def test_hermite_matches_recurrence_oracle(k):
    # same numbers by another order of operations: a few ulps apart
    assert np.max(np.abs(hermite(k) - _recurrence_hermite(k))) < 1e-14


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
    assert np.allclose(build_basis(m, 1).factor[1], [0.0, 1.0], atol=1e-12)


def test_gaussian_limit_moments_reproduce_hermite():
    limit = gaussian_limit_moments(12)
    for k in range(7):
        coeffs = build_basis(limit, k).factor[k]
        assert np.max(np.abs(coeffs - hermite(k))) < 1e-8


def test_rademacher_p1_degree2_degenerates():
    m = xi_moments(VectorEnsemble("rademacher", 1), K=4)
    with pytest.raises(DegeneracyError):
        build_basis(m, 2)


def _determinant_orthopoly(m, k):
    """Oracle: the bordered Hankel determinant expansion. The coefficient of
    x^j is the signed minor left by deleting column j from the first k
    moment rows, scaled by c_k = 1/sqrt(det M_{k-1} det M_k)."""
    if k == 0:
        return np.array([1.0])
    H = np.array([[m.values[r + c] for c in range(k + 1)]
                  for r in range(k + 1)])
    c_k = 1.0 / np.sqrt(np.linalg.det(H[:k, :k]) * np.linalg.det(H))
    cols = np.arange(k + 1)
    return c_k * np.array([(-1.0) ** (k + j)
                           * np.linalg.det(H[:k][:, cols != j])
                           for j in range(k + 1)])


@pytest.mark.parametrize("k", range(5))
def test_determinant_route_matches_cholesky_oracle(k):
    # the code takes the Cholesky route; the oracle is the determinant one
    m = xi_moments(VectorEnsemble("rademacher", 5), K=10)
    ours = build_basis(m, k).factor[k]
    oracle = _determinant_orthopoly(m, k)
    assert np.max(np.abs(ours - oracle)) < 1e-8


def test_basis_orthonormality_under_moment_functional():
    for family, p in (("gaussian", 20), ("rademacher", 9)):
        m = xi_moments(VectorEnsemble(family, p), K=12)
        basis = build_basis(m, 6)
        assert basis.gram_residual() < 1e-8
        assert all(c[-1] > 0 for c in basis.coefficients)


@st.composite
def _discrete_measures(draw):
    """(s, moments m_0 .. m_2s) of a mean-0, variance-1 measure on s points."""
    s = draw(st.integers(2, 4))  # one point cannot have variance 1
    x = np.array(draw(st.lists(st.integers(-4, 4), min_size=s, max_size=s,
                               unique=True)), dtype=float)
    w = np.array(draw(st.lists(st.integers(1, 4), min_size=s, max_size=s)),
                 dtype=float)
    w /= w.sum()
    z = (x - w @ x) / np.sqrt(w @ (x - w @ x) ** 2)
    return s, np.array([w @ z ** j for j in range(2 * s + 1)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_discrete_measures())
def test_discrete_measure_basis_stops_at_its_support_size(measure):
    s, m = measure
    C = _orthonormal_factor(m, s - 1)
    assert np.max(np.abs(C @ _hankel(m, s - 1) @ C.T - np.eye(s))) < 1e-8
    assert np.all(np.diag(C) > 0)
    with pytest.raises(DegeneracyError):
        _orthonormal_factor(m, s)


@pytest.mark.parametrize("family, p, degree, words", [
    ("rademacher", 1, 2, ("det M_2 is not positive", "no Cholesky factor")),
    # xi takes 4 values, so det M_4 = 0 exactly; in floats it is a
    # positive 6e-15, below 1e-10 of its Hadamard bound
    ("rademacher", 3, 4, ("det M_4 = ", "1e-10 x max(Hadamard bound")),
])
def test_degeneracy_message_names_the_failed_rule(family, p, degree, words):
    m = xi_moments(VectorEnsemble(family, p), K=2 * degree)
    with pytest.raises(DegeneracyError) as err:
        build_basis(m, degree)
    assert all(w in str(err.value) for w in words)


def test_basis_degree_cap():
    m = gaussian_limit_moments(20)
    with pytest.raises(ValueError):
        build_basis(m, 9)
    # the cap is the highest degree the exact N(0, 1) moments reach
    assert build_basis(m, 6).gram_residual() < 1e-8
    with pytest.raises(DegeneracyError, match="det M_7 = "):
        _orthonormal_factor(m.values, 7)
    with pytest.raises(ValueError, match="degree capped at 6"):
        build_basis(m, 7)


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


@pytest.mark.parametrize("family", FAMILIES)
def test_constant_envelopes_neither_warn_nor_raise(family):
    # k = c sqrt(p) is constant, so nu is 0 exactly and rounds by a
    # multiple of E k^2 = c^2 p; absolute floors on the tail and on
    # a^2 <= nu warned or raised on 27 of these 63 cases
    for p in (10, 50, 500):
        for c in (0.1, 0.3, 1, 2, 3, 10, 100):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                params = envelope_coeffs(parse_envelope(f"const:c={c}"),
                                         VectorEnsemble(family, p), L=4,
                                         samples=20_000, seed=1)
            k = c * np.sqrt(p)
            assert abs(params.coefficients[0] - k) <= 1e-12 * k


@pytest.mark.parametrize("envelope, family", [("exp:a=1", "gaussian"),
                                               ("sign-scaled", "sphere")])
def test_envelope_coeffs_match_per_draw_means(envelope, family):
    # a_k = mean k(xi) p_k(xi), stderr_k = sqrt((mean k^2 p_k^2 - a_k^2) / n)
    # over the same draws, with the basis of the same draws' moments
    f, ens = parse_envelope(envelope), VectorEnsemble(family, 40)
    L, n, seed = 4, 20_000, 14
    params = envelope_coeffs(f, ens, L, samples=n, seed=seed)
    xi = np.concatenate([xi for xi, _ in _draws(ens, n, seed)])
    raw = np.array([np.mean(xi ** j) for j in range(2 * L + 1)])
    C = _orthonormal_factor(raw, L)
    kv = np.sqrt(ens.p) * f(xi / np.sqrt(ens.p), ens.p)
    pk = np.array([polyval(xi, C[k, :k + 1]) for k in range(L + 1)])
    a = (kv * pk).mean(axis=1)
    stderr = np.sqrt(((kv * pk) ** 2).mean(axis=1) - a ** 2) / np.sqrt(n)
    assert np.allclose(params.coefficients, a, rtol=1e-9, atol=0.0)
    assert np.allclose(params.stderr, stderr, rtol=1e-9, atol=0.0)


def test_envelope_coeffs_propagates_degeneracy():
    with pytest.raises(DegeneracyError):
        envelope_coeffs(parse_envelope("exp:a=1"),
                        VectorEnsemble("rademacher", 1), L=2,
                        samples=5_000, seed=11)


def test_envelope_coeffs_flags_non_finite_envelope():
    bad = Envelope("inv", lambda x, p: np.divide(
        1.0, x, out=np.full_like(np.asarray(x, dtype=float), np.inf),
        where=np.asarray(x) != 0))
    with pytest.raises(EnvelopeError) as err:
        # rademacher with even p hits xi = 0 with positive probability
        envelope_coeffs(bad, VectorEnsemble("rademacher", 2), L=2,
                        samples=5_000, seed=12)
    assert "xi=0.0" in str(err.value) and "np.float64" not in str(err.value)


def test_envelope_coeffs_reports_first_bad_draw_past_first_chunk():
    # non-finite only above the largest x of the first chunk, so the first
    # bad draw lies in a later chunk of the first batch
    ens, n, seed = VectorEnsemble("gaussian", 40), 50_000, 17
    xi = np.concatenate([xi for xi, _ in _draws(ens, n, seed)])
    x = xi / np.sqrt(ens.p)
    threshold = x[:_CHUNK].max()
    first = int(np.argmax(x > threshold))
    assert first > _CHUNK
    capped = Envelope("capped", lambda x, p: np.where(x > threshold,
                                                      np.inf, x))
    with pytest.raises(EnvelopeError) as err:
        envelope_coeffs(capped, ens, L=2, samples=n, seed=seed)
    assert err.value.x == float(xi[first])


@pytest.mark.parametrize("size", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                  200_000])
@pytest.mark.parametrize("weight_order", [0, 4])
def test_power_sums_match_plain_sums_across_chunk_edges(size, weight_order):
    rng = np.random.default_rng(size)
    xi = 1.3 * rng.standard_normal(size)
    order = 8
    k = np.cos(xi) + 0.25 * xi

    def weight(chunk):
        assert chunk.size <= _CHUNK
        return np.cos(chunk) + 0.25 * chunk

    sums = _power_sums(xi, order, weight, weight_order)
    assert sums.shape == (weight_order + 1, order + 1)
    for j in range(weight_order + 1):
        for m in range(order + 1):
            terms = k ** j * xi ** m
            # odd powers cancel, so their error is relative to sum |terms|
            floor = 1e-12 * np.sum(np.abs(terms))
            assert abs(sums[j, m] - np.sum(terms)) <= \
                1e-12 * abs(np.sum(terms)) + floor, (j, m)


def test_envelope_coeffs_validation():
    env = parse_envelope("identity")
    with pytest.raises(ValueError):
        envelope_coeffs(env, VectorEnsemble("gaussian", 10), L=0,
                        samples=5_000)
    with pytest.raises(ValueError):
        envelope_coeffs(env, VectorEnsemble("gaussian", 10), L=2, samples=10)
