import numpy as np
import pytest
from scipy import integrate, stats

from kernelspectra import (ESD, KernelSpec, VectorEnsemble, build,
                           eigenvalues, empirical_stieltjes, gram, ks_distance,
                           load_esd, mp_atom_mass, mp_cdf, mp_stieltjes,
                           mp_support, parse_envelope, sample_matrix, save_esd,
                           solve_grid, wasserstein1)
from kernelspectra.mp_theory import AffineMPLaw


def _kernel_matrix(p=40, n=30, seed=0, envelope="exp:a=1", diagonal="zero"):
    S = sample_matrix(VectorEnsemble("gaussian", p), n, seed)
    spec = KernelSpec("inner", diagonal, parse_envelope(envelope))
    return build(spec, gram(S), S.p)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalues_of_scaled_identity():
    s = eigenvalues(2.5 * np.eye(12))
    assert np.allclose(s.points, 2.5)
    assert s.n == 12


def test_eigenvalues_of_all_ones_matrix():
    n = 9
    s = eigenvalues(np.ones((n, n)))
    assert np.allclose(s.points[:-1], 0.0, atol=1e-12)
    assert abs(s.points[-1] - n) < 1e-10


def test_zero_diagonal_spectrum_sums_to_zero():
    A = _kernel_matrix(seed=3)
    s = eigenvalues(A)
    assert abs(s.points.sum()) < 1e-8 * s.n * np.max(np.abs(A))


def test_eigenvalues_ascending():
    s = eigenvalues(_kernel_matrix(seed=4))
    assert np.all(np.diff(s.points) >= 0)


@pytest.mark.parametrize("matrix, message", [
    ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
    ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
    ([[1.0, 0.0], [0.0, -np.inf]], "finite"),
    (np.ones((2, 3)), "square"),
    (np.ones(3), "square"),
])
def test_eigenvalues_rejects_bad_input(matrix, message):
    with pytest.raises(ValueError, match=message):
        eigenvalues(matrix)


# ---------------------------------------------------------------------------
# empirical Stieltjes transform
# ---------------------------------------------------------------------------

def test_stieltjes_of_zero_matrix():
    s = eigenvalues(np.zeros((8, 8)))
    for z in (1j, 0.3 + 0.4j, -2 + 1j):
        assert abs(empirical_stieltjes(s, z) + 1.0 / z) < 1e-14


def test_stieltjes_of_identity_at_i():
    s = eigenvalues(np.eye(6))
    assert abs(empirical_stieltjes(s, 1j) - (0.5 + 0.5j)) < 1e-14


def test_stieltjes_requires_upper_half_plane():
    s = eigenvalues(np.eye(3))
    with pytest.raises(ValueError):
        empirical_stieltjes(s, 1.0 - 0.5j)
    with pytest.raises(ValueError):
        empirical_stieltjes(s, 2.0)


def test_stieltjes_herglotz_and_norm_bound():
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = rng.standard_normal((25, 25))
        s = eigenvalues((M + M.T) / 2.0)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        m = empirical_stieltjes(s, z)
        assert m.imag > 0
        assert abs(m) <= 1.0 / z.imag + 1e-12


def _sample_mp(gamma, n, seed):
    # inverse-CDF sampling: interpolate the public mp_cdf on a dense grid
    xs = np.linspace(*mp_support(gamma), 4001)
    cdf = np.asarray(mp_cdf(gamma, xs))
    u = np.random.default_rng(seed).uniform(0, 1, size=n)
    out = np.interp(u, cdf, xs)
    out[u < mp_atom_mass(gamma)] = 0.0
    return out


def test_stieltjes_of_mp_sample_matches_closed_form():
    draws = _sample_mp(1.0, 4000, seed=21)
    e = ESD(points=draws)
    m = empirical_stieltjes(e, 1j)
    assert abs(m - mp_stieltjes(1.0, 1j)) < 0.02


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------

def test_ks_identical_esds_is_zero():
    e = ESD(points=np.array([0.0, 1.0, 2.5]))
    assert ks_distance(e, ESD(points=np.array([0.0, 1.0, 2.5]))) == 0.0


def test_ks_disjoint_atoms_is_one():
    assert ks_distance(ESD(points=np.array([0.0])),
                       ESD(points=np.array([1.0]))) == 1.0


def test_ks_two_sample_matches_scipy_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = rng.standard_normal(rng.integers(5, 60))
        y = rng.standard_normal(rng.integers(5, 60)) * 1.3 + 0.2
        ours = ks_distance(ESD(points=x), ESD(points=y))
        oracle = stats.ks_2samp(x, y, method="asymp").statistic
        assert abs(ours - oracle) < 1e-12


def test_ks_vs_law_matches_dense_grid_oracle():
    rng = np.random.default_rng(32)
    law = AffineMPLaw(gamma=2.0, shift=1.0, scale=0.5)
    x = np.sort(rng.uniform(0.8, 2.5, size=40))
    e = ESD(points=x)
    ours = ks_distance(e, law)
    lo, hi = law.support
    grid = np.linspace(lo - 0.5, hi + 0.5, 200001)
    oracle = np.max(np.abs(np.asarray(e.cdf(grid))
                           - np.asarray(law.cdf(grid))))
    assert ours >= oracle - 1e-9
    assert ours <= oracle + 1e-3  # grid oracle undershoots at jumps only


@pytest.mark.parametrize("make", [
    lambda: AffineMPLaw(gamma=0.5, shift=-2.0, scale=1.0),
    lambda: AffineMPLaw(gamma=0.5, shift=1.0, scale=-2.0),
    lambda: AffineMPLaw(gamma=0.5, shift=0.3, scale=0.0),
    lambda: solve_grid(1.0, 1.0, 0.5, epsilon=1e-3),
    lambda: ESD(points=np.array([0.0, 1.0, 1.0, 3.0])),
], ids=["affine-mp", "affine-mp-reversed", "degenerate", "limit-law", "esd"])
def test_cdf_left_drops_exactly_the_atom(make):
    law = make()
    assert law.atoms
    locs = np.array([loc for loc, _ in law.atoms])
    for loc, mass in law.atoms:
        assert law.cdf_left(loc) == law.cdf(loc) - mass
        assert law.cdf_left(np.array([loc]))[0] == law.cdf(loc) - mass
    xs = np.linspace(locs.min() - 3.0, locs.max() + 3.0, 97)
    xs = xs[~np.isin(xs, locs)]
    assert np.array_equal(law.cdf_left(xs), law.cdf(xs))


def test_ks_against_atomic_law_counts_the_atom():
    # law = pure atom at 0 vs sample at 1: distance 1
    law = AffineMPLaw(gamma=1.0, shift=0.0, scale=0.0)
    assert law.degenerate
    assert ks_distance(ESD(points=np.array([1.0])), law) == 1.0


def test_ks_mp_draws_dkw_calibration():
    # median KS over 50 seeds below 3 * 1.36 / sqrt(n)
    n = 1000
    law = AffineMPLaw(gamma=1.0, shift=0.0, scale=1.0)
    ds = [ks_distance(ESD(points=_sample_mp(1.0, n, seed)), law)
          for seed in range(50)]
    assert np.median(ds) < 3.0 * 1.36 / np.sqrt(n)


# ---------------------------------------------------------------------------
# Wasserstein-1
# ---------------------------------------------------------------------------

def test_wasserstein_identical_is_zero():
    e = ESD(points=np.arange(5.0))
    assert wasserstein1(e, ESD(points=np.arange(5.0))) == 0.0


def test_wasserstein_translation():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(200)
    assert abs(wasserstein1(ESD(points=x), ESD(points=x + 0.7)) - 0.7) < 1e-12


def test_wasserstein_unequal_counts_matches_scipy_oracle():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(30)
    y = rng.standard_normal(47) + 0.5
    ours = wasserstein1(ESD(points=x), ESD(points=y))
    assert abs(ours - stats.wasserstein_distance(x, y)) < 1e-12


@pytest.mark.parametrize("law", [AffineMPLaw(gamma=0.5, shift=0.3, scale=1.5),
                                 AffineMPLaw(gamma=2.0, shift=-0.4, scale=-0.8)])
def test_wasserstein_against_law_matches_quadrature(law):
    rng = np.random.default_rng(43)
    lo, hi = law.support
    e = ESD(points=np.concatenate([rng.uniform(lo - 0.2, hi + 0.3, 40),
                                   [law.shift, law.shift]]))
    # F_e is constant between its points and F_law is smooth between its
    # support edges and atom, so quad integrates each piece exactly enough.
    a, b = law.window
    knots = np.unique(np.concatenate([
        e.points, [lo, hi, min(a, e.points[0]), max(b, e.points[-1])]]))
    exact = sum(integrate.quad(lambda x: abs(e.cdf(x) - law.cdf(x)), u, v)[0]
                for u, v in zip(knots[:-1], knots[1:]))
    spacing = (knots[-1] - knots[0]) / 4000
    assert abs(wasserstein1(e, law) - exact) < spacing


def test_wasserstein_against_degenerate_law_is_mean_distance():
    law = AffineMPLaw(gamma=0.5, shift=0.7, scale=0.0)
    x = np.random.default_rng(44).normal(0.7, 0.5, 60)
    spacing = (max(x.max(), 0.75) - min(x.min(), 0.65)) / 4000
    assert abs(wasserstein1(ESD(points=x), law)
               - np.mean(np.abs(x - 0.7))) < spacing


def test_esd_stieltjes_is_empirical_stieltjes():
    e = ESD(points=np.random.default_rng(45).standard_normal(50))
    for z in (1j, 0.5 + 1j, -2 + 0.1j):
        assert e.stieltjes(z) == empirical_stieltjes(e, z)


def test_wasserstein_two_seeds_same_model():
    lam1 = eigenvalues(_kernel_matrix(p=500, n=1000, seed=1)).points
    lam2 = eigenvalues(_kernel_matrix(p=500, n=1000, seed=2)).points
    e1, e2 = ESD(points=lam1), ESD(points=lam2)
    w = wasserstein1(e1, e2)
    ks = ks_distance(e1, e2)
    spread = max(lam1.max(), lam2.max()) - min(lam1.min(), lam2.min())
    assert 0.0 < w <= spread * ks + 1e-9  # integral of |dF| <= range * sup


# ---------------------------------------------------------------------------
# interlacing and trace-resolvent bounds
# ---------------------------------------------------------------------------

def test_cauchy_interlacing_on_random_instances():
    rng = np.random.default_rng(51)
    for _ in range(10):
        M = rng.standard_normal((20, 20))
        A = (M + M.T) / 2.0
        lam = np.linalg.eigvalsh(A)
        B = np.delete(np.delete(A, 7, axis=0), 7, axis=1)
        mu = np.linalg.eigvalsh(B)
        assert np.all(lam[:-1] <= mu + 1e-10)
        assert np.all(mu <= lam[1:] + 1e-10)


def test_trace_resolvent_submatrix_bound():
    # |Tr(A-z)^{-1} - Tr(B-z)^{-1}| <= C / Im z with C = 1 at z = i
    rng = np.random.default_rng(52)
    z = 1j
    for _ in range(50):
        M = rng.standard_normal((20, 20))
        A = (M + M.T) / np.sqrt(20)
        lam = np.linalg.eigvalsh(A)
        j = int(rng.integers(0, 20))
        B = np.delete(np.delete(A, j, axis=0), j, axis=1)
        mu = np.linalg.eigvalsh(B)
        diff = np.sum(1.0 / (lam - z)) - np.sum(1.0 / (mu - z))
        assert abs(diff) <= 1.0 / z.imag + 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_esd_csv_round_trip(tmp_path):
    spectra = {"0": ESD(points=np.array([0.25, -1.5, 3.0])),
               "sphere:0": ESD(points=np.array([-0.0, 1e-300, 2.5]))}
    path = tmp_path / "esd.csv"
    save_esd(path, spectra, [("p", 10), ("gamma", 0.5),
                             ("spec", "inner/zero/x")])
    loaded, meta = load_esd(path)
    assert list(loaded) == ["0", "sphere:0"]
    for label, e in spectra.items():
        assert loaded[label].points.tobytes() == e.points.tobytes()
    assert meta == {"p": "10", "gamma": "0.5", "spec": "inner/zero/x"}


def test_load_esd_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("eigen\n1.0\n")
    with pytest.raises(ValueError):
        load_esd(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_esd_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        ESD(points=[1.0, bad])


def test_load_esd_rejects_nan_row(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("trial,lambda\n0,1.0\n0,nan\n")
    with pytest.raises(ValueError, match="finite"):
        load_esd(path)
