"""Acceptance suite: one test per criterion, with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
measurements and timings.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import kernelspectra as ks
from kernelspectra.orthopoly import normal_moment


def _verdict(num, name, ok, detail, elapsed, limit):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {detail}; "
          f"runtime {elapsed:.1f}s < {limit:.0f}s: {state}")


def _pooled_record(result, family):
    """The run's distances.csv record of ``family``'s pooled spectrum."""
    [rec] = [r for r in result.distances
             if r.family == family and r.trial == -1]
    return rec


def test_criterion_01_mp_self_consistency():
    limit = 1.0
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        a, b = ks.mp_support(gamma)
        atom = ks.mp_atom_mass(gamma)
        for x in np.linspace(-2.0, 6.0, 20):
            z = complex(x, 1.0)
            re = quad(lambda t: ks.mp_density(gamma, t) * (t - z.real)
                      / ((t - z.real) ** 2 + z.imag ** 2), a, b, limit=400)[0]
            im = quad(lambda t: ks.mp_density(gamma, t) * z.imag
                      / ((t - z.real) ** 2 + z.imag ** 2), a, b, limit=400)[0]
            oracle = re + 1j * im + atom / (0.0 - z)
            worst = max(worst, abs(ks.mp_stieltjes(gamma, z) - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < limit
    _verdict(1, "MP transform vs quadrature",
             ok, f"max |closed - quad| = {worst:.2e} (tol 1e-06)",
             elapsed, limit)
    assert worst < 1e-6
    assert elapsed < limit


def test_criterion_02_semicircle_closed_form():
    limit = 1.0
    t0 = time.perf_counter()

    def closed(z):
        disc = np.sqrt(complex(z) ** 2 - 4.0)
        return max(((-z + disc) / 2.0, (-z - disc) / 2.0),
                   key=lambda w: w.imag)

    worst = max(abs(ks.solve_point(0.0, 1.0, 1.0, complex(z)) - closed(z))
                for z in np.linspace(-4.0, 4.0, 50) + 1j)
    at_i = abs(ks.solve_point(0.0, 1.0, 1.0, 1j)
               - 1j * (np.sqrt(5.0) - 1.0) / 2.0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and at_i < 1e-10 and elapsed < limit
    _verdict(2, "semicircle closed form",
             ok, f"grid max diff = {worst:.2e}, at z=i: {at_i:.2e} "
             f"(tol 1e-10)", elapsed, limit)
    assert worst < 1e-10
    assert at_i < 1e-10
    assert elapsed < limit


def test_criterion_03_nu_equals_a_squared_reduction():
    limit = 10.0
    t0 = time.perf_counter()
    law = ks.solve_grid(1.0, 1.0, 1.0)
    mp = ks.AffineMPLaw(gamma=1.0, shift=-1.0, scale=1.0)
    smoothed = np.asarray(mp.stieltjes(law.grid + 1e-3j)).imag / np.pi
    sup = float(np.max(np.abs(law.table()["density"] - smoothed)))
    elapsed = time.perf_counter() - t0
    ok = sup < 1e-3 and elapsed < limit
    _verdict(3, "nu = a^2 reduces to affine MP",
             ok, f"density sup diff = {sup:.2e} (tol 1e-03)", elapsed, limit)
    assert sup < 1e-3
    assert elapsed < limit


# At gamma = 1/2 the affine MP image carries a point mass 1/2 at alpha. The
# paper proves weak convergence (through Stieltjes transforms), not KS
# convergence: with b the share of eigenvalues strictly below alpha and none
# exactly at it, KS >= max(b, 1/2 - b) >= 1/4 at every n. Criteria 04 and 05
# therefore assert the Stieltjes sup over the default z grid (which sees the
# atom's location and mass) and the CDF sup on the continuous support (the
# bulk); KS is printed but not asserted.
def _bulk_sup(e, law):
    lo, hi = law.support
    ts = np.linspace(lo + 1e-9, hi, 3000)
    return float(np.max(np.abs(np.asarray(e.cdf(ts))
                               - np.asarray(law.cdf(ts)))))


def _weak_detail(e, law, rec, bulk):
    below = float(np.mean(e.points < law.shift))
    return (f"Stieltjes sup = {rec.stieltjes_sup:.4f}, bulk-support CDF sup "
            f"= {bulk:.4f} (tol 0.005 each); KS = {rec.ks:.4f} "
            f"(not asserted, >= max(b, 1/2 - b) with b = {below:.4f} "
            f"below the atom)")


def test_criterion_04_inner_zero_diag_smooth_envelope():
    limit = 60.0
    t0 = time.perf_counter()
    result = ks.run_universality(ks.ExperimentConfig(
        ensemble="gaussian", p=600, n=1200, trials=5, seed=1,
        envelope="exp:a=1", target="affine-mp"))
    e, law = result.pooled["gaussian"], result.law
    assert law.shift == -2.0 and law.scale == 1.0
    rec = _pooled_record(result, "gaussian")
    bulk = _bulk_sup(e, law)
    elapsed = time.perf_counter() - t0
    ok = rec.stieltjes_sup < 0.005 and bulk < 0.005 and elapsed < limit
    _verdict(4, "inner/zero exp envelope vs affine MP",
             ok, _weak_detail(e, law, rec, bulk), elapsed, limit)
    assert rec.stieltjes_sup < 0.005
    assert bulk < 0.005
    assert elapsed < limit


def test_criterion_05_inner_zero_diag_minimal_regularity():
    limit = 60.0
    t0 = time.perf_counter()
    result = ks.run_universality(ks.ExperimentConfig(
        ensemble="gaussian", p=600, n=1200, trials=5, seed=1,
        envelope="nonsmooth-sin", target="affine-mp"))
    e, law = result.pooled["gaussian"], result.law
    assert law.shift == -1.0 and law.scale == 1.0
    rec = _pooled_record(result, "gaussian")
    bulk = _bulk_sup(e, law)
    elapsed = time.perf_counter() - t0
    ok = rec.stieltjes_sup < 0.005 and bulk < 0.005 and elapsed < limit
    _verdict(5, "inner/zero nonsmooth envelope vs affine MP",
             ok, _weak_detail(e, law, rec, bulk), elapsed, limit)
    assert rec.stieltjes_sup < 0.005
    assert bulk < 0.005
    assert elapsed < limit


def test_criterion_06_distance_kernel():
    limit = 60.0
    t0 = time.perf_counter()
    result = ks.run_universality(ks.ExperimentConfig(
        ensemble="gaussian", p=1000, n=500, trials=5, seed=3,
        kernel="distance", diag="keep", envelope="exp:a=-1",
        target="affine-mp"))
    law = result.law
    assert abs(law.shift - (1.0 - 3.0 * np.exp(-2.0))) < 1e-12
    assert abs(law.scale - 2.0 * np.exp(-2.0)) < 1e-12
    d = _pooled_record(result, "gaussian").ks
    elapsed = time.perf_counter() - t0
    ok = d < 0.05 and elapsed < limit
    _verdict(6, "distance kernel vs affine MP",
             ok, f"KS = {d:.4f} (tol 0.05)", elapsed, limit)
    assert d < 0.05
    assert elapsed < limit


def test_criterion_07_p_dependent_universality():
    limit = 120.0
    t0 = time.perf_counter()
    result = ks.run_universality(ks.ExperimentConfig(
        ensemble="gaussian", ensemble_b="rademacher", p=800, n=800, trials=3,
        seed=4, envelope="sign-scaled", target="functional-equation",
        law_a=np.sqrt(2.0 / np.pi), law_nu=1.0))
    d_gauss, d_rad, d_cross = (_pooled_record(result, fam).ks
                               for fam in ("gaussian", "rademacher", "cross"))
    elapsed = time.perf_counter() - t0
    ok = d_gauss < 0.06 and d_rad < 0.06 and d_cross < 0.03 and elapsed < limit
    _verdict(7, "p-dependent limit law and universality",
             ok, f"KS gauss = {d_gauss:.4f}, rademacher = {d_rad:.4f} "
             f"(tol 0.06); inter-ensemble = {d_cross:.4f} (tol 0.03)",
             elapsed, limit)
    assert d_gauss < 0.06
    assert d_rad < 0.06
    assert d_cross < 0.03
    assert elapsed < limit


def test_two_families_in_one_run_score_against_each_other():
    # One affine-mp run per pair and p, the second family drawn from its own
    # trial seeds. Gaussian (kappa = 2) and sphere (kappa = 0) keep a KS gap
    # at every p, while rademacher and sphere (both kappa = 0) converge.
    limit = 60.0
    t0 = time.perf_counter()
    cross = {}
    for pair in (("gaussian", "sphere"), ("rademacher", "sphere")):
        for p in (300, 600, 1200):
            result = ks.run_universality(ks.ExperimentConfig(
                ensemble=pair[0], ensemble_b=pair[1], p=p, n=2 * p, trials=2,
                seed=36, envelope="exp:a=1", target="affine-mp"))
            cross[pair[0], p] = _pooled_record(result, "cross").ks
    elapsed = time.perf_counter() - t0
    gauss = [cross["gaussian", p] for p in (300, 600, 1200)]
    rad = [cross["rademacher", p] for p in (300, 600, 1200)]
    print(f"[two families] cross KS at p = 300, 600, 1200: gaussian-sphere "
          + "/".join(f"{d:.4f}" for d in gauss) + " (each > 0.05), "
          "rademacher-sphere " + "/".join(f"{d:.4f}" for d in rad)
          + f" (falls); runtime {elapsed:.1f}s < {limit:.0f}s")
    assert min(gauss) > 0.05
    assert rad[-1] < rad[0]
    assert elapsed < limit


def test_criterion_08_moment_matching():
    limit = 10.0
    t0 = time.perf_counter()
    for p in (10, 100, 1000):
        mg = ks.xi_moments(ks.VectorEnsemble("gaussian", p), K=4)
        mr = ks.xi_moments(ks.VectorEnsemble("rademacher", p), K=4)
        assert mg.exact(4) == Fraction(3) + Fraction(6, p)
        assert mr.exact(4) == Fraction(3) - Fraction(2, p)
    decay_ok = True
    for family in ("gaussian", "rademacher"):
        for k in range(3, 9):
            devs = [abs(float(ks.xi_moments(ks.VectorEnsemble(family, p),
                                            K=8).values[k])
                        - normal_moment(k))
                    for p in (10, 100, 1000)]
            decay_ok &= all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    elapsed = time.perf_counter() - t0
    ok = decay_ok and elapsed < limit
    _verdict(8, "combinatorial moment matching",
             ok, "m4 formulas exact; |m_k - E N^k| decreasing in p, k <= 8",
             elapsed, limit)
    assert decay_ok
    assert elapsed < limit


def test_criterion_09_orthopoly_suite():
    limit = 10.0
    t0 = time.perf_counter()
    basis = ks.build_basis(ks.gaussian_limit_moments(12), 6)
    residual = basis.gram_residual()
    grid = np.linspace(-6.0, 6.0, 301)
    decay_ok = True
    for k in (2, 3, 4):
        devs = []
        for p in (10, 100, 1000):
            m = ks.xi_moments(ks.VectorEnsemble("rademacher", p), K=8)
            devs.append(ks.hermite_deviation(ks.build_basis(m, 4), k, grid))
        decay_ok &= devs[0] > devs[1] > devs[2]
    with pytest.raises(ks.DegeneracyError):
        ks.build_basis(
            ks.xi_moments(ks.VectorEnsemble("rademacher", 1), K=4), 2)
    elapsed = time.perf_counter() - t0
    ok = residual < 1e-8 and decay_ok and elapsed < limit
    _verdict(9, "orthonormal polynomial suite",
             ok, f"Gram residual = {residual:.2e} (tol 1e-08); Hermite "
             f"deviation decreasing; degeneracy raised", elapsed, limit)
    assert residual < 1e-8
    assert decay_ok
    assert elapsed < limit


def test_criterion_10_structural_properties():
    limit = 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    env = ks.parse_envelope("exp:a=1")

    # symmetry, zero trace, PSD gram
    S = ks.sample_matrix(ks.VectorEnsemble("gaussian", 60), 80, seed=1)
    A = ks.build(ks.KernelSpec("inner", "zero", env), ks.gram(S), S.p)
    assert np.max(np.abs(A - A.T)) == 0.0
    assert np.trace(A) == 0.0
    G = ks.gram(S)
    eigs_g = np.linalg.eigvalsh(G)
    assert eigs_g[0] >= -1e-10 * np.max(np.abs(eigs_g))

    # rank <= 2 single-entry swaps
    spec = ks.KernelSpec("inner", "zero", env)
    for _ in range(5):
        i = int(rng.integers(0, 60))
        j = int(rng.integers(0, 80))
        before, after = ks.single_entry_swap(S, i, j, float(rng.normal()),
                                             spec)
        sv = np.linalg.svd(after - before, compute_uv=False)
        assert sv[2] <= 1e-9 * max(sv[0], 1e-300)

    # Hoffman-Wielandt on 50 random 50x50 pairs
    for _ in range(50):
        X = rng.standard_normal((50, 50))
        Y = rng.standard_normal((50, 50))
        Asym, Bsym = (X + X.T) / 2.0, (Y + Y.T) / 2.0
        lhs = np.sum((np.linalg.eigvalsh(Asym) - np.linalg.eigvalsh(Bsym)) ** 2)
        assert lhs <= np.sum((Asym - Bsym) ** 2) * (1.0 + 1e-8) + 1e-8

    # Cauchy interlacing on 20x20
    for _ in range(10):
        M = rng.standard_normal((20, 20))
        Msym = (M + M.T) / 2.0
        lam = np.linalg.eigvalsh(Msym)
        mu = np.linalg.eigvalsh(np.delete(np.delete(Msym, 3, 0), 3, 1))
        assert np.all(lam[:-1] <= mu + 1e-10)
        assert np.all(mu <= lam[1:] + 1e-10)

    # Herglotz and |m| <= 1/Im z on all empirical transforms here
    sample = ks.eigenvalues(A)
    for z in (1j, 0.5 + 0.25j, -2.0 + 1.5j, 3.0 + 0.05j):
        m = ks.empirical_stieltjes(sample, z)
        assert m.imag > 0
        assert abs(m) <= 1.0 / z.imag + 1e-12

    # exact diagonal shift for the sphere ensemble
    Ssph = ks.sample_matrix(ks.VectorEnsemble("sphere", 40), 60, seed=2)
    keep = ks.eigenvalues(
        ks.build(ks.KernelSpec("inner", "keep", env), ks.gram(Ssph), Ssph.p))
    zero = ks.eigenvalues(
        ks.build(ks.KernelSpec("inner", "zero", env), ks.gram(Ssph), Ssph.p))
    shift = keep.points - zero.points
    assert np.max(np.abs(shift - np.e)) < 1e-10

    elapsed = time.perf_counter() - t0
    _verdict(10, "structural property suite", elapsed < limit,
             "symmetry, trace, PSD, swap rank, Hoffman-Wielandt, "
             "interlacing, Herglotz, diagonal shift all hold",
             elapsed, limit)
    assert elapsed < limit


def test_criterion_11_stieltjes_concentration_trend():
    limit = 120.0
    t0 = time.perf_counter()
    variances = []
    for n in (250, 500, 1000):
        result = ks.run_universality(ks.ExperimentConfig(
            ensemble="gaussian", p=n, n=n, trials=20, seed=9,
            envelope="exp:a=1"))
        # E|m - Em|^2 of the complex m_A(i) across the run's trials
        ms = np.array([e.stieltjes(1j)
                       for e in result.samples["gaussian"].values()])
        variances.append(float(np.mean(np.abs(ms - ms.mean()) ** 2)))
    decreasing = all(b < a for a, b in zip(variances, variances[1:]))
    elapsed = time.perf_counter() - t0
    ok = decreasing and elapsed < limit
    _verdict(11, "Stieltjes transform concentration",
             ok, "variances " + " > ".join(f"{v:.2e}" for v in variances),
             elapsed, limit)
    assert decreasing
    assert elapsed < limit
