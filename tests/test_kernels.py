import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelspectra import (DerivativeError, Envelope, EnvelopeError,
                           KernelSpec, SampleMatrix, VectorEnsemble, build,
                           gram, linearized, parse_envelope,
                           single_entry_swap, squared_distances,
                           transference_linearized)
from kernelspectra.kernels import numeric_derivative


def _sample(family="gaussian", p=60, n=40, seed=0):
    from kernelspectra import sample_matrix
    return sample_matrix(VectorEnsemble(family, p), n, seed)


def _orthonormal_sample(p=8, n=5):
    data = np.eye(p)[:, :n]
    return SampleMatrix(data=data, ensemble=VectorEnsemble("gaussian", p),
                        seed=0)


# ---------------------------------------------------------------------------
# gram / squared distances
# ---------------------------------------------------------------------------

def test_gram_of_orthonormal_columns_is_identity():
    G = gram(_orthonormal_sample())
    assert np.array_equal(G, np.eye(5))


def test_gram_sphere_diagonal_is_ones():
    G = gram(_sample("sphere", 30, 20, seed=3))
    assert np.max(np.abs(np.diag(G) - 1.0)) < 1e-12


def test_gram_is_positive_semidefinite():
    G = gram(_sample(p=30, n=50, seed=1))  # rank-deficient on purpose
    eigs = np.linalg.eigvalsh(G)
    assert eigs[0] >= -1e-10 * np.max(np.abs(eigs))


def test_squared_distances_duplicate_columns():
    S = _sample(p=12, n=6, seed=4)
    data = S.data.copy()
    data[:, 3] = data[:, 1]
    S2 = SampleMatrix(data=data, ensemble=S.ensemble, seed=S.seed)
    D = squared_distances(S2)
    assert D[1, 3] == 0.0


def test_squared_distances_orthonormal_off_diagonal_is_two():
    D = squared_distances(_orthonormal_sample())
    off = D[~np.eye(5, dtype=bool)]
    assert np.max(np.abs(off - 2.0)) < 1e-14


def test_squared_distances_match_direct_subtraction_oracle():
    S = _sample(p=40, n=25, seed=7)
    D = squared_distances(S)
    direct = np.array([[np.sum((S.data[:, i] - S.data[:, j]) ** 2)
                        for j in range(S.n)] for i in range(S.n)])
    assert np.max(np.abs(D - direct)) < 1e-10


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

# Reference: the construction build used when gram and build each mirrored
# an upper triangle into a fresh matrix. build must match it bit for bit.
def _mirror_upper(M, diag):
    out = np.triu(M, k=1)
    out = out + out.T
    np.fill_diagonal(out, diag)
    return out


def _reference_build(spec, S):
    """(matrix, first non-finite (i, j) or None) of the mirrored build."""
    G = S.data.T @ S.data
    G = _mirror_upper(G, np.diag(G).copy())
    K = G
    if spec.kernel == "distance":
        g = np.diag(G)
        K = g[:, None] + g[None, :] - 2.0 * G
        np.maximum(K, 0.0, out=K)
        np.fill_diagonal(K, 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(spec.envelope(K, S.p), dtype=float)
    bad = ~np.isfinite(vals)
    if spec.diagonal == "zero":
        np.fill_diagonal(bad, False)
    first = tuple(map(int, np.argwhere(bad)[0])) if bad.any() else None
    diag = np.zeros(S.n) if spec.diagonal == "zero" else np.diag(vals).copy()
    return _mirror_upper(vals, diag), first


def _layouts(p=17, n=13, seed=31):
    """Samples whose data is C-order, F-order, column-sliced and strided."""
    wide = np.ascontiguousarray(_sample(p=p, n=3 * n, seed=seed).data)
    datas = [wide[:, :n].copy(), np.asfortranarray(wide[:, :n]),
             wide[:, n:2 * n], wide[:, ::3]]
    return [SampleMatrix(data=d, ensemble=VectorEnsemble("gaussian", p),
                         seed=seed) for d in datas]


_REGISTRY_ENVELOPES = ["identity", "const:c=1", "exp:a=1", "exp:a=-1",
                       "power:a=0.5", "sign-scaled", "nonsmooth-sin"]


@pytest.mark.parametrize("diagonal", ["keep", "zero"])
@pytest.mark.parametrize("kernel", ["inner", "distance"])
@pytest.mark.parametrize("envelope", _REGISTRY_ENVELOPES)
def test_build_matches_mirrored_reference_bit_for_bit(envelope, kernel,
                                                      diagonal):
    spec = KernelSpec(kernel, diagonal, parse_envelope(envelope))
    for S in _layouts():
        G = gram(S)
        untouched = G.copy()
        A = build(spec, S, G)
        assert A.tobytes() == _reference_build(spec, S)[0].tobytes()
        assert G.tobytes() == untouched.tobytes()  # build leaves G alone


@pytest.mark.parametrize("kernel,diagonal", [("inner", "keep"),
                                             ("inner", "zero"),
                                             ("distance", "keep"),
                                             ("distance", "zero")])
def test_build_reports_the_reference_first_non_finite_entry(kernel, diagonal):
    # log(x - c) is NaN below c: c = 0 hits negative inner products, c = 2
    # hits distances below their concentration point and the distance
    # diagonal
    shift = 0.0 if kernel == "inner" else 2.0

    def quiet_log(x, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(x - shift)

    spec = KernelSpec(kernel, diagonal, Envelope("log", quiet_log))
    for S in _layouts():
        _, first = _reference_build(spec, S)
        assert first is not None
        with pytest.raises(EnvelopeError) as err:
            build(spec, S, gram(S))
        assert (err.value.i, err.value.j) == first

def test_build_identity_envelope_equals_gram():
    S = _sample(seed=2)
    spec = KernelSpec("inner", "keep", parse_envelope("identity"))
    A = build(spec, S, gram(S))
    assert np.array_equal(A, gram(S))


def test_build_exp_distance_keep_diagonal_is_one():
    S = _sample(seed=5)
    spec = KernelSpec("distance", "keep", parse_envelope("exp:a=1"))
    A = build(spec, S, gram(S))
    assert np.array_equal(np.diag(A), np.ones(S.n))


def test_build_sign_scaled_value_range():
    p = 49
    S = _sample(p=p, n=30, seed=6)
    spec = KernelSpec("inner", "zero", parse_envelope("sign-scaled"))
    A = build(spec, S, gram(S))
    allowed = {-1.0 / np.sqrt(p), 0.0, 1.0 / np.sqrt(p)}
    assert set(np.unique(A)).issubset(allowed)


def test_build_flags_non_finite_envelope_values():
    S = _sample(p=20, n=10, seed=8)

    def quiet_log(x, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(x)  # NaN for x < 0

    spec = KernelSpec("inner", "zero", Envelope("log", quiet_log))
    with pytest.raises(EnvelopeError) as err:
        build(spec, S, gram(S))
    assert err.value.i is not None and err.value.j is not None
    assert err.value.x is not None


def test_build_zero_diagonal_ignores_diagonal_envelope_values():
    # distance diagonal is 0; 1/x envelope blows up there but zero-diag
    # never evaluates the result
    S = _sample(p=20, n=10, seed=8)
    inv = Envelope("inv", lambda x, p: np.divide(1.0, x,
                                                 out=np.full_like(x, np.inf),
                                                 where=x != 0))
    A = build(KernelSpec("distance", "zero", inv), S, gram(S))
    assert np.all(np.isfinite(A))


@settings(max_examples=20, deadline=None)
@given(kernel=st.sampled_from(["inner", "distance"]),
       diagonal=st.sampled_from(["keep", "zero"]),
       seed=st.integers(0, 1000))
def test_built_matrices_are_exactly_symmetric(kernel, diagonal, seed):
    S = _sample(p=15, n=12, seed=seed)
    spec = KernelSpec(kernel, diagonal, parse_envelope("exp:a=0.5"))
    A = build(spec, S, gram(S))
    assert np.max(np.abs(A - A.T)) == 0.0
    if diagonal == "zero":
        assert np.trace(A) == 0.0


# ---------------------------------------------------------------------------
# linearized companions
# ---------------------------------------------------------------------------

def test_linearized_identity_inner_keep_is_gram():
    S = _sample(seed=11)
    spec = KernelSpec("inner", "keep", parse_envelope("identity"))
    B = linearized(spec, S)
    assert np.max(np.abs(B - gram(S))) < 1e-14


def test_linearized_exp_inner_keep():
    # alpha = f(1) - f(0) - f'(0) = e - 2, scale f'(0) = 1
    S = _sample(seed=12)
    spec = KernelSpec("inner", "keep", parse_envelope("exp:a=1"))
    B = linearized(spec, S)
    expected = (np.e - 2.0) * np.eye(S.n) + gram(S)
    assert np.max(np.abs(B - expected)) < 1e-12


def test_linearized_exp_distance():
    # shift f(0) - f(2) + 2 f'(2) = 1 - 3 e^{-2}, scale -2 f'(2) = 2 e^{-2}
    S = _sample(seed=13)
    spec = KernelSpec("distance", "keep", parse_envelope("exp:a=-1"))
    B = linearized(spec, S)
    expected = (1.0 - 3.0 * np.exp(-2.0)) * np.eye(S.n) \
        + 2.0 * np.exp(-2.0) * gram(S)
    assert np.max(np.abs(B - expected)) < 1e-12


def test_linearized_requires_derivative():
    S = _sample(seed=14)
    spec = KernelSpec("inner", "zero", parse_envelope("sign-scaled"))
    with pytest.raises(DerivativeError):
        linearized(spec, S)


# ---------------------------------------------------------------------------
# transference
# ---------------------------------------------------------------------------

def test_transference_identity_at_zero_returns_input():
    S = _sample(seed=15)
    D = squared_distances(S)
    B = transference_linearized(D, parse_envelope("identity"), a=0.0)
    assert np.max(np.abs(B - D)) < 1e-14


def test_transference_constant_envelope():
    S = _sample(seed=16)
    D = squared_distances(S)
    B = transference_linearized(D, parse_envelope("const:c=3"), a=1.5)
    assert np.max(np.abs(B - (-3.0) * np.eye(S.n))) < 1e-14


def test_transference_matches_distance_linearization_up_to_bookkeeping():
    # B_transfer - B_lin = f'(2) (g 1^T + 1 g^T) - f(0) I with g = diag(gram)
    S = _sample(seed=17)
    env = parse_envelope("exp:a=-1")
    D = squared_distances(S)
    Bt = transference_linearized(D, env, a=2.0)
    Bl = linearized(KernelSpec("distance", "keep", env), S)
    g = np.diag(gram(S))
    d2 = -np.exp(-2.0)
    bookkeeping = d2 * (g[:, None] + g[None, :]) - 1.0 * np.eye(S.n)
    assert np.max(np.abs(Bt - Bl - bookkeeping)) < 1e-12


def test_transference_rejects_asymmetric_input():
    M = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValueError):
        transference_linearized(M, parse_envelope("identity"), a=0.0)


def test_transference_rejects_nan_input():
    M = np.zeros((3, 3))
    M[1, 1] = np.nan
    with pytest.raises(ValueError):
        transference_linearized(M, parse_envelope("identity"), a=0.0)


# ---------------------------------------------------------------------------
# single-entry swap
# ---------------------------------------------------------------------------

def test_swap_with_same_value_is_identity():
    S = _sample(p=20, n=15, seed=18)
    spec = KernelSpec("inner", "zero", parse_envelope("exp:a=1"))
    before, after = single_entry_swap(S, 3, 5, float(S.data[3, 5]), spec)
    assert np.array_equal(before, after)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500), i=st.integers(0, 19), j=st.integers(0, 14))
def test_swap_difference_has_rank_at_most_two(seed, i, j):
    S = _sample(p=20, n=15, seed=seed)
    spec = KernelSpec("inner", "zero", parse_envelope("exp:a=1"))
    before, after = single_entry_swap(S, i, j, 0.37, spec)
    delta = after - before
    sv = np.linalg.svd(delta, compute_uv=False)
    if sv[0] > 0:
        assert sv[2] <= 1e-9 * sv[0]
    outside = delta.copy()
    outside[j, :] = 0.0
    outside[:, j] = 0.0
    assert np.all(outside == 0.0)


def test_swap_index_out_of_range():
    S = _sample(p=10, n=8, seed=19)
    spec = KernelSpec("inner", "zero", parse_envelope("identity"))
    with pytest.raises(ValueError):
        single_entry_swap(S, 10, 0, 0.0, spec)
    with pytest.raises(ValueError):
        single_entry_swap(S, 0, 8, 0.0, spec)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_hoffman_wielandt_inequality_on_random_pairs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        X = rng.standard_normal((40, 40))
        Y = rng.standard_normal((40, 40))
        A = (X + X.T) / 2.0
        B = (Y + Y.T) / 2.0
        lam_a = np.linalg.eigvalsh(A)
        lam_b = np.linalg.eigvalsh(B)
        lhs = np.sum((lam_a - lam_b) ** 2)
        rhs = np.sum((A - B) ** 2)
        assert lhs <= rhs * (1.0 + 1e-8) + 1e-8


def _smallness_delta(name, epsilon):
    # delta derived from a Taylor remainder bound per envelope:
    #   exp(ax):   |e^{ax}-1-ax| <= e (ax)^2/2 for |ax| <= 1
    #   (1+x)^a:   remainder <= |a(a-1)|/2 x^2 max((3/2)^{a-2},(1/2)^{a-2})
    #              for |x| <= 1/2
    #   x+x^2 sin(1/x): remainder = |x^2 sin(1/x)| <= x^2
    if name == "identity":
        return 1.0
    if name == "exp:a=1":
        return min(1.0, 2.0 * epsilon / np.e)
    if name == "power:a=0.5":
        a = 0.5
        m = max(1.5 ** (a - 2.0), 0.5 ** (a - 2.0))
        return min(0.5, 2.0 * epsilon / (abs(a * (a - 1.0)) * m))
    if name == "nonsmooth-sin":
        return epsilon
    raise ValueError(name)


@pytest.mark.parametrize("name", ["identity", "exp:a=1", "power:a=0.5",
                                  "nonsmooth-sin"])
def test_transference_smallness_on_sampled_kernel_values(name):
    env = parse_envelope(name)
    epsilon = 0.05
    delta = _smallness_delta(name, epsilon)
    assert delta > 0.0
    S = _sample(p=300, n=80, seed=22)
    G = gram(S)
    vals = G[~np.eye(S.n, dtype=bool)]
    vals = vals[np.abs(vals) < delta]
    assert vals.size > 0
    f0 = env.value(0.0, S.p)
    d0 = env.derivative(0.0, S.p)
    resid = np.abs(np.asarray(env(vals, S.p)) - f0 - d0 * vals)
    assert np.all(resid <= epsilon * np.abs(vals) + 1e-15)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def test_numeric_derivative_fallback_matches_analytic():
    bare_exp = Envelope("bare-exp", lambda x, p: np.exp(x))
    d = numeric_derivative(bare_exp, 0.0, p=1)
    assert abs(d - 1.0) < 1e-9
    assert abs(bare_exp.derivative(2.0, 1) - np.exp(2.0)) < 1e-5


def test_numeric_derivative_rejects_jump():
    step = Envelope("step", lambda x, p: np.sign(x))
    with pytest.raises(DerivativeError):
        numeric_derivative(step, 0.0, p=1)


def test_nonsmooth_sin_extension_and_derivative():
    env = parse_envelope("nonsmooth-sin")
    assert env(0.0, 1) == 0.0
    assert env.analytic.d0 == 1.0
    x = 1.0 / (100.5 * np.pi)
    assert abs(env(x, 1) - (x + x * x * np.sin(1.0 / x))) < 1e-18


def test_nonsmooth_sin_at_zero_warns_nothing():
    env = parse_envelope("nonsmooth-sin")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = env(np.array([-0.5, 0.0, 0.25]), 1)
    assert out[1] == 0.0


def test_parse_envelope_errors():
    with pytest.raises(ValueError):
        parse_envelope("mystery")
    with pytest.raises(ValueError):
        parse_envelope("power:a=-1")
    with pytest.raises(ValueError):
        parse_envelope("exp:a")


def test_envelope_analytic_values_match_eval():
    for name in ("identity", "exp:a=0.7", "power:a=1.5", "nonsmooth-sin",
                 "const:c=2"):
        env = parse_envelope(name)
        for point, attr in ((0.0, "f0"), (1.0, "f1"), (2.0, "f2")):
            known = getattr(env.analytic, attr)
            if known is not None:
                assert abs(float(env(point, 1)) - known) < 1e-12
