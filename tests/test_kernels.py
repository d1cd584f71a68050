import ast
import inspect
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelspectra import (DerivativeError, Envelope, EnvelopeError,
                           KernelSpec, SampleMatrix, VectorEnsemble, build,
                           gram, linearized, parse_envelope,
                           single_entry_swap)
from kernelspectra import kernels
from kernelspectra.kernels import DIAGONALS, ENVELOPE_FACTORIES, KERNELS


def _sample(family="gaussian", p=60, n=40, seed=0):
    from kernelspectra import sample_matrix
    return sample_matrix(VectorEnsemble(family, p), n, seed)


def _orthonormal_sample(p=8, n=5):
    data = np.eye(p)[:, :n]
    return SampleMatrix(data=data)


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


def _distances(S):
    """D_ij = ||X_i - X_j||^2: build with the distance kernel and identity."""
    spec = KernelSpec("distance", "keep", parse_envelope("identity"))
    return build(spec, gram(S), S.p)


def test_squared_distances_duplicate_columns():
    S = _sample(p=12, n=6, seed=4)
    data = S.data.copy()
    data[:, 3] = data[:, 1]
    S2 = SampleMatrix(data=data)
    D = _distances(S2)
    assert D[1, 3] == 0.0


def test_squared_distances_orthonormal_off_diagonal_is_two():
    D = _distances(_orthonormal_sample())
    off = D[~np.eye(5, dtype=bool)]
    assert np.max(np.abs(off - 2.0)) < 1e-14


def test_squared_distances_match_direct_subtraction_oracle():
    S = _sample(p=40, n=25, seed=7)
    D = _distances(S)
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
    return [SampleMatrix(data=d) for d in datas]


def _block_rows(monkeypatch, n=13):
    """Set build's row blocks to 1, 5 (ragged at n = 13) and >= n rows."""
    for rows in (1, 5, kernels._BLOCK_ENTRIES // n):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows * n)
        yield rows


_REGISTRY_ENVELOPES = ["identity", "const:c=1", "exp:a=1", "exp:a=-1",
                       "power:a=0.5", "sign-scaled", "nonsmooth-sin"]


@pytest.mark.parametrize("diagonal", ["keep", "zero"])
@pytest.mark.parametrize("kernel", ["inner", "distance"])
@pytest.mark.parametrize("envelope", _REGISTRY_ENVELOPES)
def test_build_matches_mirrored_reference_bit_for_bit(envelope, kernel,
                                                      diagonal, monkeypatch):
    spec = KernelSpec(kernel, diagonal, parse_envelope(envelope))
    for _ in _block_rows(monkeypatch):
        for S in _layouts():
            G = gram(S)
            A = build(spec, G, S.p)
            assert A.tobytes() == _reference_build(spec, S)[0].tobytes()
            assert A is G  # build writes A over G


@pytest.mark.parametrize("kernel,diagonal", [("inner", "keep"),
                                             ("inner", "zero"),
                                             ("distance", "keep"),
                                             ("distance", "zero")])
def test_build_reports_the_reference_first_non_finite_entry(kernel, diagonal,
                                                            monkeypatch):
    # log(x - c) is NaN below c: c = 0 hits negative inner products, c = 2
    # hits distances below their concentration point and the distance
    # diagonal
    shift = 0.0 if kernel == "inner" else 2.0

    def quiet_log(x, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(x - shift)

    for _ in _block_rows(monkeypatch):
        for S in _layouts():
            K = gram(S) if kernel == "inner" else _distances(S)
            # NaN only at the value of K[n-1, n-2]: the first hit is
            # (n-2, n-1), past the first row block
            spike = K[-1, -2]

            def nan_at_spike(x, p):
                return np.where(x == spike, np.nan, x)

            for f in (quiet_log, nan_at_spike):
                spec = KernelSpec(kernel, diagonal, Envelope("f", f))
                _, first = _reference_build(spec, S)
                assert first is not None
                with pytest.raises(EnvelopeError) as err:
                    build(spec, gram(S), S.p)
                assert (err.value.i, err.value.j) == first
                assert err.value.x == K[first]


@pytest.mark.parametrize("kernel,diagonal,envelope",
                         [("inner", "zero", "exp:a=1"),
                          ("distance", "keep", "exp:a=-1")])
def test_build_allocates_one_output_and_block_sized_temporaries(
        kernel, diagonal, envelope):
    # A whole-matrix build peaks at 2 (inner exp: a x, then exp) or 3
    # (distances, 2 G, then exp) n x n arrays; A written over G in blocks
    # allocates none.
    S = _sample(p=30, n=1200, seed=4)
    G = gram(S)
    spec = KernelSpec(kernel, diagonal, parse_envelope(envelope))
    tracemalloc.start()
    try:
        build(spec, G, S.p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * G.nbytes


def test_build_identity_envelope_equals_gram():
    S = _sample(seed=2)
    spec = KernelSpec("inner", "keep", parse_envelope("identity"))
    A = build(spec, gram(S), S.p)
    assert np.array_equal(A, gram(S))


def test_build_exp_distance_keep_diagonal_is_one():
    S = _sample(seed=5)
    spec = KernelSpec("distance", "keep", parse_envelope("exp:a=1"))
    A = build(spec, gram(S), S.p)
    assert np.array_equal(np.diag(A), np.ones(S.n))


def test_build_sign_scaled_value_range():
    p = 49
    S = _sample(p=p, n=30, seed=6)
    spec = KernelSpec("inner", "zero", parse_envelope("sign-scaled"))
    A = build(spec, gram(S), S.p)
    allowed = {-1.0 / np.sqrt(p), 0.0, 1.0 / np.sqrt(p)}
    assert set(np.unique(A)).issubset(allowed)


def test_build_flags_non_finite_envelope_values():
    S = _sample(p=20, n=10, seed=8)

    def quiet_log(x, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(x)  # NaN for x < 0

    spec = KernelSpec("inner", "zero", Envelope("log", quiet_log))
    with pytest.raises(EnvelopeError) as err:
        build(spec, gram(S), S.p)
    assert err.value.i is not None and err.value.j is not None
    assert err.value.x is not None
    assert f"x={err.value.x!r}" in str(err.value)
    assert "np.float64" not in str(err.value)


def test_build_zero_diagonal_ignores_diagonal_envelope_values():
    # distance diagonal is 0; 1/x envelope blows up there but zero-diag
    # never evaluates the result
    S = _sample(p=20, n=10, seed=8)
    inv = Envelope("inv", lambda x, p: np.divide(1.0, x,
                                                 out=np.full_like(x, np.inf),
                                                 where=x != 0))
    A = build(KernelSpec("distance", "zero", inv), gram(S), S.p)
    assert np.all(np.isfinite(A))


@settings(max_examples=20, deadline=None)
@given(kernel=st.sampled_from(["inner", "distance"]),
       diagonal=st.sampled_from(["keep", "zero"]),
       seed=st.integers(0, 1000))
def test_built_matrices_are_exactly_symmetric(kernel, diagonal, seed):
    S = _sample(p=15, n=12, seed=seed)
    spec = KernelSpec(kernel, diagonal, parse_envelope("exp:a=0.5"))
    A = build(spec, gram(S), S.p)
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


def test_linearized_scales_the_gram_matrix_in_place():
    S = _sample(p=30, n=1200, seed=15)
    spec = KernelSpec("inner", "zero", parse_envelope("exp:a=1"))
    tracemalloc.start()
    try:
        linearized(spec, S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * S.n ** 2


def test_linearized_requires_derivative():
    S = _sample(seed=14)
    spec = KernelSpec("inner", "zero", parse_envelope("sign-scaled"))
    with pytest.raises(DerivativeError):
        linearized(spec, S)


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
    f0 = env.value(0.0)
    d0 = env.derivative(0.0)
    resid = np.abs(np.asarray(env(vals, S.p)) - f0 - d0 * vals)
    assert np.all(resid <= epsilon * np.abs(vals) + 1e-15)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def test_derivative_is_recorded_or_absent():
    bare_exp = Envelope("bare-exp", lambda x, p: np.exp(x), ((1.0, np.e),))
    assert bare_exp.derivative(1.0) == np.e
    with pytest.raises(DerivativeError,
                       match="'bare-exp' records no slope at x=0.0"):
        bare_exp.derivative(0.0)


def test_nonsmooth_sin_extension_and_derivative():
    env = parse_envelope("nonsmooth-sin")
    assert env(0.0, 1) == 0.0
    assert env.derivative(0.0) == 1.0
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


# every registered envelope, with these parameter settings where it has any
_PARAMETERS = {"const": ["c=2"], "exp": ["a=0.7", "a=-1"],
               "power": ["a=0.5", "a=1.5", "a=3"]}


def _richardson_slope(env, x0):
    """Oracle: a central difference at p = 1 with one Richardson step."""
    h = max(1e-6, 1e-6 * abs(x0))

    def central(hh):
        return float((env(x0 + hh, 1) - env(x0 - hh, 1)) / (2.0 * hh))

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


@pytest.mark.parametrize("text", [
    f"{name}:{params}" if params else name
    for name in ENVELOPE_FACTORIES for params in _PARAMETERS.get(name, [""])])
def test_recorded_slopes_match_the_numeric_derivative(text):
    env = parse_envelope(text)
    for x0, slope in env.slopes:
        numeric = _richardson_slope(env, x0)
        assert abs(slope - numeric) <= 1e-6 * max(1.0, abs(numeric)), x0


@pytest.mark.parametrize("text", ["identity", "const:c=2", "exp:a=1",
                                  "exp:a=-1", "power:a=0.5", "power:a=3",
                                  "nonsmooth-sin", "sign-scaled"])
@pytest.mark.parametrize("x0", [0.0, 1.0, 2.0, -0.3])
def test_derivative_of_registered_envelopes_is_recorded_or_refused(text, x0):
    # the smooth envelopes record f'(0) and f'(2), the points the affine MP
    # law reads; p-dependent sign-scaled records none; no slope is computed
    env = parse_envelope(text)
    if text != "sign-scaled" and x0 in (0.0, 2.0):
        slope = env.derivative(x0)
        assert slope == dict(env.slopes)[x0]
        numeric = _richardson_slope(env, x0)
        assert abs(slope - numeric) <= 1e-6 * max(1.0, abs(numeric))
    else:
        with pytest.raises(DerivativeError,
                           match=re.escape(f"{env.name!r} records no slope "
                                           f"at x={x0}")):
            env.derivative(x0)


@pytest.mark.parametrize("a", [647.0, 1000.0])
def test_power_envelope_omits_an_overflowing_slope(a):
    env = parse_envelope(f"power:a={a:g}")
    assert dict(env.slopes) == {0.0: a}
    assert env.value(2.0) == np.inf


def _p_free_where_sloped(env):
    """False when ``env`` records a slope and f(x, p) at some x in 0, 1, 2
    differs in its bits between p = 1 and p = 1200."""
    return not env.slopes or all(
        np.asarray(env(x, 1)).tobytes() == np.asarray(env(x, 1200)).tobytes()
        for x in (0.0, 1.0, 2.0))


_DEFAULTED = [name for name, factory in ENVELOPE_FACTORIES.items()
              if all(param.default is not param.empty for param in
                     inspect.signature(factory).parameters.values())]


@pytest.mark.parametrize("text", [*_DEFAULTED, "exp:a=-1", "power:a=0.5",
                                  "const:c=2"])
def test_an_envelope_with_slopes_does_not_vary_with_p(text):
    # the affine MP law reads f at p = 1 (Envelope.value); that is the law
    # of every p only if an envelope that records a slope is p-free
    assert _p_free_where_sloped(parse_envelope(text))


def test_the_p_free_check_flags_a_p_dependent_envelope_with_slopes():
    assert _p_free_where_sloped(Envelope("unsloped", lambda x, p: x / p))
    assert not _p_free_where_sloped(
        Envelope("sloped", lambda x, p: x / p, ((0.0, 1.0),)))


def test_only_kernels_compares_a_kernel_name():
    # A kernel's and a diagonal's behaviour lives in kernels, so no other
    # module compares a value with their names; a KernelSpec carries them.
    names = {*KERNELS, *DIAGONALS}
    package = Path(kernels.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                where = f"{path.name}:{node.lineno}"
                for op in (node.left, *node.comparators):
                    items = getattr(op, "elts", [op])
                    assert not any(isinstance(e, ast.Constant)
                                   and e.value in names
                                   for e in items), where
