import ast
import mmap
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from kernelspectra import (VectorEnsemble, concentration_diagnostic, gram,
                           moment_diagnostic, sample_matrix)
from kernelspectra._rng import TAG_COLUMN, substream, substreams
from kernelspectra import ensembles
from kernelspectra.ensembles import FAMILIES


# Reference: the column sampler sample_matrix called with a freshly keyed
# generator per column. sample_matrix must match it bit for bit.
def _reference_column(family, p, rng):
    if family == "gaussian":
        return rng.standard_normal(p) / np.sqrt(p)
    if family == "rademacher":
        return (2.0 * rng.integers(0, 2, size=p) - 1.0) / np.sqrt(p)
    g = rng.standard_normal(p)
    norm = np.linalg.norm(g)
    while norm == 0.0:
        g = rng.standard_normal(p)
        norm = np.linalg.norm(g)
    return g / norm


# Odd p leaves a buffered 32-bit half behind in rademacher's integer draws;
# the sampler reads only the low half of its last raw word.
@pytest.mark.parametrize("p,n", [(7, 9), (601, 40), (8, 1), (601, 1), (1, 5),
                                 (2, 3), (600, 300)])
@pytest.mark.parametrize("family", FAMILIES)
def test_sample_matrix_matches_per_column_substreams(family, p, n):
    S = sample_matrix(VectorEnsemble(family, p), n, seed=2024)
    ref = np.empty((p, n))
    for j in range(n):
        ref[:, j] = _reference_column(family, p,
                                      substream(2024, TAG_COLUMN, j))
    assert S.data.shape == (p, n)
    assert S.data.tobytes() == ref.tobytes()


def _buffer_owner(a):
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


@pytest.mark.parametrize("family,p", [("gaussian", 8), ("rademacher", 8),
                                      ("rademacher", 7), ("sphere", 8)])
def test_mapped_sample_matches_the_heap_sample(family, p, monkeypatch):
    heap = sample_matrix(VectorEnsemble(family, p), 50, seed=3)
    monkeypatch.setattr(ensembles, "_MAPPED_ENTRIES", 1)
    mapped = sample_matrix(VectorEnsemble(family, p), 50, seed=3)
    assert isinstance(_buffer_owner(heap.data), np.ndarray)
    assert isinstance(_buffer_owner(mapped.data), mmap.mmap)
    assert mapped.data.strides == heap.data.strides
    assert mapped.data.tobytes() == heap.data.tobytes()


def test_substreams_rekey_to_the_fresh_substream_state():
    indices = [3, 0, 2**48 - 1, 3]
    for index, rng in zip(indices, substreams(99, TAG_COLUMN, indices)):
        fresh = substream(99, TAG_COLUMN, index).bit_generator.state
        state = rng.bit_generator.state
        assert np.array_equal(state["state"]["key"], fresh["state"]["key"])
        assert np.array_equal(state["state"]["counter"],
                              fresh["state"]["counter"])
        assert np.array_equal(state["buffer"], fresh["buffer"])
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert state[field] == fresh[field]
        rng.integers(0, 2, size=5)  # leave a buffered half behind
    with pytest.raises(ValueError):
        next(substreams(99, TAG_COLUMN, [2**48]))
    with pytest.raises(ValueError, match="tag out of range"):
        substream(99, 1 << 16, 0)


def test_sphere_redraws_an_all_zero_draw_from_its_stream():
    class ZeroFirst:
        calls = 0

        def standard_normal(self, out):
            self.calls += 1
            out[:] = 0.0 if self.calls == 1 else np.arange(1.0, out.size + 1)

    rows, streams = np.empty((2, 3)), [ZeroFirst(), ZeroFirst()]
    FAMILIES["sphere"].fill(rows, iter(streams))
    assert [rng.calls for rng in streams] == [2, 2]
    unit = np.arange(1.0, 4.0) / np.sqrt(14)
    assert np.array_equal(rows, [unit, unit])


def test_sphere_columns_have_unit_norm():
    S = sample_matrix(VectorEnsemble("sphere", 10), 5, seed=1)
    norms = np.linalg.norm(S.data, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_rademacher_entries_are_plus_minus_inverse_sqrt_p():
    S = sample_matrix(VectorEnsemble("rademacher", 4), 1, seed=123)
    assert set(np.unique(np.abs(S.data))) == {0.5}


def test_gaussian_overall_mean_within_clt_bound():
    # entries have variance 1/p, so the mean of np entries has standard
    # deviation (np)^{-1/2} p^{-1/2}; 4 sigma is the spec bound
    p = n = 1000
    S = sample_matrix(VectorEnsemble("gaussian", p), n, seed=7)
    bound = 4.0 / (np.sqrt(n * p) * np.sqrt(p))
    assert abs(float(S.data.mean())) < bound


def test_sampling_is_deterministic_and_column_keyed():
    ens = VectorEnsemble("gaussian", 20)
    a = sample_matrix(ens, 6, seed=42)
    b = sample_matrix(ens, 6, seed=42)
    assert np.array_equal(a.data, b.data)
    # column substreams: a shorter draw is a prefix of a longer one
    c = sample_matrix(ens, 3, seed=42)
    assert np.array_equal(c.data, a.data[:, :3])
    d = sample_matrix(ens, 6, seed=43)
    assert not np.array_equal(a.data, d.data)


@pytest.mark.parametrize("family", FAMILIES)
def test_families_are_normalized(family):
    ens = VectorEnsemble(family, 400)
    S = sample_matrix(ens, 200, seed=5)
    mean_sq_norm = float(np.mean(np.sum(S.data ** 2, axis=0)))
    assert abs(mean_sq_norm - 1.0) < 0.05


def test_invalid_arguments():
    with pytest.raises(ValueError, match=re.escape(
            "expected one of ('gaussian', 'rademacher', 'sphere')")):
        VectorEnsemble("cauchy", 3)
    with pytest.raises(ValueError):
        VectorEnsemble("gaussian", 0)
    with pytest.raises(ValueError):
        sample_matrix(VectorEnsemble("gaussian", 10), 0, seed=1)


@pytest.mark.parametrize("family", ["gaussian", "rademacher"])
def test_empirical_entry_variance_concentrates(family):
    # |var_hat - 1/p| <= 5 (np)^{-1/2} / p must hold in >= 95% of seeds
    p, n = 500, 400
    bound = 5.0 / (np.sqrt(n * p) * p)
    hits = 0
    for seed in range(40):
        S = sample_matrix(VectorEnsemble(family, p), n, seed=seed)
        if abs(float(np.var(S.data)) - 1.0 / p) <= bound:
            hits += 1
    assert hits >= 38


@pytest.mark.parametrize("p,K", [(5, 4), (5, 6), (50, 4), (50, 6)])
@pytest.mark.parametrize("family", FAMILIES)
def test_entry_moment_matches_sampled_columns(family, p, K):
    # one observation per independent column, the column mean of
    # (sqrt(p) x_i)^K, so the standard error holds for the sphere's
    # dependent entries too
    per_column = np.array([
        np.mean((np.sqrt(p) * _reference_column(family, p, rng)) ** K)
        for rng in substreams(17, TAG_COLUMN, range(20_000))])
    stderr = np.std(per_column, ddof=1) / np.sqrt(per_column.size)
    exact = float(FAMILIES[family].entry_moment(p, K))
    assert abs(np.mean(per_column) - exact) <= 4.0 * stderr


@pytest.mark.parametrize("p", [1, 2, 5, 50])
def test_entry_moments_equal_the_closed_forms(p):
    moment = {name: FAMILIES[name].entry_moment for name in FAMILIES}
    assert moment["gaussian"](p, 4) == 3
    assert moment["gaussian"](p, 6) == 15
    assert moment["rademacher"](p, 4) == moment["rademacher"](p, 6) == 1
    assert moment["sphere"](p, 4) == Fraction(3 * p, p + 2)
    assert moment["sphere"](p, 6) == Fraction(15 * p * p, (p + 2) * (p + 4))


def test_moment_diagnostic_reports_the_sphere_at_p_2p_4p():
    rep = moment_diagnostic(VectorEnsemble("sphere", 5), K=4)
    assert rep.moments == (Fraction(15, 7), Fraction(5, 2), Fraction(30, 11))
    assert not rep.growth_flagged


@pytest.mark.parametrize("K", [2, 4, 6])
@pytest.mark.parametrize("family", FAMILIES)
def test_moment_diagnostic_flags_no_family(family, K):
    for p in (1, 2, 5, 10, 50, 500):
        assert not moment_diagnostic(VectorEnsemble(family, p),
                                     K).growth_flagged


@pytest.mark.parametrize("K", [2, 4, 6, 16])
def test_moment_diagnostic_flags_sparse_entries_only_at_vanishing_s(
        K, monkeypatch):
    # entries +-1/sqrt(sp) with probability s: E (sqrt(p) x)^K = s^(1-K/2)
    def sparse(s_of_p):
        return replace(FAMILIES["gaussian"], entry_moment=lambda p, k:
                       s_of_p(p) ** (1 - k // 2))

    for p in (1, 2, 5, 10, 50, 500):
        ens = VectorEnsemble("gaussian", p)
        monkeypatch.setitem(FAMILIES, "gaussian",
                            sparse(lambda q: Fraction(1, 2 * q)))  # s = c/p
        assert moment_diagnostic(ens, K).growth_flagged == (K >= 4)
        monkeypatch.setitem(FAMILIES, "gaussian",
                            sparse(lambda q: Fraction(1, 10)))  # fixed s
        assert not moment_diagnostic(ens, K).growth_flagged


def test_moment_diagnostic_argument_validation():
    ens = VectorEnsemble("gaussian", 50)
    for K in (-2, 0, 1, 3, 17, 18, 400):
        with pytest.raises(ValueError, match="2 <= K <= 16"):
            moment_diagnostic(ens, K=K)


def test_concentration_sphere_norm_dev_is_zero():
    S = sample_matrix(VectorEnsemble("sphere", 64), 30, seed=9)
    rep = concentration_diagnostic(gram(S))
    assert rep.max_norm_dev < 1e-12
    assert rep.max_inner > 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_concentration_matches_off_diagonal_copy_reference(family):
    S = sample_matrix(VectorEnsemble(family, 33), 21, seed=4)
    G = gram(S)
    untouched = G.copy()
    rep = concentration_diagnostic(G)
    norms_sq = np.diag(untouched).copy()
    off = untouched - np.diag(norms_sq)
    assert rep.max_inner == float(np.max(np.abs(off)))
    assert rep.max_norm_dev == float(np.max(np.abs(norms_sq - 1.0)))
    assert G.tobytes() == untouched.tobytes()  # diagonal restored


def test_concentration_gaussian_calibrated_bound():
    # chi-square tail oracle: P(|chi2_1000/1000 - 1| > 0.25) ~ 4e-8, so
    # 500 columns stay below 0.25 in essentially every seed
    p, n = 1000, 500
    tail = stats.chi2.cdf(0.75 * p, df=p) + stats.chi2.sf(1.25 * p, df=p)
    assert n * tail < 1e-4
    hits = 0
    for seed in range(100):
        S = sample_matrix(VectorEnsemble("gaussian", p), n, seed=seed)
        norms_sq = np.sum(S.data ** 2, axis=0)
        if np.max(np.abs(norms_sq - 1.0)) < 0.25:
            hits += 1
    assert hits >= 99


def test_concentration_needs_two_columns():
    S = sample_matrix(VectorEnsemble("gaussian", 10), 1, seed=0)
    with pytest.raises(ValueError):
        concentration_diagnostic(gram(S))


def test_norm_deviation_decreases_stochastically_in_p():
    medians = []
    for p in (200, 2000):
        devs = []
        for seed in range(50):
            S = sample_matrix(VectorEnsemble("gaussian", p), 20, seed=seed)
            devs.append(concentration_diagnostic(gram(S)).max_norm_dev)
        medians.append(np.median(devs))
    assert medians[1] < medians[0]


def test_only_ensembles_names_a_family():
    # A family's behaviour lives in its FAMILIES record, so no other module
    # names a family constant or compares a value with a family name.
    constants = {"GAUSSIAN", "RADEMACHER", "SPHERE"}
    package = Path(ensembles.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name in ("ensembles.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            assert name not in constants, where
            if isinstance(node, ast.Compare):
                for op in (node.left, *node.comparators):
                    items = getattr(op, "elts", [op])
                    assert not any(isinstance(e, ast.Constant)
                                   and e.value in FAMILIES
                                   for e in items), where
