import csv
import os
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from kernelspectra import (ESD, Envelope, ExperimentConfig, KernelSpec,
                           VectorEnsemble, build, build_basis, eigenvalues,
                           envelope_coeffs, gram, ks_distance, parse_config,
                           parse_envelope, run_l2_perturbation,
                           run_universality, sample_matrix, xi_moments)
from kernelspectra._rng import TAG_TRIAL, TAG_TRIAL_B, derive_seed
from kernelspectra.cli import cli_main
from kernelspectra.experiments import (CONFIG_SCHEMA, config_text, trial_grams,
                                       write_result)
from kernelspectra.kernels import ENVELOPE_FACTORIES


def _esd_points(result, fam):
    return result.pooled[fam].points


def _written(out_dir):
    return sorted(path.name for path in Path(out_dir).iterdir())


def _contract_files(law, errors=False):
    """What write_result puts in a run's directory, sorted."""
    tables = ["esd.csv", "distances.csv", *(["law.csv"] if law else [])]
    return sorted(["config.resolved", *tables, *(t + ".meta" for t in tables),
                   *(["errors.csv"] if errors else [])])


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_round_trip():
    text = """
    # demo config
    ensemble=gaussian
    p=60
    n=120
    trials=2
    seed=9
    kernel=inner
    diag=zero
    envelope=exp:a=1
    target=affine-mp
    z_grid=1j;0.5+1j
    """
    cfg = parse_config(text)
    assert cfg.p == 60 and cfg.n == 120 and cfg.gamma == 0.5
    assert cfg.diag == "zero"
    assert cfg.z_grid == (1j, 0.5 + 1j)


def test_parse_config_overrides_and_unknown_key():
    cfg = parse_config("p=10\nn=20\n", overrides={"p": "30"})
    assert cfg.p == 30
    with pytest.raises(ValueError):
        parse_config("mystery=1\n")
    with pytest.raises(ValueError):
        parse_config("p 10\n")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(target="cross-ensemble")  # needs ensemble_b
    with pytest.raises(ValueError):
        ExperimentConfig(target="functional-equation")  # needs law params
    with pytest.raises(ValueError):
        ExperimentConfig(ensemble="cauchy")
    with pytest.raises(ValueError):
        ExperimentConfig(z_grid=(1.0 - 1j,))
    with pytest.raises(ValueError):
        ExperimentConfig(n=10 ** 9, trials=1000)  # desk-scale cap
    with pytest.raises(ValueError, match="z_grid"):
        ExperimentConfig(z_grid=())
    for epsilon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            ExperimentConfig(p=20, n=40, target="functional-equation",
                             law_a=1.0, law_nu=1.0, epsilon=epsilon)
    for law_a, law_nu in ((-1.0, 1.0), (1.0, 0.5), (float("nan"), 1.0)):
        with pytest.raises(ValueError):
            ExperimentConfig(p=20, n=40, target="functional-equation",
                             law_a=law_a, law_nu=law_nu)
    for half in ({"law_a": 1.0}, {"law_nu": 1.0}):
        with pytest.raises(ValueError, match="needs law_a and law_nu"):
            ExperimentConfig(target="functional-equation", ensemble_b="sphere",
                             **half)
    for target in ("affine-mp", "cross-ensemble"):
        with pytest.raises(ValueError, match="differ"):
            ExperimentConfig(target=target, ensemble_b="gaussian")
    with pytest.raises(ValueError, match="gamma"):
        parse_config("p=20\nn=40\ngamma=0.3\n")
    # a written config.resolved echoes gamma=repr(p/n) and loads unchanged
    cfg = ExperimentConfig(p=1, n=3, target="functional-equation",
                           law_a=0.5, law_nu=0.75)
    assert parse_config(config_text(cfg)) == cfg


# What each target needs besides the key under test, and the keys it reads:
# target picks the law, only functional-equation solves one (from law_a,
# law_nu and epsilon), and ensemble_b adds a second family under any target.
_TARGET_NEEDS = {"affine-mp": {}, "cross-ensemble": {"ensemble_b": "sphere"},
                 "functional-equation": {"law_a": 0.5, "law_nu": 1.0}}
_TARGET_READS = {"affine-mp": {"ensemble_b"}, "cross-ensemble": {"ensemble_b"},
                 "functional-equation": {"ensemble_b", "law_a", "law_nu",
                                         "epsilon"}}
_KEY_VALUES = {"ensemble_b": "sphere", "law_a": 0.25, "law_nu": 1.5,
               "epsilon": 2e-3}


@pytest.mark.parametrize("target, key", [
    (target, key) for target in _TARGET_NEEDS for key in _KEY_VALUES],
    ids=lambda value: value)
def test_config_rejects_a_key_its_target_ignores(target, key):
    # a key that would only be echoed into config.resolved is an error
    settings = {"p": 20, "n": 40, "target": target, **_TARGET_NEEDS[target],
                key: _KEY_VALUES[key]}
    if key in _TARGET_READS[target]:
        assert getattr(ExperimentConfig(**settings), key) == _KEY_VALUES[key]
    else:
        with pytest.raises(ValueError, match=f"{target} target does not "
                                             f"read {key}"):
            ExperimentConfig(**settings)


@pytest.mark.parametrize("settings", [
    {},
    {"ensemble_b": "sphere"},
], ids=["functional-equation", "functional-equation-ensemble_b"])
def test_a_solved_law_reads_epsilon_and_defaults_it(settings):
    settings = {"p": 20, "n": 40, "target": "functional-equation",
                "law_a": 1.0, "law_nu": 1.5, **settings}
    config = ExperimentConfig(**settings)
    assert config.epsilon == 1e-3 and "epsilon=0.001\n" in config_text(config)
    result = run_universality(ExperimentConfig(**settings, epsilon=2e-3))
    assert result.law.epsilon == 2e-3


def test_config_built_from_numpy_scalars_reloads():
    cfg = ExperimentConfig(p=np.int64(20), n=np.int64(40), seed=np.int64(3),
                           target="functional-equation", envelope="sign-scaled",
                           law_a=np.sqrt(2 / np.pi), law_nu=np.float64(1.0),
                           epsilon=np.float64(1e-3))
    text = config_text(cfg)
    assert "law_a=0.7978845608028654\n" in text and "np." not in text
    assert parse_config(text) == cfg


def test_each_config_field_has_one_schema_key():
    assert list(CONFIG_SCHEMA) == [f.name for f in fields(ExperimentConfig)]


def test_star_import_exports_every_name_once():
    import kernelspectra
    namespace: dict = {}
    exec("from kernelspectra import *", namespace)
    assert set(kernelspectra.__all__) <= namespace.keys()
    assert len(set(kernelspectra.__all__)) == len(kernelspectra.__all__)


def test_unknown_envelope_is_rejected_when_the_config_is_made():
    with pytest.raises(ValueError, match="unknown envelope 'cosh'"):
        parse_config("envelope=cosh:a=1\n")
    with pytest.raises(ValueError, match="kernel"):
        ExperimentConfig(kernel="cosine")
    with pytest.raises(ValueError, match="diag"):
        ExperimentConfig(diag="half")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def test_run_universality_affine_mp(tmp_path):
    cfg = ExperimentConfig(ensemble="gaussian", p=50, n=100, trials=3, seed=4,
                           kernel="inner", diag="zero", envelope="exp:a=1",
                           target="affine-mp")
    result = run_universality(cfg)
    write_result(result, tmp_path / "run")
    assert not result.errors
    assert _esd_points(result, "gaussian").size == 300
    assert len([r for r in result.distances
                if r.family == "gaussian" and r.trial >= 0]) == 3
    [rec] = [r for r in result.distances
             if r.family == "gaussian" and r.trial == -1]
    assert 0.0 <= rec.ks <= 1.0 and rec.w1 >= 0.0 and rec.stieltjes_sup >= 0.0
    assert _written(tmp_path / "run") == _contract_files(law=True)
    header = (tmp_path / "run" / "distances.csv").read_text().splitlines()[0]
    assert header == "trial,ks,w1,stieltjes_sup"


def test_run_universality_outputs_are_byte_identical(tmp_path, capsys):
    # every file, sidecars and config.resolved included: the directory a
    # run is written to is no part of what it writes
    settings = {"ensemble": "rademacher", "p": 30, "n": 60, "trials": 2,
                "seed": 11, "kernel": "inner", "diag": "zero",
                "envelope": "exp:a=1", "target": "affine-mp"}
    sets = [arg for key, val in settings.items()
            for arg in ("--set", f"{key}={val}")]
    texts = []
    for sub in ("a", "b"):
        assert cli_main(["compare", *sets, "--out", str(tmp_path / sub)]) == 0
        texts.append({path.name: path.read_bytes()
                      for path in (tmp_path / sub).iterdir()})
    assert sorted(texts[0]) == _contract_files(law=True)
    assert texts[0] == texts[1]


def test_a_rerun_leaves_only_its_own_files(tmp_path):
    # an affine-mp run whose trials fail leaves law.csv, its sidecar and
    # errors.csv; a cross-ensemble run without a law then writes over it
    failing = ExperimentConfig(p=10, n=12, trials=2, envelope="exp:a=1e6")
    first = run_universality(failing)
    assert first.law is not None and first.errors
    write_result(first, tmp_path)
    (tmp_path / "notes.txt").write_text("kept\n")
    assert _written(tmp_path) == sorted([*_contract_files(law=True, errors=True),
                                         "notes.txt"])
    lawless = ExperimentConfig(p=10, n=12, trials=2, target="cross-ensemble",
                               ensemble_b="sphere")
    write_result(run_universality(lawless), tmp_path)
    assert _written(tmp_path) == sorted([*_contract_files(law=False),
                                         "notes.txt"])
    assert (tmp_path / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("target, settings", [
    ("affine-mp", {"envelope": "exp:a=1"}),
    ("functional-equation", {"envelope": "sign-scaled",
                             "law_a": np.sqrt(2 / np.pi), "law_nu": 1.0}),
])
def test_law_records_score_their_spectrum_against_the_law(target, settings):
    cfg = ExperimentConfig(ensemble="gaussian", p=40, n=60, trials=3, seed=2,
                           target=target, **settings)
    result = run_universality(cfg)
    law, per_trial = result.law, result.samples["gaussian"]
    assert [(r.family, r.trial) for r in result.distances] == [
        ("gaussian", t) for t in (0, 1, 2, -1)]
    for rec in result.distances:
        e = result.pooled["gaussian"] if rec.trial < 0 else per_trial[rec.trial]
        assert rec.ks == ks_distance(e, law)
        assert rec.stieltjes_sup == max(abs(e.stieltjes(z) - law.stieltjes(z))
                                        for z in cfg.z_grid)


def test_cross_ensemble_run():
    cfg = ExperimentConfig(ensemble="gaussian", ensemble_b="rademacher", p=40,
                           n=80, trials=2, seed=6, kernel="inner", diag="zero",
                           envelope="sign-scaled", target="cross-ensemble")
    result = run_universality(cfg)
    cross = [r for r in result.distances if r.family == "cross"]
    [pooled_cross] = [r for r in cross if r.trial == -1]
    assert len([r for r in cross if r.trial >= 0]) == 2
    assert 0.0 <= pooled_cross.ks <= 1.0
    assert result.law is None  # no law params given


def test_cross_ensemble_families_draw_independent_trials():
    # The sphere draw is a gaussian one over its norm; with a shared trial
    # seed the two spectra of a trial coincide and every cross distance is 0.
    cfg = ExperimentConfig(ensemble="gaussian", ensemble_b="sphere", p=300,
                           n=600, trials=2, seed=1, kernel="inner",
                           diag="zero", envelope="sign-scaled",
                           target="cross-ensemble")
    cross = [r for r in run_universality(cfg).distances if r.family == "cross"]
    assert [r.trial for r in cross] == [0, 1, -1]
    for r in cross:
        assert r.ks > 0 and r.w1 > 0 and r.stieltjes_sup > 0


def test_a_second_family_changes_no_record_of_the_first():
    # ensemble_b draws from its own trial tag, so adding it to an affine-mp
    # run leaves the first family's records as a single-family run writes
    # them, and its cross records are those of a cross-ensemble run
    model = {"ensemble": "gaussian", "p": 30, "n": 60, "trials": 2,
             "seed": 5, "envelope": "exp:a=1"}
    both = run_universality(ExperimentConfig(**model, ensemble_b="sphere"))
    alone = run_universality(ExperimentConfig(**model))
    lawless = run_universality(ExperimentConfig(
        **model, ensemble_b="sphere", target="cross-ensemble"))

    def records(result, family):
        return [r for r in result.distances if r.family == family]

    assert [(r.family, r.trial) for r in both.distances] == [
        (fam, t) for fam in ("gaussian", "sphere", "cross")
        for t in (0, 1, -1)]
    assert records(both, "gaussian") == records(alone, "gaussian")
    assert records(both, "cross") == lawless.distances
    for t, e in alone.samples["gaussian"].items():
        assert both.samples["gaussian"][t].points.tobytes() == e.points.tobytes()
    assert both.law == alone.law and lawless.law is None


def test_trial_seeds_of_each_family(monkeypatch):
    import kernelspectra.experiments as experiments_module
    seeds = []

    def recording_sample(ensemble, n, seed):
        seeds.append((ensemble.family, seed))
        return sample_matrix(ensemble, n, seed)

    monkeypatch.setattr(experiments_module, "sample_matrix", recording_sample)
    cfg = ExperimentConfig(ensemble="rademacher", ensemble_b="sphere", p=5,
                           n=4, trials=3, seed=9, target="cross-ensemble")
    list(trial_grams(cfg, ("rademacher", "sphere")))
    assert seeds == [(fam, derive_seed(9, tag, t)) for t in range(3)
                     for fam, tag in (("rademacher", TAG_TRIAL),
                                      ("sphere", TAG_TRIAL_B))]
    assert len(set(seeds)) == 6


def test_run_universality_forms_one_gram_per_trial_and_family(monkeypatch):
    import kernelspectra.experiments as experiments_module
    import kernelspectra.kernels as kernels_module
    real_gram = kernels_module.gram
    drawn, families = [], []

    def tagged_sample(ensemble, n, seed):
        drawn.append(ensemble.family)
        return sample_matrix(ensemble, n, seed)

    def counting_gram(S):
        families.append(drawn[-1])
        return real_gram(S)

    # kernels.gram is patched too, so a build that formed G again counts
    monkeypatch.setattr(experiments_module, "sample_matrix", tagged_sample)
    monkeypatch.setattr(experiments_module, "gram", counting_gram)
    monkeypatch.setattr(kernels_module, "gram", counting_gram)
    cfg = ExperimentConfig(ensemble="rademacher", ensemble_b="sphere", p=30,
                           n=20, trials=3, seed=6, kernel="distance",
                           diag="keep", envelope="exp:a=-1",
                           target="cross-ensemble")
    result = run_universality(cfg)
    assert not result.errors
    assert families == ["rademacher", "sphere"] * 3


def test_run_universality_drops_each_sample_before_build(monkeypatch):
    import kernelspectra.experiments as experiments_module
    real_sample, real_build = sample_matrix, build
    drawn, alive_at_build = [], []

    def tracked_sample(*args):
        S = real_sample(*args)
        drawn.extend((weakref.ref(S), weakref.ref(S.data.base)))
        return S

    def checked_build(spec, G, p):
        alive_at_build.append([ref() is not None for ref in drawn])
        return real_build(spec, G, p)

    monkeypatch.setattr(experiments_module, "sample_matrix", tracked_sample)
    monkeypatch.setattr(experiments_module, "build", checked_build)
    cfg = ExperimentConfig(ensemble="rademacher", ensemble_b="sphere", p=30,
                           n=20, trials=3, seed=6, kernel="distance",
                           diag="keep", envelope="exp:a=-1",
                           target="cross-ensemble")
    assert not run_universality(cfg).errors
    assert [len(alive) for alive in alive_at_build] == [2, 4, 6, 8, 10, 12]
    assert not any(any(alive) for alive in alive_at_build)


_PEAK_RSS = """
import re
from kernelspectra import ExperimentConfig, run_universality

def high_water_mark():
    with open("/proc/self/status") as status:
        kb = re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1)
    return 1024 * int(kb)

model = dict(ensemble="gaussian", kernel="inner", diag="zero",
             envelope="exp:a=1")
run_universality(ExperimentConfig(p=100, n=200, **model))
before = high_water_mark()
run_universality(ExperimentConfig(p=800, n=1600, trials=2, **model))
print(high_water_mark() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from Linux /proc/self/status")
def test_large_trials_hold_the_kernel_matrix_and_the_solver_copy_only():
    # A trial's peak is A plus eigvalsh's copy, 2 * 8 n^2 bytes: the sample
    # is freed (and unmapped) before build, which writes A over G.
    src = Path(sample_matrix.__code__.co_filename).parents[1]
    run = subprocess.run([sys.executable, "-c", _PEAK_RSS],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    n = 1600
    assert int(run.stdout) < 2.5 * 8 * n ** 2


@pytest.mark.parametrize("envelope", ["exp:a=-1", "exp:a=215"])
def test_run_universality_times_every_stage(envelope):
    # exp(215 x) fails the build of rademacher trial 3 only
    cfg = ExperimentConfig(ensemble="rademacher", ensemble_b="sphere", p=30,
                           n=40, trials=6, seed=7, kernel="distance",
                           diag="keep", envelope=envelope,
                           target="cross-ensemble")
    timings = run_universality(cfg).timings
    stages = ("law", "sample", "gram", "build", "eigenvalues", "distances")
    assert set(timings) == {"total", *stages}
    assert all(v >= 0.0 for v in timings.values())
    assert sum(timings[s] for s in stages) <= timings["total"]


def _register_refuse(monkeypatch, message="refused"):
    """Register envelope "refuse", whose every evaluation raises."""
    def refuse(x, p):
        raise ValueError(message)

    monkeypatch.setitem(ENVELOPE_FACTORIES, "refuse",
                        lambda: Envelope("refuse", refuse))


def test_failing_envelope_records_errors(monkeypatch):
    # a functional-equation law is solved without the envelope, so the law
    # builds and every trial's build fails
    _register_refuse(monkeypatch)
    cfg = ExperimentConfig(p=10, n=12, trials=3, seed=7, envelope="refuse",
                           target="functional-equation", law_a=1.0,
                           law_nu=1.0)
    result = run_universality(cfg)
    assert result.errors
    # one build row per trial, and no row for the law (trial -1)
    assert [(e.trial, e.stage) for e in result.errors] == [
        (t, "build") for t in range(3)]
    assert result.law is not None
    assert result.pooled == {}


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.mark.parametrize("target", ["affine-mp", "cross-ensemble"])
def test_rows_keep_true_trial_labels_after_a_failed_trial(tmp_path, target):
    # exp(215 x) overflows on one distance value of rademacher trial 3 only
    cfg = ExperimentConfig(ensemble="rademacher", p=30, n=40, trials=6, seed=7,
                           kernel="distance", diag="keep",
                           envelope="exp:a=215", target=target,
                           ensemble_b="sphere" if target == "cross-ensemble"
                           else None)
    result = run_universality(cfg)
    write_result(result, tmp_path)
    assert [(e.trial, e.ensemble, e.stage) for e in result.errors] == [
        (3, "rademacher", "build")]
    esd = {}
    for label, lam in _csv_rows(tmp_path / "esd.csv"):
        esd.setdefault(label, []).append(float(lam))
    dist = {row[0]: [float(v) for v in row[1:]]
            for row in _csv_rows(tmp_path / "distances.csv")}
    survivors = ["0", "1", "2", "4", "5"]
    assert _written(tmp_path) == _contract_files(law=target == "affine-mp",
                                                 errors=True)
    if target == "affine-mp":
        assert list(esd) == survivors
        assert list(dist) == [*survivors, "pooled"]
        return
    assert list(esd) == [*survivors, *(f"sphere:{t}" for t in range(6))]
    assert list(dist) == [*(f"cross:{t}" for t in survivors), "cross:pooled"]
    # each cross row compares the two families' spectra of the same trial
    for t in survivors:
        a, b = ESD(points=esd[t]), ESD(points=esd[f"sphere:{t}"])
        assert dist[f"cross:{t}"][0] == ks_distance(a, b)


def test_errors_csv_round_trips_quotes_and_commas(tmp_path, monkeypatch):
    message = 'bad "value", here'
    _register_refuse(monkeypatch, message)
    cfg = ExperimentConfig(p=10, n=12, trials=2, envelope="refuse",
                           target="functional-equation", law_a=1.0,
                           law_nu=1.0)
    result = run_universality(cfg)
    write_result(result, tmp_path)
    assert [e.message for e in result.errors] == [message] * len(result.errors)
    with open(tmp_path / "errors.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "ensemble", "stage", "message"]
    assert [row[3] for row in rows[1:]] == [e.message for e in result.errors]
    assert [row[2] for row in rows[1:]].count("build") == 2


def test_sphere_diagonal_shift_is_exact():
    # g(X_i, X_i) = 1 on the sphere, so keep vs zero spectra differ by f(1)
    env = parse_envelope("exp:a=1")
    S = sample_matrix(VectorEnsemble("sphere", 60), 90, seed=13)
    keep = eigenvalues(build(KernelSpec("inner", "keep", env), gram(S), S.p))
    zero = eigenvalues(build(KernelSpec("inner", "zero", env), gram(S), S.p))
    shift = keep.points - zero.points
    assert np.max(np.abs(shift - np.e)) < 1e-10


def test_distance_diagonal_shift_is_exact():
    # distance diagonal entries are f(0) exactly, any ensemble
    env = parse_envelope("exp:a=-1")
    S = sample_matrix(VectorEnsemble("gaussian", 50), 70, seed=14)
    keep = eigenvalues(build(KernelSpec("distance", "keep", env), gram(S),
                             S.p))
    zero = eigenvalues(build(KernelSpec("distance", "zero", env), gram(S),
                             S.p))
    shift = keep.points - zero.points
    assert np.max(np.abs(shift - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# L2 perturbation
# ---------------------------------------------------------------------------

def test_l2_perturbation_identical_envelopes():
    cfg = ExperimentConfig(ensemble="gaussian", p=40, n=80, trials=2, seed=15,
                           kernel="inner", diag="zero", envelope="identity")
    f = parse_envelope("exp:a=1")
    rep = run_l2_perturbation(cfg, f, f, z=1j)
    assert rep.epsilon_hat == 0.0
    assert rep.delta_m == (0.0, 0.0)
    assert rep.ratio == 0.0


def test_l2_perturbation_truncated_expansion_bound():
    # f2 = L-term orthogonal expansion of f1; observed |delta m| stays below
    # the estimated epsilon (frozen constant 1.0, calibrated ratio ~0.15)
    p, L = 100, 3
    f1 = parse_envelope("exp:a=1")
    ens = VectorEnsemble("gaussian", p)
    params = envelope_coeffs(f1, ens, L=L, samples=200_000, seed=3)
    basis = build_basis(xi_moments(ens, K=2 * L), L)
    coeffs = params.coefficients

    def truncated(x, p_):
        xi = np.sqrt(p_) * np.asarray(x, dtype=float)
        out = np.zeros_like(xi)
        for k in range(L + 1):
            out = out + coeffs[k] * np.asarray(basis.evaluate(k, xi))
        return out / np.sqrt(p_)

    f2 = Envelope("truncated-exp", truncated)
    cfg = ExperimentConfig(ensemble="gaussian", p=p, n=300, trials=4, seed=21,
                           kernel="inner", diag="zero", envelope="identity")
    rep = run_l2_perturbation(cfg, f1, f2, z=1j)
    assert rep.epsilon_hat > 0.0
    assert rep.ratio <= 1.0


def test_l2_perturbation_rank_one_shift_vanishes():
    # f2 = f1 + c on the keep-diagonal model perturbs by c * (all-ones),
    # a rank-1 matrix, so |delta m| decreases as n grows
    f1 = parse_envelope("exp:a=1")
    f3 = Envelope("exp-shift", lambda x, p: np.exp(x) + 0.5)
    means = []
    for n in (250, 500, 1000):
        cfg = ExperimentConfig(ensemble="gaussian", p=n // 2, n=n, trials=3,
                               seed=5, kernel="inner", diag="keep",
                               envelope="identity")
        rep = run_l2_perturbation(cfg, f1, f3, z=1j)
        means.append(float(np.mean(rep.delta_m)))
    assert means[0] > means[1] > means[2]


@pytest.mark.parametrize("kernel, diagonal",
                         [("inner", "zero"), ("distance", "keep")])
def test_l2_perturbation_epsilon_from_its_trials(kernel, diagonal):
    # epsilon_hat^2 is p times the mean square of A1 - A2's off-diagonal
    # entries over the trials the report's delta_m comes from
    f1 = parse_envelope("exp:a=-1")
    f2 = parse_envelope("nonsmooth-sin")
    cfg = ExperimentConfig(ensemble="rademacher", p=30, n=50, trials=3,
                           seed=8, kernel=kernel, diag=diagonal)
    off = ~np.eye(cfg.n, dtype=bool)
    squares = []
    for _, _, G in trial_grams(cfg, (cfg.ensemble,)):
        A1 = build(KernelSpec(kernel, diagonal, f1), G.copy(), cfg.p)
        A2 = build(KernelSpec(kernel, diagonal, f2), G, cfg.p)
        squares.append((A1 - A2)[off] ** 2)
    expected = np.sqrt(cfg.p * np.mean(squares))
    rep = run_l2_perturbation(cfg, f1, f2, z=1j)
    assert expected > 0.0
    assert rep.epsilon_hat == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_l2_perturbation_needs_an_off_diagonal_pair():
    cfg = ExperimentConfig(p=4, n=1)
    f = parse_envelope("exp:a=1")
    with pytest.raises(ValueError, match="n >= 2"):
        run_l2_perturbation(cfg, f, f)


def test_with_overrides():
    cfg = ExperimentConfig(p=10, n=20)
    cfg2 = replace(cfg, p=15)
    assert cfg2.p == 15 and cfg2.n == 20
