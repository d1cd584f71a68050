import argparse
import ast
import dataclasses
import inspect
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from kernelspectra import (KernelSpec, LimitLaw, VectorEnsemble,
                           envelope_coeffs, load_esd, load_limit_law,
                           mp_atom_mass, mp_density, mp_support,
                           parse_config, parse_envelope, predicted_law,
                           run_universality, solve_grid)
from kernelspectra import SolverError, experiments, orthopoly
from kernelspectra._csvio import read_table
from kernelspectra.cli import _add_model_flags, _build_parser, cli_main, main
from kernelspectra.ensembles import FAMILIES
from kernelspectra.experiments import CONFIG_SCHEMA, ExperimentConfig, esd_meta
from kernelspectra.kernels import DIAGONALS, ENVELOPE_FACTORIES, KERNELS


def test_unknown_subcommand_exits_one(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["simulate", "--frob", "1"]) == 1


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


def test_main_exits_with_the_command_status(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["kernelspectra", "predict"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 0
    assert "affine MP law" in capsys.readouterr().out


def test_an_override_without_a_value_is_a_usage_error(capsys):
    assert cli_main(["compare", "--set", "p"]) == 1
    assert "override must be KEY=VALUE, got 'p'" in capsys.readouterr().err


def test_expand_names_the_degenerate_hankel_determinant(capsys):
    # at p = 1 a sphere sample is +-1: two support points, so det M_2 = 0
    assert cli_main(["expand", "--ensemble", "sphere", "--p", "1",
                     "--envelope", "exp:a=1"]) == 2
    assert "det M_2 is not positive" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["0.01", "2.2250738585072014e-308"])
def test_predict_tabulates_an_atom_far_from_the_support(gamma, tmp_path):
    # the table started at 77 (or, at the smallest gamma, was 2001 copies
    # of 4.49e307) with cdf 0.99 on its first row
    out = tmp_path / "mp.csv"
    assert cli_main(["predict", "--law", "mp", "--gamma", gamma,
                     "--out", str(out)]) == 0
    rows, _ = read_table(out, ("x", "density", "cdf"))
    x, _, cdf = np.array(rows, dtype=float).T
    assert x[0] == -5e-324 and cdf[0] == 0.0
    assert np.unique(x).size == 2001 and cdf[1] >= 0.99


@pytest.mark.parametrize("command", ["simulate", "expand", "diagnose",
                                     "swap-check"])
def test_ensemble_help_lists_the_families(command, capsys):
    assert cli_main([command, "--help"]) == 0
    assert " | ".join(FAMILIES) in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["simulate", "swap-check", "predict",
                                     "expand"])
def test_envelope_help_lists_the_registry(command, capsys):
    assert cli_main([command, "--help"]) == 0
    usages = []
    for name, factory in ENVELOPE_FACTORIES.items():
        params = inspect.signature(factory).parameters
        usages.append(f"{name}:" + ",".join(f"{k}=<{k}>" for k in params)
                      if params else name)
    assert " | ".join(usages) in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["simulate", "swap-check", "predict"])
def test_kernel_and_diag_help_list_the_names(command, capsys):
    assert cli_main([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert " | ".join(KERNELS) in out and " | ".join(DIAGONALS) in out


_IMPORT_GUARD = """
import sys
import numpy, numpy.linalg, numpy.random  # they load numpy's Cython runtime
before = set(sys.modules)
from kernelspectra.cli import cli_main
assert cli_main(["simulate", "--p", "5", "--n", "10"]) == 0
assert cli_main(["expand", "--envelope", "exp:a=1", "--p", "5",
                 "--degree", "2", "--samples", "1000"]) == 0
assert cli_main(["predict", "--law", "fe", "--a", "0.5", "--nu", "1",
                 "--gamma", "0.5"]) == 0
new = {m for m in set(sys.modules) - before if "." not in m}
print(sorted(new - set(sys.stdlib_module_names) - {"kernelspectra"}))
"""


def test_package_and_cli_import_without_scipy():
    # The runtime needs numpy and the standard library only: scipy is a test
    # oracle, and importing it would add ~0.3 s and ~20 MB to every CLI call
    src = Path(orthopoly.__file__).parents[1]
    run = subprocess.run([sys.executable, "-c", _IMPORT_GUARD],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.stdout.splitlines()[-1] == "[]"


def test_simulate_sphere_identity(tmp_path, capsys):
    out = tmp_path / "esd.csv"
    code = cli_main(["simulate", "--n", "10", "--p", "5", "--ensemble",
                     "sphere", "--envelope", "identity", "--kernel", "inner",
                     "--diag", "keep", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "count=10" in printed
    spectra, meta = load_esd(out)
    [e] = spectra.values()
    assert e.n == 10
    # unit diagonal: trace = 10
    assert abs(e.points.sum() - 10.0) < 1e-8
    assert meta["spec"] == "inner/keep/identity"


def test_simulate_matches_compare_trials(tmp_path, capsys):
    model = {"ensemble": "rademacher", "p": "12", "n": "20", "seed": "5",
             "envelope": "exp:a=1", "kernel": "inner", "diag": "zero"}
    flags = [arg for key, val in model.items() for arg in (f"--{key}", val)]
    assert cli_main(["simulate", *flags, "--trials", "3",
                     "--out", str(tmp_path / "sim.csv")]) == 0
    sets = [arg for key, val in {**model, "trials": "3"}.items()
            for arg in ("--set", f"{key}={val}")]
    assert cli_main(["compare", *sets, "--out", str(tmp_path / "cmp")]) == 0
    simulated = (tmp_path / "sim.csv").read_text().splitlines()
    compared = (tmp_path / "cmp" / "esd.csv").read_text().splitlines()
    assert simulated[0] == compared[0] == "trial,lambda"
    assert simulated[1:] == compared[1:]
    assert ((tmp_path / "sim.csv.meta").read_bytes()
            == (tmp_path / "cmp" / "esd.csv.meta").read_bytes())


def test_spectra_sidecars_record_the_model_and_not_the_target(tmp_path):
    # sign-scaled with the distance kernel has no affine MP law, so a
    # target=affine-mp line would name a law that simulate never read
    assert cli_main(["simulate", "--envelope", "sign-scaled", "--kernel",
                     "distance", "--diag", "keep", "--p", "20", "--n", "10",
                     "--out", str(tmp_path / "x.csv")]) == 0
    model = ["ensemble", "p", "n", "gamma", "trials", "seed", "kernel", "diag",
             "envelope"]
    keys = [line.partition("=")[0]
            for line in (tmp_path / "x.csv.meta").read_text().splitlines()]
    assert keys == [*model, "schema", "spec"]
    assert cli_main(["compare", "--set", "p=12", "--set", "n=20",
                     "--set", "target=cross-ensemble", "--set",
                     "ensemble_b=sphere", "--out", str(tmp_path / "cmp")]) == 0
    keys = [line.partition("=")[0] for line in
            (tmp_path / "cmp" / "esd.csv.meta").read_text().splitlines()]
    assert keys == [*model, "ensemble_b", "schema", "spec"]


_SIMULATE_PEAK = """
import re
from kernelspectra.cli import cli_main

def high_water_mark():
    with open("/proc/self/status") as status:
        kb = re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1)
    return 1024 * int(kb)

model = ["--ensemble", "gaussian", "--kernel", "inner", "--diag", "zero",
         "--envelope", "exp:a=1"]
assert cli_main(["simulate", "--p", "100", "--n", "200", *model]) == 0
before = high_water_mark()
assert cli_main(["simulate", "--p", "800", "--n", "1600", "--trials", "2",
                 *model]) == 0
print(high_water_mark() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from Linux /proc/self/status")
def test_simulate_holds_the_kernel_matrix_and_the_solver_copy_only():
    # as in compare's trial loop: the sample is freed before build, which
    # writes A over G, so a trial peaks at A plus eigvalsh's copy
    src = Path(orthopoly.__file__).parents[1]
    run = subprocess.run([sys.executable, "-c", _SIMULATE_PEAK],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    n = 1600
    assert int(run.stdout.splitlines()[-1]) < 2.5 * 8 * n ** 2


def test_simulate_numerical_failure_exits_two(capsys):
    code = cli_main(["simulate", "--n", "20", "--p", "10", "--ensemble",
                     "gaussian", "--envelope", "exp:a=1000", "--kernel",
                     "distance", "--diag", "keep"])
    assert code == 2


def test_predict_mp_csv_mass(tmp_path, capsys):
    out = tmp_path / "mp.csv"
    code = cli_main(["predict", "--law", "mp", "--gamma", "1", "--out",
                     str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,density,cdf"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    # quadrature check of the underlying law
    a, b = mp_support(1.0)
    mass = quad(lambda x: mp_density(1.0, x), a, b, limit=400)[0] \
        + mp_atom_mass(1.0)
    assert abs(mass - 1.0) < 1e-6
    # emitted cdf column reaches 1 to quadrature accuracy
    assert abs(data[-1, 2] - 1.0) < 1e-6
    assert np.all(np.diff(data[:, 2]) >= -1e-12)


def test_predict_mp_records_its_law(tmp_path, capsys):
    out = tmp_path / "mp.csv"
    assert cli_main(["predict", "--law", "mp", "--gamma", "2", "--envelope",
                     "exp:a=-1", "--kernel", "distance", "--diag", "keep",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    record = ast.literal_eval(printed.removeprefix("affine MP law: "))
    _, meta = read_table(out, ("x", "density", "cdf"))
    assert meta == {key: str(value) for key, value in record.items()}


def test_predict_fe_needs_parameters(capsys):
    assert cli_main(["predict", "--law", "fe", "--gamma", "1"]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["--law", "mp", "--envelope", "exp:a=1", "--shift", "3"], "--envelope"),
    (["--law", "mp", "--envelope", "exp:a=1", "--scale", "2"], "--envelope"),
    (["--law", "fe", "--a", "0.5", "--nu", "1", "--envelope", "exp:a=1",
      "--shift", "7"], "--envelope"),
    (["--law", "fe", "--a", "0.5", "--nu", "1", "--shift", "7"], "--shift"),
    (["--law", "fe", "--a", "0.5", "--nu", "1", "--kernel", "distance"],
     "--kernel"),
    (["--law", "mp", "--a", "0.5", "--nu", "1"], "--a"),
    (["--law", "mp", "--nu", "1"], "--nu"),
    (["--law", "mp", "--epsilon", "0.01"], "--epsilon"),
    (["--law", "mp", "--kernel", "distance", "--gamma", "2"], "--kernel"),
    (["--law", "mp", "--diag", "zero"], "--diag"),
])
def test_predict_rejects_a_flag_its_law_ignores(argv, flag, tmp_path, capsys):
    out = tmp_path / "law.csv"
    assert cli_main(["predict", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert not out.exists()


def test_predict_kernel_and_diag_default_to_inner_and_zero(capsys):
    law = predicted_law(KernelSpec("inner", "zero", parse_envelope("exp:a=1")),
                        2.0)
    assert cli_main(["predict", "--law", "mp", "--gamma", "2",
                     "--envelope", "exp:a=1"]) == 0
    assert capsys.readouterr().out == f"affine MP law: {law.to_record()}\n"


@pytest.mark.parametrize("envelope, model", [
    ("exp:a=1", {}), ("identity", {}), ("power:a=0.5", {}),
    ("exp:a=-1", {"kernel": "distance"})])
def test_predict_without_model_flags_prints_the_law_compare_scores(
        envelope, model, tmp_path, capsys):
    # each model flag predict omits takes the value compare's config takes
    settings = [f"--set={key}={value}" for key, value in model.items()]
    assert cli_main(["compare", f"--set=envelope={envelope}", *settings,
                     "--out", str(tmp_path)]) == 0
    flags = [f"--{key}={value}" for key, value in model.items()]
    capsys.readouterr()
    assert cli_main(["predict", "--law", "mp", "--envelope", envelope,
                     *flags]) == 0
    printed = capsys.readouterr().out
    record = ast.literal_eval(printed.removeprefix("affine MP law: "))
    _, meta = read_table(tmp_path / "law.csv", ("x", "density", "cdf"))
    assert meta == {key: str(value) for key, value in record.items()}


def test_expand_and_diagnose_default_to_the_config_model():
    # parsed only: nothing is sampled
    config, parser = ExperimentConfig(), _build_parser()
    expand = parser.parse_args(["expand", "--envelope", "identity"])
    diagnose = parser.parse_args(["diagnose"])
    assert (expand.ensemble, expand.p, expand.seed) == (
        config.ensemble, config.p, config.seed)
    assert (diagnose.ensemble, diagnose.p, diagnose.n, diagnose.seed) == (
        config.ensemble, config.p, config.n, config.seed)
    samples = inspect.signature(envelope_coeffs).parameters["samples"]
    assert expand.samples == samples.default


def test_functional_equation_target_without_a_law_names_the_expand_call(
        capsys):
    assert cli_main(["compare", "--set=target=functional-equation",
                     "--set=ensemble=sphere", "--set=p=300",
                     "--set=envelope=sign-scaled"]) == 1
    err = capsys.readouterr().err
    call = shlex.split(err.split("kernelspectra ", 1)[1])
    args = _build_parser().parse_args(call)
    assert (args.command, args.ensemble, args.p, args.envelope) == (
        "expand", "sphere", 300, "sign-scaled")


def test_predict_fe_writes_law(tmp_path, capsys):
    out = tmp_path / "fe.csv"
    code = cli_main(["predict", "--law", "fe", "--a", "0", "--nu", "1",
                     "--gamma", "1", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,density,cdf,re_m,im_m"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert abs(data[-1, 2] - 1.0) < 2e-3
    assert np.all(data[:, 4] > 0)  # Herglotz column
    law = load_limit_law(out)
    assert law.gamma == 1.0 and law.to_record()["epsilon"] == 1e-3
    assert np.array_equal(law.cdf_values, data[:, 2])


_SIGN_SCALED = {"envelope": "sign-scaled", "law_a": "0.7978845608028654",
                "law_nu": "1"}


def _assert_law_loads_back(path, law):
    """``path`` holds law.table() and, in its .meta, the law's record; a
    LimitLaw also loads back through load_limit_law."""
    table = law.table()
    rows, written = read_table(path, tuple(table))
    assert np.array_equal(np.array(rows, dtype=float),
                          np.column_stack(list(table.values())))
    assert written == {k: str(v) for k, v in law.to_record().items()}
    if isinstance(law, LimitLaw):
        loaded = load_limit_law(path)
        for field in dataclasses.fields(LimitLaw):
            assert np.array_equal(getattr(loaded, field.name),
                                  getattr(law, field.name)), field.name


def _assert_no_sidecar_repeats_a_key(directory):
    # read_table's dict keeps the last of a repeated key, so read the lines
    sidecars = sorted(directory.glob("*.meta"))
    assert sidecars
    for sidecar in sidecars:
        keys = [line.partition("=")[0]
                for line in sidecar.read_text().splitlines()]
        assert len(keys) == len(set(keys)), sidecar.name


def _assert_spectra_load_back(path, spectra):
    loaded, _ = load_esd(path)
    assert list(loaded) == list(spectra)
    for label, e in spectra.items():
        assert loaded[label].points.tobytes() == e.points.tobytes()


@pytest.mark.parametrize("settings", [
    {"target": "affine-mp", "envelope": "exp:a=1"},
    {"target": "functional-equation", **_SIGN_SCALED},
    {"target": "functional-equation", "ensemble_b": "sphere", **_SIGN_SCALED},
], ids=["affine-mp", "functional-equation", "functional-equation-ensemble_b"])
def test_every_table_compare_writes_loads_back(settings, tmp_path, capsys):
    settings = {"ensemble": "rademacher", "p": "12", "n": "20", "seed": "5",
                "trials": "2", **settings}
    assert cli_main(["compare", *(arg for kv in settings.items()
                                  for arg in ("--set", "=".join(kv))),
                     "--out", str(tmp_path)]) == 0
    config = parse_config("", settings)
    run = run_universality(config)
    _assert_spectra_load_back(tmp_path / "esd.csv", {
        (str(t) if fam == config.ensemble else f"{fam}:{t}"): e
        for fam, per_trial in run.samples.items()
        for t, e in per_trial.items()})
    assert load_esd(tmp_path / "esd.csv")[1] == dict(esd_meta(config))
    _assert_law_loads_back(tmp_path / "law.csv", run.law)
    _assert_no_sidecar_repeats_a_key(tmp_path)


def test_every_table_simulate_and_predict_write_loads_back(tmp_path, capsys):
    model = {"ensemble": "sphere", "p": "12", "n": "20", "seed": "5",
             "envelope": "exp:a=1", "kernel": "inner", "diag": "zero"}
    assert cli_main(["simulate", *(arg for key, val in model.items()
                                   for arg in (f"--{key}", val)),
                     "--trials", "3", "--out", str(tmp_path / "sim.csv")]) == 0
    run = run_universality(parse_config("", {**model, "trials": "3"}))
    _assert_spectra_load_back(tmp_path / "sim.csv", {
        str(t): e for t, e in run.samples["sphere"].items()})

    assert cli_main(["predict", "--law", "fe", "--a", "1", "--nu", "1",
                     "--gamma", "0.5", "--out", str(tmp_path / "fe.csv")]) == 0
    _assert_law_loads_back(tmp_path / "fe.csv", solve_grid(1.0, 1.0, 0.5))
    assert cli_main(["predict", "--law", "mp", "--gamma", "2", "--envelope",
                     "exp:a=-1", "--kernel", "distance", "--diag", "keep",
                     "--out", str(tmp_path / "mp.csv")]) == 0
    _assert_law_loads_back(tmp_path / "mp.csv", predicted_law(
        KernelSpec("distance", "keep", parse_envelope("exp:a=-1")), 2.0))
    _assert_no_sidecar_repeats_a_key(tmp_path)


def test_predict_overflowing_envelope_exits_one_without_warning(capsys):
    # exp(1000) overflows; the law's non-finite shift is the error, and
    # filterwarnings = error turns any overflow warning into a failure.
    assert cli_main(["predict", "--law", "mp", "--envelope", "exp:a=1000",
                     "--gamma", "1", "--diag", "keep"]) == 1
    assert "error:" in capsys.readouterr().err


def test_predict_rejects_nu_below_a_squared(capsys):
    assert cli_main(["predict", "--law", "fe", "--a", "2", "--nu", "1",
                     "--gamma", "1"]) == 1


@pytest.mark.parametrize("argv", [
    ["--law", "mp", "--gamma", "nan"],
    ["--law", "mp", "--gamma", "inf"],
    ["--law", "mp", "--gamma", "1", "--shift", "nan"],
    ["--law", "mp", "--gamma", "1", "--scale", "inf"],
    ["--law", "mp", "--gamma", "nan", "--envelope", "exp:a=1"],
    ["--law", "fe", "--a", "0", "--nu", "1", "--gamma", "nan"],
    ["--law", "fe", "--a", "0", "--nu", "1", "--gamma", "inf"],
    ["--law", "fe", "--a", "nan", "--nu", "1", "--gamma", "1"],
    ["--law", "fe", "--a", "0", "--nu", "nan", "--gamma", "1"],
    ["--law", "fe", "--a", "0", "--nu", "1", "--gamma", "1",
     "--epsilon", "nan"],
])
def test_predict_rejects_non_finite_parameters(argv, capsys):
    assert cli_main(["predict", *argv]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, accepted", [
    (["predict", "--law", "mp", "--envelope", "exp:b=1"], "['a']"),
    (["predict", "--law", "mp", "--envelope", "identity:a=1"], "[]"),
    (["predict", "--law", "mp", "--envelope", "sign-scaled:x=2"], "[]"),
    (["compare", "--set", "envelope=const:c=1,d=2"], "['c']"),
])
def test_unknown_envelope_parameter_exits_one(argv, accepted, capsys):
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"accepted: {accepted}" in err


@pytest.mark.parametrize("argv, key", [
    (["compare", "--set", "envelope=exp:a=1,a=2"], "'a'"),
    (["compare", "--set", "envelope=power:a=nan"], "'a'"),
    (["compare", "--set", "envelope=const:c=inf"], "'c'"),
    (["predict", "--law", "mp", "--envelope", "exp:a=nan"], "'a'"),
    (["compare", "--set", "envelope=power"], "'a'"),  # missing
    (["predict", "--law", "mp", "--envelope", "power"], "'a'"),
])
def test_repeated_or_non_finite_envelope_parameter_exits_one_before_any_trial(
        argv, key, capsys, monkeypatch):
    import kernelspectra.experiments as experiments_module
    drawn = []
    monkeypatch.setattr(experiments_module, "sample_matrix",
                        lambda *args: drawn.append(args))
    if argv[0] == "compare":
        argv = [*argv, "--set", "p=20", "--set", "n=20"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"parameter {key}" in err
    assert drawn == []


def test_compare_rejects_non_finite_epsilon(capsys):
    # epsilon is no config key: the functional-equation law is exact
    assert cli_main(["compare", "--set", "p=10", "--set", "n=20",
                     "--set", "target=functional-equation", "--set", "law_a=1",
                     "--set", "law_nu=1", "--set", "epsilon=nan"]) == 1
    assert "unknown config key 'epsilon'" in capsys.readouterr().err


def test_compare_writes_epsilon_only_where_a_law_is_solved(tmp_path, capsys):
    # only law.csv depends on epsilon, the fixed offset of its table
    small = ["compare", "--set", "p=20", "--set", "n=40"]
    assert cli_main([*small, "--set", "epsilon=0.5"]) == 1
    assert "epsilon" in capsys.readouterr().err
    fe = [*small, "--set", "target=functional-equation", "--set", "law_a=1",
          "--set", "law_nu=1"]
    for target, run in ("affine-mp", small), ("functional-equation", fe):
        out = tmp_path / target
        assert cli_main([*run, "--out", str(out)]) == 0
        for name in ("config.resolved", "esd.csv.meta", "distances.csv.meta",
                     "law.csv.meta"):
            keys = [line.partition("=")[0]
                    for line in (out / name).read_text().splitlines()]
            assert ("epsilon" in keys) == (name == "law.csv.meta"
                                           and run is fe), name


def test_compare_and_predict_default_to_solve_grids_epsilon(tmp_path, capsys):
    default = solve_grid(1.0, 1.0, 0.5).to_record()["epsilon"]
    assert default == 1e-3
    assert cli_main(["compare", "--set", "p=20", "--set", "n=40",
                     "--set", "target=functional-equation", "--set", "law_a=1",
                     "--set", "law_nu=1", "--out", str(tmp_path / "fe")]) == 0
    assert cli_main(["predict", "--law", "fe", "--a", "1", "--nu", "1",
                     "--gamma", "0.5", "--out", str(tmp_path / "fe.csv")]) == 0
    for sidecar in (tmp_path / "fe" / "law.csv.meta", tmp_path / "fe.csv.meta"):
        assert f"epsilon={default!r}" in sidecar.read_text().splitlines()


@pytest.mark.parametrize("settings", [
    ["target=functional-equation", "law_a=-1", "law_nu=1"],
    ["target=functional-equation", "law_a=1", "law_nu=0.5"],
    ["target=cross-ensemble", "ensemble_b=sphere", "law_a=1"],
    ["gamma=0.3"],
    ["target=cross-ensemble", "ensemble_b=gaussian"],  # same as ensemble
])
def test_compare_rejects_bad_law_or_gamma_before_any_trial(settings, capsys):
    argv = ["compare", "--set", "p=20", "--set", "n=40"]
    for item in settings:
        argv += ["--set", item]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


_FAMILY_TEXT = "expected one of ('gaussian', 'rademacher', 'sphere')"


@pytest.mark.parametrize("settings, text", [
    (["ensemble=cauchy"], _FAMILY_TEXT),
    (["target=cross-ensemble", "ensemble_b=cauchy"], _FAMILY_TEXT),
    (["z_grid=nan+1j"], "z_grid points must be finite"),
    (["z_grid=1+1j;inf+1j"], "z_grid points must be finite"),
    # Im z below 1e-300 overflowed the transforms, with warnings, to exit 1
    (["envelope=const:c=0", "z_grid=1e-320j"], "with Im z >= 1e-300 and"),
    (["envelope=const:c=1", "z_grid=-1+1e-310j"], "with Im z >= 1e-300 and"),
])
def test_compare_rejects_unknown_family_or_non_finite_z_grid(settings, text,
                                                             capsys):
    argv = ["compare", "--set", "p=20", "--set", "n=40"]
    for item in settings:
        argv += ["--set", item]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""
    assert text in captured.err


@pytest.mark.parametrize("z", ["1e200j", "1e100+1e-300j", "-1e250+1j",
                               "1e300j"])
def test_compare_gives_a_finite_sup_at_an_extreme_point(z, capsys):
    assert cli_main(["compare", "--set", "p=20", "--set", "n=40",
                     "--set", f"z_grid={z}"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert np.isfinite(float(line.rpartition("stieltjes_sup=")[2]))


def test_compare_scores_the_mp_law_next_to_the_axis(capsys):
    # inner/keep identity is the MP law itself at gamma = 2; the root
    # comparison lost Im m at 1e-12j and exited 1
    assert cli_main(["compare", "--set", "diag=keep", "--set", "p=80",
                     "--set", "n=40", "--set", "z_grid=1e-12j;1j"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert np.isfinite(float(line.rpartition("stieltjes_sup=")[2]))


@pytest.mark.parametrize("settings, z", [
    (["target=functional-equation", "law_a=0.5", "law_nu=1"],
     "(1e+301+1j)"),
    ([], "(1e+301+1j)"),
])
def test_compare_names_a_point_it_cannot_score(settings, z, capsys):
    argv = ["compare", "--set", "p=20", "--set", "n=40",
            "--set", f"z_grid={z}"]
    for item in settings:
        argv += ["--set", item]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and z in captured.err


@pytest.mark.parametrize("z, sup", [("(1e+100+1e-300j)", 1e-100),
                                    ("-4.187505077315176+1e-35j", 1e-3)])
def test_compare_scores_the_functional_equation_law_next_to_the_axis(
        z, sup, capsys):
    # Im z is lost next to the roots' size; the root picked above z is
    # continued down to it (at Im z = 1e-3 the second point gives 0.00029)
    assert cli_main(["compare", "--set", "p=20", "--set", "n=40",
                     "--set", "target=functional-equation",
                     "--set", "envelope=sign-scaled",
                     "--set", "law_a=0.7978845608028654", "--set", "law_nu=1",
                     "--set", f"z_grid={z}"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert float(line.rpartition("stieltjes_sup=")[2]) < sup


def test_compare_with_config_file(tmp_path, capsys):
    config = tmp_path / "uni.cfg"
    config.write_text(
        "ensemble=gaussian\np=40\nn=80\ntrials=2\nseed=3\nkernel=inner\n"
        "diag=zero\nenvelope=exp:a=1\ntarget=affine-mp\n")
    out_dir = tmp_path / "res"
    code = cli_main(["compare", "--config", str(config), "--out",
                     str(out_dir)])
    assert code == 0
    assert sorted(path.name for path in out_dir.iterdir()) == [
        "config.resolved", "distances.csv", "distances.csv.meta", "esd.csv",
        "esd.csv.meta", "law.csv", "law.csv.meta"]
    assert "pooled ks=" in capsys.readouterr().out


def test_compare_line_readable_for_extreme_distances(capsys):
    # the envelope nearly overflows: w1 ~ 1e297 and stieltjes_sup ~ 1e-190
    argv = ["compare"]
    for item in ("ensemble=rademacher", "p=30", "n=40", "trials=6", "seed=7",
                 "kernel=distance", "diag=keep", "envelope=exp:a=215"):
        argv += ["--set", item]
    assert cli_main(argv) == 2
    [line] = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("rademacher: pooled")]
    fields = dict(f.split("=") for f in line.split()[2:])
    assert len(line) < 100
    assert "e+" in fields["w1"] and "e-" in fields["stieltjes_sup"]


def test_compare_invalid_config_exits_one(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("trials=0\n")
    assert cli_main(["compare", "--config", str(config)]) == 1


def test_compare_override_flag(tmp_path, capsys):
    code = cli_main(["compare", "--set", "p=30", "--set", "n=60",
                     "--set", "trials=1", "--set", "envelope=identity",
                     "--set", "target=affine-mp"])
    assert code == 0


def test_compare_takes_a_key_once_from_its_file_and_last_from_set(tmp_path,
                                                                  capsys):
    config = tmp_path / "run.cfg"
    config.write_text("p=10\nn=20\np=12\n")
    assert cli_main(["compare", "--config", str(config)]) == 1
    assert "line 3: key 'p'" in capsys.readouterr().err
    config.write_text("p=10\nn=20\n")
    assert cli_main(["compare", "--config", str(config), "--set", "p=12",
                     "--set", "p=14", "--out", str(tmp_path / "run")]) == 0
    written = (tmp_path / "run" / "config.resolved").read_text().splitlines()
    assert "p=14" in written and "n=20" in written


@pytest.mark.parametrize("how", ["set", "config"])
def test_compare_rejects_out_as_a_config_key(how, tmp_path, capsys):
    # --out names the directory; no config key holds it
    config = tmp_path / "run.cfg"
    config.write_text("p=10\nn=20\n" + ("out=x\n" if how == "config" else ""))
    extra = ["--set", "out=x"] if how == "set" else []
    assert cli_main(["compare", "--config", str(config), *extra]) == 1
    captured = capsys.readouterr()
    assert "unknown config key 'out'" in captured.err and captured.out == ""


def test_diagnose_runs(capsys):
    code = cli_main(["diagnose", "--ensemble", "rademacher", "--p", "50",
                     "--n", "30", "--K", "4"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "growth flagged: False" in printed


def test_diagnose_prints_exact_moments_at_p_2p_4p(capsys):
    assert cli_main(["diagnose", "--ensemble", "sphere", "--p", "5",
                     "--n", "20"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == [
        "E (sqrt(p) entry)^4 at p, 2p, 4p = 2.142857, 2.500000, 2.727273",
        "growth flagged: False"]


@pytest.mark.parametrize("flags", [["--K", "400"], ["--K", "3"], ["--K", "0"],
                                   ["--K", "18"], ["--trials", "200"]])
def test_diagnose_rejects_K_outside_two_to_sixteen_and_trials(flags, capsys):
    assert cli_main(["diagnose", "--p", "50", "--n", "10", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


def test_diagnose_rejects_unknown_family(capsys):
    assert cli_main(["diagnose", "--ensemble", "cauchy"]) == 1
    assert ("expected one of ('gaussian', 'rademacher', 'sphere')"
            in capsys.readouterr().err)


def test_diagnose_rejects_one_column_before_any_output(capsys):
    code = cli_main(["diagnose", "--ensemble", "gaussian", "--p", "50",
                     "--n", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_inner needs at least two columns" in captured.err


def test_expand_prints_table(capsys):
    code = cli_main(["expand", "--ensemble", "gaussian", "--p", "100",
                     "--envelope", "identity", "--degree", "2",
                     "--samples", "20000"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "a=" in printed and "nu=" in printed
    params = envelope_coeffs(parse_envelope("identity"),
                             VectorEnsemble("gaussian", 100), 2,
                             samples=20000, seed=0)
    assert params.nu_stderr > 0.0
    assert f"nu_stderr={params.nu_stderr:.4e}" in printed


EXPAND_STDOUT = {
    "sphere": """\
envelope sign-scaled on sphere (p=500, samples=20000)
  k            a_k       stderr
  0       0.000200   7.0711e-03
  1       0.799436   4.2480e-03
  2      -0.001323   7.0711e-03
  3      -0.329766   6.6755e-03
  4      -0.010006   7.0707e-03
a=0.799436  nu=1.000000  nu_stderr=2.8284e-06  tail_mass=0.252054
""",
    "rademacher": """\
envelope sign-scaled on rademacher (p=500, samples=20000)
  k            a_k       stderr
  0       0.004400   6.9328e-03
  1       0.798561   4.2562e-03
  2      -0.011322   7.0002e-03
  3      -0.328499   6.6786e-03
  4       0.009955   7.0140e-03
a=0.798561  nu=0.961281  nu_stderr=1.3652e-03  tail_mass=0.215442
""",
}


@pytest.mark.parametrize("family", sorted(EXPAND_STDOUT))
def test_expand_stdout_is_pinned(family, capsys):
    # the printed table depends only on (seed, samples): a change of the
    # Monte Carlo summation order must not move a printed digit
    code = cli_main(["expand", "--envelope", "sign-scaled", "--ensemble",
                     family, "--p", "500", "--samples", "20000",
                     "--seed", "3"])
    assert code == 0
    assert capsys.readouterr().out == EXPAND_STDOUT[family]


@pytest.mark.parametrize("family", FAMILIES)
def test_expand_at_degree_one_gives_the_first_coefficients(family, capsys):
    argv = ["expand", "--envelope", "sign-scaled", "--ensemble", family,
            "--p", "50", "--samples", "20000"]
    assert cli_main([*argv, "--degree", "1"]) == 0
    assert "a=" in capsys.readouterr().out
    f, ens = parse_envelope("sign-scaled"), VectorEnsemble(family, 50)
    low = envelope_coeffs(f, ens, 1, samples=20000)
    high = envelope_coeffs(f, ens, 4, samples=20000)
    assert np.allclose(low.coefficients, high.coefficients[:2], rtol=1e-12,
                       atol=0.0)
    assert abs(low.nu - high.nu) <= 1e-12 * high.nu


def test_power_envelope_beyond_float_range_predicts_or_fails_cleanly(
        capsys):
    argv = ["predict", "--law", "mp", "--envelope", "power:a=1000"]
    assert cli_main([*argv, "--kernel", "inner", "--diag", "zero"]) == 0
    out = capsys.readouterr().out
    assert "'shift': -1001.0" in out and "'scale': 1000.0" in out
    # f'(2) = 1000 * 3^999 overflows, so the envelope records no slope there
    assert cli_main([*argv, "--kernel", "distance", "--diag", "keep"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'power:a=1000' records no slope at x=2.0" in err


_SIGN_SCALED_DISTANCE = {"envelope": "sign-scaled", "kernel": "distance",
                         "diag": "keep"}


def test_predict_mp_of_a_p_dependent_envelope_exits_one(capsys):
    # sign(x) / sqrt(p) records no slope, so it has no affine MP law
    argv = ["predict", "--law", "mp", "--gamma", "2"]
    for key, val in _SIGN_SCALED_DISTANCE.items():
        argv += [f"--{key}", val]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "'sign-scaled' records no slope at x=2.0" in captured.err


def test_compare_affine_mp_of_a_p_dependent_envelope_exits_one_before_any_trial(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("kernelspectra.experiments.sample_matrix",
                        lambda *args: pytest.fail("compare drew a trial"))
    argv = ["compare", "--set", "target=affine-mp", "--set", "p=400",
            "--set", "n=200", "--out", str(tmp_path / "res")]
    for item in _SIGN_SCALED_DISTANCE.items():
        argv += ["--set", "=".join(item)]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'sign-scaled' records no slope at x=2.0" in captured.err
    assert not (tmp_path / "res").exists()


def test_simulate_needs_no_affine_law(capsys):
    # simulate's config carries the default target but compares to no law
    argv = ["simulate", "--p", "40", "--n", "20"]
    for key, val in _SIGN_SCALED_DISTANCE.items():
        argv += [f"--{key}", val]
    assert cli_main(argv) == 0
    assert "model distance/keep/sign-scaled" in capsys.readouterr().out


def test_expand_rejects_degree_above_cap_before_sampling(capsys,
                                                        monkeypatch):
    for family, record in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, family, dataclasses.replace(
            record,
            xi_draws=lambda *args: pytest.fail("expand drew samples")))
    for family in FAMILIES:
        code = cli_main(["expand", "--ensemble", family, "--p", "500",
                         "--envelope", "sign-scaled", "--degree", "7"])
        assert code == 1
        assert "need 1 <= L <= 6, got 7" in capsys.readouterr().err


def _forbid_trials(monkeypatch):
    for family, record in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, family, dataclasses.replace(
            record, fill=lambda *args: pytest.fail("compare drew a trial")))


def test_compare_without_a_finite_affine_law_exits_one_before_any_trial(
        tmp_path, capsys, monkeypatch):
    # f(1) = exp(1000) overflows, so the inner/keep shift is inf
    _forbid_trials(monkeypatch)
    out = tmp_path / "D"
    assert cli_main(["compare", "--set", "p=20", "--set", "n=40",
                     "--set", "trials=2", "--set", "envelope=exp:a=1000",
                     "--set", "diag=keep", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "shift and scale must be finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_compare_with_an_unsolvable_law_exits_two_before_any_trial(
        tmp_path, capsys, monkeypatch):
    def unsolvable(*args, **kwargs):
        raise SolverError("grid misses the mass")

    _forbid_trials(monkeypatch)
    monkeypatch.setattr(experiments, "solve_grid", unsolvable)
    out = tmp_path / "D"
    assert cli_main(["compare", "--set=target=functional-equation",
                     "--set=law_a=1", "--set=law_nu=1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "numerical failure: grid misses the mass" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_compare_scores_an_atom_law_at_tiny_epsilon(capsys):
    # a = nu = 1 at p/n = 1/2 has mass 1/2 at -1, next to the grid's end;
    # the scores read the law's exact CDF, m at x + 1e-300 i
    assert cli_main(["compare", "--set=p=20", "--set=n=40",
                     "--set=target=functional-equation", "--set=law_a=1",
                     "--set=law_nu=1"]) == 0
    assert capsys.readouterr().out.startswith("gaussian: pooled ks=")


# 1e300 and -1.35e154 are finite, but the Gram norm v^2 of their column
# is not
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300", "-1.35e154"])
def test_swap_check_rejects_a_non_finite_value(value, capsys):
    assert cli_main(["swap-check", "--p", "20", "--n", "10",
                     f"--value={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--value must be finite" in captured.err


def test_swap_check_takes_a_huge_finite_value(capsys):
    # near the largest value whose square, the column's Gram norm, is finite
    for diag in ("keep", "zero"):
        assert cli_main(["swap-check", "--p", "20", "--n", "10",
                         "--value", "1.3e154", "--diag", diag]) == 0
        assert "numerical rank <= 2: True" in capsys.readouterr().out


def test_swap_check_distance_kernel_takes_a_huge_finite_value(capsys):
    # the swapped column's diagonal distance g_j + g_j - 2 G_jj overflows
    # before build sets it to 0; filterwarnings = error fails on a warning
    assert cli_main(["swap-check", "--p", "20", "--n", "10", "--value",
                     "1.3e154", "--kernel", "distance"]) == 0
    assert "numerical rank <= 2: True" in capsys.readouterr().out


def test_swap_check_reports_rank(capsys):
    code = cli_main(["swap-check", "--n", "25", "--p", "15", "--ensemble",
                     "gaussian", "--envelope", "exp:a=1", "--kernel", "inner",
                     "--diag", "zero", "--i", "2", "--j", "3", "--value",
                     "0.5"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "numerical rank <= 2: True" in printed
    assert "all zero: True" in printed


def test_every_model_flag_is_the_config_field_it_sets():
    parser = argparse.ArgumentParser()
    _add_model_flags(parser)
    args = vars(parser.parse_args([]))
    assert set(args) <= CONFIG_SCHEMA.keys()
    assert ExperimentConfig(**args) == ExperimentConfig()


@pytest.mark.parametrize("argv", [
    ["predict", "--law", "mp", "--scale", "1e308"],
    ["predict", "--law", "mp", "--shift", "1e308", "--scale", "1e308"],
    # the distance kernel's scale -2 f'(2) = -9.7e307
    ["compare", "--set", "p=20", "--set", "n=40", "--set", "kernel=distance",
     "--set", "envelope=power:a=640"],
])
def test_an_affine_law_whose_table_overflows_exits_one_before_any_output(
        argv, tmp_path, capsys, monkeypatch):
    _forbid_trials(monkeypatch)
    out = tmp_path / "out"
    assert cli_main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: shift and scale must be finite, "
                                   "with a finite table range, got shift=")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["predict", "--law", "fe", "--a", "1", "--nu", "1", "--epsilon", "1e-4"],
    ["compare", "--set", "p=20", "--set", "n=40", "--set",
     "target=functional-equation", "--set", "law_a=1", "--set", "law_nu=1",
     "--set", "epsilon=1e-4"],
])
def test_epsilon_is_not_an_option(argv, tmp_path, capsys, monkeypatch):
    # the functional-equation law is scored exactly and tabulated at a
    # fixed epsilon, so neither command takes one
    _forbid_trials(monkeypatch)
    out = tmp_path / "out"
    assert cli_main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "epsilon" in captured.err
    assert not out.exists()


def test_predict_solves_a_law_at_tiny_gamma(tmp_path, capsys):
    # the support quartic's near-double root at w = -c once divided by zero
    # here, and the command exited 1; filterwarnings = error fails a warning
    out = tmp_path / "law.csv"
    assert cli_main(["predict", "--law", "fe", "--a", "1", "--nu", "1.01",
                     "--gamma", "1e-16", "--out", str(out)]) == 0
    law = load_limit_law(out)
    assert law.support == pytest.approx((-2.0000001e7, 1.00000002e16),
                                        rel=1e-15)
    assert law.cdf_values[0] < 1e-9 and law.cdf_values[-1] > 1 - 1e-8


def test_predict_writes_an_affine_law_at_a_subnormal_scale(tmp_path, capsys):
    out = tmp_path / "mp.csv"
    assert cli_main(["predict", "--law", "mp", "--scale", "1e-320",
                     "--out", str(out)]) == 0
    rows, _ = read_table(out, ("x", "density", "cdf"))
    cdf = np.array(rows, dtype=float)[:, 2]
    assert cdf[0] == 0.0 and cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)


def test_predict_mp_takes_gamma_down_to_the_smallest_normal_float(tmp_path,
                                                                 capsys):
    # 1e-310 overflowed the MP support and blamed shift and scale
    assert cli_main(["predict", "--law", "mp", "--gamma", "1e-310"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: gamma must be positive and finite, a normal float >= "
        "2.2250738585072014e-308, got 1e-310\n")
    out = tmp_path / "mp.csv"
    assert cli_main(["predict", "--law", "mp", "--gamma",
                     "2.2250738585072014e-308", "--out", str(out)]) == 0
    rows, _ = read_table(out, ("x", "density", "cdf"))
    assert np.isfinite(np.array(rows, dtype=float)).all()


@pytest.mark.parametrize("argv, named", [
    (["predict", "--law", "fe", "--a", "0.5", "--nu", "1", "--gamma", "1e-300"],
     "a=0.5, nu=1.0, gamma=1e-300"),
    (["predict", "--law", "fe", "--a", "1e100", "--nu", "1e201", "--gamma",
      "1"], "a=1e+100, nu=1e+201, gamma=1.0"),
    (["compare", "--set", "p=20", "--set", "n=40", "--set",
      "target=functional-equation", "--set", "law_a=1e100", "--set",
      "law_nu=1e201"], "a=1e+100, nu=1e+201, gamma=0.5"),
])
def test_an_fe_law_whose_support_overflows_exits_one_naming_its_parameters(
        argv, named, capsys, monkeypatch):
    _forbid_trials(monkeypatch)
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: c = a/gamma, d = (nu - a^2)/gamma")
    assert f"overflows at {named}\n" in captured.err
