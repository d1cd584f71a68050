import ast
import dataclasses
import inspect
import os
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
from kernelspectra import orthopoly
from kernelspectra._csvio import read_table
from kernelspectra.cli import cli_main
from kernelspectra.ensembles import FAMILIES
from kernelspectra.experiments import esd_meta
from kernelspectra.kernels import ENVELOPE_FACTORIES


def test_unknown_subcommand_exits_one(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["simulate", "--frob", "1"]) == 1


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


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
    # the same sidecar but for compare's out line
    meta = (tmp_path / "cmp" / "esd.csv.meta").read_text().splitlines()
    assert (tmp_path / "sim.csv.meta").read_text().splitlines() == [
        line for line in meta if not line.startswith("out=")]


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
    assert law.gamma == 1.0 and law.epsilon == 1e-3
    assert np.array_equal(law.cdf_values, data[:, 2])


_SIGN_SCALED = {"envelope": "sign-scaled", "law_a": "0.7978845608028654",
                "law_nu": "1"}


def _assert_law_loads_back(path, law, meta=()):
    """``path`` holds law.table() and, in its .meta, ``meta`` and then the
    law's record; a LimitLaw also loads back through load_limit_law."""
    table = law.table()
    rows, written = read_table(path, tuple(table))
    assert np.array_equal(np.array(rows, dtype=float),
                          np.column_stack(list(table.values())))
    assert written == {k: str(v) for k, v in [*meta, *law.to_record().items()]}
    if isinstance(law, LimitLaw):
        loaded = load_limit_law(path)
        for field in dataclasses.fields(LimitLaw):
            assert np.array_equal(getattr(loaded, field.name),
                                  getattr(law, field.name)), field.name


def _assert_spectra_load_back(path, spectra):
    loaded, _ = load_esd(path)
    assert list(loaded) == list(spectra)
    for label, e in spectra.items():
        assert loaded[label].points.tobytes() == e.points.tobytes()


@pytest.mark.parametrize("settings", [
    {"target": "affine-mp", "envelope": "exp:a=1"},
    {"target": "functional-equation", **_SIGN_SCALED},
    {"target": "cross-ensemble", "ensemble_b": "sphere", **_SIGN_SCALED},
], ids=["affine-mp", "functional-equation", "cross-ensemble"])
def test_every_table_compare_writes_loads_back(settings, tmp_path, capsys):
    settings = {"ensemble": "rademacher", "p": "12", "n": "20", "seed": "5",
                "trials": "2", **settings, "out": str(tmp_path)}
    assert cli_main(["compare", *(arg for kv in settings.items()
                                  for arg in ("--set", "=".join(kv)))]) == 0
    config = parse_config("", settings)
    run = run_universality(dataclasses.replace(config, out=None))
    _assert_spectra_load_back(tmp_path / "esd.csv", {
        (str(t) if fam == config.ensemble else f"{fam}:{t}"): e
        for fam, per_trial in run.samples.items()
        for t, e in per_trial.items()})
    assert load_esd(tmp_path / "esd.csv")[1] == dict(esd_meta(config))
    _assert_law_loads_back(tmp_path / "law.csv", run.law, config.items())


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


def test_predict_overflowing_envelope_exits_one_without_warning(capsys):
    # exp(1000) overflows; the law's non-finite shift is the error, and
    # filterwarnings = error turns any overflow warning into a failure.
    assert cli_main(["predict", "--law", "mp", "--envelope", "exp:a=1000",
                     "--gamma", "1"]) == 1
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
    assert cli_main(["compare", "--set", "p=10", "--set", "n=20",
                     "--set", "epsilon=nan"]) == 1
    assert "epsilon" in capsys.readouterr().err


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
    for name in ("esd.csv", "law.csv", "distances.csv", "report.svg"):
        assert (out_dir / name).exists()
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
    assert cli_main([*argv, "--kernel", "distance", "--diag", "keep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "is not finite" in err


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
