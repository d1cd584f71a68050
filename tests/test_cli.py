import numpy as np
import pytest
from scipy.integrate import quad

from kernelspectra import (ESD, VectorEnsemble, envelope_coeffs, load_esd,
                           load_limit_law, mp_atom_mass, mp_density,
                           mp_support, parse_envelope)
from kernelspectra.cli import cli_main


def test_unknown_subcommand_exits_one(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["simulate", "--frob", "1"]) == 1


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


def test_simulate_sphere_identity(tmp_path, capsys):
    out = tmp_path / "esd.csv"
    code = cli_main(["simulate", "--n", "10", "--p", "5", "--ensemble",
                     "sphere", "--envelope", "identity", "--kernel", "inner",
                     "--diag", "keep", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "count=10" in printed
    e, meta = load_esd(out)
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
    simulated, _ = load_esd(tmp_path / "sim.csv")
    rows = (tmp_path / "cmp" / "esd.csv").read_text().splitlines()[1:]
    compared = ESD(points=np.array([float(r.split(",")[1]) for r in rows]))
    assert np.array_equal(simulated.points, compared.points)


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


def test_compare_rejects_non_finite_epsilon(capsys):
    assert cli_main(["compare", "--set", "p=10", "--set", "n=20",
                     "--set", "epsilon=nan"]) == 1
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("settings", [
    ["target=functional-equation", "law_a=-1", "law_nu=1"],
    ["target=functional-equation", "law_a=1", "law_nu=0.5"],
    ["target=cross-ensemble", "ensemble_b=sphere", "law_a=1"],
    ["gamma=0.3"],
])
def test_compare_rejects_bad_law_or_gamma_before_any_trial(settings, capsys):
    argv = ["compare", "--set", "p=20", "--set", "n=40"]
    for item in settings:
        argv += ["--set", item]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


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
                     "--n", "30", "--K", "4", "--trials", "120"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "growth flagged: False" in printed


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


def test_swap_check_reports_rank(capsys):
    code = cli_main(["swap-check", "--n", "25", "--p", "15", "--ensemble",
                     "gaussian", "--envelope", "exp:a=1", "--kernel", "inner",
                     "--diag", "zero", "--i", "2", "--j", "3", "--value",
                     "0.5"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "numerical rank <= 2: True" in printed
    assert "all zero: True" in printed
