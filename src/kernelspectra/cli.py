"""Command-line interface.

Subcommands: simulate, predict, expand, compare, diagnose, swap-check.
Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from .ensembles import (FAMILIES, VectorEnsemble, concentration_diagnostic,
                        moment_diagnostic, sample_matrix)
from .errors import KernelSpectraError
from .experiments import (CONFIG_SCHEMA, ExperimentConfig, esd_meta,
                          parse_config, run_universality, trial_grams,
                          write_result)
from .kernels import (DIAGONALS, ENVELOPE_FACTORIES, KERNELS, KernelSpec,
                      build, gram, parse_envelope, single_entry_swap)
from .limit_solver import DEFAULT_EPSILON, solve_grid
from .mp_theory import AffineMPLaw, predicted_law
from .orthopoly import DEFAULT_SAMPLES, envelope_coeffs
from .spectral import ESD, eigenvalues, save_esd, save_limit_law

_ENSEMBLE_HELP = " | ".join(FAMILIES)
_MODEL = ExperimentConfig()  # the model compare runs with no keys set


def _envelope_usage(name: str) -> str:
    params = inspect.signature(ENVELOPE_FACTORIES[name]).parameters
    if not params:
        return name
    return f"{name}:" + ",".join(f"{k}=<{k}>" for k in params)


_ENVELOPE_HELP = " | ".join(map(_envelope_usage, ENVELOPE_FACTORIES))


def _add_model_flags(p: argparse.ArgumentParser, *names: str) -> None:
    flags = {"ensemble": dict(default=_MODEL.ensemble, help=_ENSEMBLE_HELP),
             "p": dict(type=int, default=_MODEL.p, help="vector dimension"),
             "n": dict(type=int, default=_MODEL.n, help="matrix size"),
             "seed": dict(type=int, default=_MODEL.seed),
             "envelope": dict(default=_MODEL.envelope, help=_ENVELOPE_HELP),
             "kernel": dict(default=_MODEL.kernel, help=" | ".join(KERNELS)),
             "diag": dict(default=_MODEL.diag, help=" | ".join(DIAGONALS))}
    for name in names or flags:
        p.add_argument(f"--{name}", **flags[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelspectra",
        description="Random kernel matrix spectra and their limiting laws")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="eigenvalues of one configuration")
    _add_model_flags(sim)
    sim.add_argument("--trials", type=int, default=_MODEL.trials)
    sim.add_argument("--out", default=None, help="ESD csv path")

    # A flag left out is absent from args, so predict can tell it was not given.
    pred = sub.add_parser("predict", help="emit a limiting law as CSV",
                          argument_default=argparse.SUPPRESS)
    pred.add_argument("--law", default="mp", choices=("mp", "fe"), help=(
        "mp: --shift --scale | --envelope --kernel --diag; fe: --a --nu --epsilon"))
    pred.add_argument("--gamma", type=float, default=_MODEL.gamma,
                      help="default %(default)g, compare's p/n")
    pred.add_argument("--shift", type=float, help="default 0")
    pred.add_argument("--scale", type=float, help="default 1")
    pred.add_argument("--envelope", help=_ENVELOPE_HELP)
    pred.add_argument("--kernel", help=f"default {_MODEL.kernel}: "
                      + " | ".join(KERNELS))
    pred.add_argument("--diag", help=f"default {_MODEL.diag}: "
                      + " | ".join(DIAGONALS))
    pred.add_argument("--a", type=float)
    pred.add_argument("--nu", type=float)
    pred.add_argument("--epsilon", type=float,
                      help=f"default {DEFAULT_EPSILON:g}")
    pred.add_argument("--out", default=None, help="law csv path")

    exp = sub.add_parser("expand", help="envelope coefficient table")
    _add_model_flags(exp, "ensemble", "p", "seed")
    exp.add_argument("--envelope", required=True, help=_ENVELOPE_HELP)
    exp.add_argument("--degree", type=int, default=4)
    exp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    cmp_ = sub.add_parser("compare", help="full universality run from a config")
    cmp_.add_argument("--config", default=None, help="key=value config file")
    cmp_.add_argument("--set", action="append", default=[],
                      metavar="KEY=VALUE", help="config overrides")
    cmp_.add_argument("--out", default=None, help="output directory")

    diag = sub.add_parser("diagnose", help="moment and concentration checks")
    _add_model_flags(diag, "ensemble", "p", "n", "seed")
    diag.add_argument("--K", type=int, default=4, help="even, 2 to 16")

    swap = sub.add_parser("swap-check",
                          help="rank of a single-entry swap difference")
    _add_model_flags(swap)
    swap.add_argument("--i", type=int, default=0, help="sample row index")
    swap.add_argument("--j", type=int, default=0, help="sample column index")
    swap.add_argument("--value", type=float, default=0.0, help="new entry value")
    return parser


def _cmd_simulate(args) -> int:
    config = ExperimentConfig(**{k: v for k, v in vars(args).items()
                                 if k in CONFIG_SCHEMA})
    spec = config.kernel_spec()
    spectra = {}
    for t, _, G in trial_grams(config, (config.ensemble,)):
        spectra[str(t)] = eigenvalues(build(spec, G, config.p))
        del G  # so A is freed before the next draw
    lam = ESD.pooled(list(spectra.values())).points
    print(f"model {spec.label()}  ensemble={args.ensemble} n={args.n} "
          f"p={args.p} gamma={args.p / args.n:g} trials={args.trials}")
    print(f"eigenvalues: count={lam.size} min={lam.min():.6g} "
          f"max={lam.max():.6g} mean-trace={lam.sum() / args.trials:.6g}")
    if args.out:
        save_esd(args.out, spectra, esd_meta(config))
        print(f"wrote {args.out}")
    return 0


# The flags each kind of law reads besides --law, --gamma and --out.
_LAW_FLAGS = {"mp": ("shift", "scale"),
              "mp with --envelope": ("envelope", "kernel", "diag"),
              "fe": ("a", "nu", "epsilon")}


def _cmd_predict(args) -> int:
    given = vars(args)
    kind = ("mp with --envelope" if args.law == "mp" and "envelope" in given
            else args.law)
    unused = [f"--{flag}" for flags in _LAW_FLAGS.values() for flag in flags
              if flag in given and flag not in _LAW_FLAGS[kind]]
    if unused:
        raise ValueError(f"--law {kind} does not use {', '.join(unused)}")
    name = "functional-equation law" if kind == "fe" else "affine MP law"
    if kind == "mp":
        law = AffineMPLaw(gamma=args.gamma, shift=given.get("shift", 0.0),
                          scale=given.get("scale", 1.0))
    elif kind == "fe":
        if "a" not in given or "nu" not in given:
            raise ValueError("functional-equation law needs --a and --nu")
        law = solve_grid(args.a, args.nu, args.gamma,
                         epsilon=given.get("epsilon", DEFAULT_EPSILON))
    else:
        spec = KernelSpec(given.get("kernel", _MODEL.kernel),
                          given.get("diag", _MODEL.diag),
                          parse_envelope(args.envelope))
        law = predicted_law(spec, args.gamma)
    print(f"{name}: {law.to_record()}")
    if args.out:
        save_limit_law(args.out, law)
        print(f"wrote {args.out}")
    return 0


def _cmd_expand(args) -> int:
    params = envelope_coeffs(parse_envelope(args.envelope),
                             VectorEnsemble(args.ensemble, args.p),
                             args.degree, samples=args.samples, seed=args.seed)
    print(f"envelope {args.envelope} on {args.ensemble} (p={args.p}, "
          f"samples={args.samples})")
    print(f"{'k':>3} {'a_k':>14} {'stderr':>12}")
    for k in range(params.degree + 1):
        print(f"{k:>3} {params.coefficients[k]:>14.6f} "
              f"{params.stderr[k]:>12.4e}")
    print(f"a={params.a:.6f}  nu={params.nu:.6f}  "
          f"nu_stderr={params.nu_stderr:.4e}  "
          f"tail_mass={params.tail_mass:.6f}")
    return 0


def _compare_config(args) -> ExperimentConfig:
    """The config ``compare`` runs: its --config text with --set on top."""
    overrides = {}
    for item in args.set:
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"override must be KEY=VALUE, got {item!r}")
        overrides[key.strip()] = val.strip()
    text = "" if args.config is None else Path(args.config).read_text()
    return parse_config(text, overrides)


def _cmd_compare(args) -> int:
    result = run_universality(_compare_config(args))
    if args.out:
        write_result(result, args.out)
    for rec in result.distances:
        if rec.trial < 0:
            head = ("cross-ensemble:" if rec.family == "cross"
                    else f"{rec.family}: pooled")
            print(f"{head} ks={rec.ks:.4f} w1={rec.w1:.4g} "
                  f"stieltjes_sup={rec.stieltjes_sup:.4g}")
    if result.errors:
        print(f"{len(result.errors)} trial error(s); results incomplete")
        for err in result.errors[:5]:
            print(f"  trial {err.trial} [{err.ensemble}/{err.stage}]: "
                  f"{err.message}")
    if args.out:
        print(f"wrote {args.out}/")
    return 2 if result.errors else 0


def _cmd_diagnose(args) -> int:
    ens = VectorEnsemble(args.ensemble, args.p)
    mom = moment_diagnostic(ens, args.K)
    conc = concentration_diagnostic(gram(sample_matrix(ens, args.n, args.seed)))
    print(f"E (sqrt(p) entry)^{args.K} at p, 2p, 4p = "
          + ", ".join(f"{float(m):.6f}" for m in mom.moments))
    print(f"growth flagged: {mom.growth_flagged}")
    print(f"max |  ||X_i||^2 - 1 | = {conc.max_norm_dev:.6f}")
    print(f"max | X_i^T X_j |     = {conc.max_inner:.6f}")
    return 0


def _cmd_swap_check(args) -> int:
    if not np.isfinite(args.value * args.value):  # gram sums squares
        raise ValueError(f"--value must be finite with a finite square "
                         f"(|v| <= 1.34e154), got {args.value}")
    spec = KernelSpec(args.kernel, args.diag, parse_envelope(args.envelope))
    S = sample_matrix(VectorEnsemble(args.ensemble, args.p), args.n, args.seed)
    before, after = single_entry_swap(S, args.i, args.j, args.value, spec)
    delta = after - before
    sv = np.linalg.svd(delta, compute_uv=False)
    norm = sv[0] if sv[0] > 0 else 1.0
    third = sv[2] if sv.size > 2 else 0.0
    print(f"singular values of the swap difference: "
          f"{', '.join(f'{s:.3e}' for s in sv[:5])}")
    print(f"numerical rank <= 2: {third <= 1e-9 * norm} "
          f"(sigma_3 / sigma_1 = {third / norm:.3e})")
    outside = delta.copy()
    outside[args.j, :] = 0.0
    outside[:, args.j] = 0.0
    print(f"entries outside row/column {args.j} all zero: "
          f"{np.all(outside == 0.0)}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "predict": _cmd_predict,
    "expand": _cmd_expand,
    "compare": _cmd_compare,
    "diagnose": _cmd_diagnose,
    "swap-check": _cmd_swap_check,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KernelSpectraError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
