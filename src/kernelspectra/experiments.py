"""Config-driven experiment runner tying ensembles -> kernels -> spectra -> laws.

Every run is a pure function of its config: trial t uses the seed derived
from (master seed, t), trials aggregate by index, and CSV outputs are
byte-identical across reruns of the same config. Wall-clock timings stay
out of the CSV contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._csvio import write_table
from ._rng import TAG_BATCH, TAG_TRIAL, derive_seed
from .ensembles import (ConcentrationDiagnostic, VectorEnsemble,
                        concentration_diagnostic, sample_matrix)
from .errors import KernelSpectraError, SolverError
from .kernels import Envelope, KernelSpec, build, gram, parse_envelope
from .limit_solver import _check_params, solve_grid
from .mp_theory import predicted_law
from .spectral import (ESD, Law, eigenvalues, empirical_stieltjes,
                       ks_distance, save_esd, save_limit_law, wasserstein1)
from .svgplot import write_overlay_svg

AFFINE_MP = "affine-mp"
FUNCTIONAL_EQUATION = "functional-equation"
CROSS_ENSEMBLE = "cross-ensemble"
TARGETS = (AFFINE_MP, FUNCTIONAL_EQUATION, CROSS_ENSEMBLE)

_DEFAULT_Z_GRID = (1j, 0.5 + 1j, 1 + 1j, 2 + 1j, -1 + 1j)
_MAX_ABS_Z = 1e300  # a transform's 1/(x - z) overflows near the float limit

# Desk-scale guardrail: refuse configs whose eigensolver work explodes.
MAX_N_TRIALS = 20_000_000  # bound on n * trials


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully parsed experiment description."""

    ensemble: str = "gaussian"
    p: int = 200
    n: int = 400
    trials: int = 1
    seed: int = 0
    kernel: str = "inner"
    diagonal: str = "zero"
    envelope: str = "identity"  # a registry string such as exp:a=1
    target: str = AFFINE_MP
    ensemble_b: str | None = None
    law_a: float | None = None
    law_nu: float | None = None
    epsilon: float = 1e-3
    z_grid: tuple[complex, ...] = _DEFAULT_Z_GRID
    out: str | None = None

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise ValueError(f"need p >= 1 and n >= 1, got p={self.p}, n={self.n}")
        VectorEnsemble(self.ensemble, self.p)  # rejects an unknown family
        if self.ensemble_b is not None:
            VectorEnsemble(self.ensemble_b, self.p)
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.n * self.trials > MAX_N_TRIALS:
            raise ValueError(f"n * trials = {self.n * self.trials} exceeds the "
                             f"desk-scale cap {MAX_N_TRIALS}")
        self.kernel_spec()  # rejects an unknown kernel, diagonal or envelope
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if (self.target == CROSS_ENSEMBLE
                and self.ensemble_b in (None, self.ensemble)):
            raise ValueError("cross-ensemble target needs ensemble_b != ensemble")
        if self.target == FUNCTIONAL_EQUATION and (self.law_a is None
                                                   or self.law_nu is None):
            raise ValueError("functional-equation target needs law_a and law_nu "
                             "(run the 'expand' subcommand to estimate them)")
        if (self.law_a is None) != (self.law_nu is None):
            raise ValueError("law_a and law_nu must be given together")
        if self.law_a is not None:
            _check_params(self.law_a, self.law_nu, self.gamma)
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, "
                             f"got {self.epsilon}")
        if not self.z_grid:
            raise ValueError("z_grid needs at least one point")
        for z in self.z_grid:
            if not (np.imag(z) > 0 and abs(z) <= _MAX_ABS_Z):
                raise ValueError(f"z_grid points must be finite with Im z > 0 "
                                 f"and |z| <= {_MAX_ABS_Z:g}, got {z}")

    @property
    def gamma(self) -> float:
        return self.p / self.n

    def kernel_spec(self) -> KernelSpec:
        return KernelSpec(kernel=self.kernel, diagonal=self.diagonal,
                          envelope=parse_envelope(self.envelope))

    def items(self) -> list[tuple[str, str]]:
        """(key, text) pairs in written order; gamma = p/n follows n."""
        out = []
        for key, (_, show) in CONFIG_SCHEMA.items():
            value = getattr(self, _FIELD[key])
            if value is not None:
                out.append((key, show(value)))
            if key == "n":
                out.append(("gamma", str(self.gamma)))
        return out


# Each config key in written order: how its text parses and how its value
# prints. str prints a float as its shortest round-tripping repr and a
# numpy scalar as a plain number. _FIELD names the field each key sets.
_TEXT, _INT, _FLOAT = (str, str), (int, str), (float, str)
CONFIG_SCHEMA = {
    "ensemble": _TEXT, "p": _INT, "n": _INT, "trials": _INT, "seed": _INT,
    "kernel": _TEXT, "diag": _TEXT, "envelope": _TEXT, "target": _TEXT,
    "ensemble_b": _TEXT, "law_a": _FLOAT, "law_nu": _FLOAT, "epsilon": _FLOAT,
    "z_grid": (lambda text: tuple(complex(z) for z in text.split(";") if z),
               lambda zs: ";".join(map(str, zs))),
    "out": _TEXT,
}
_FIELD = {**{key: key for key in CONFIG_SCHEMA}, "diag": "diagonal"}


def parse_config(text: str, overrides: dict[str, str] | None = None
                 ) -> ExperimentConfig:
    """Parse flat key=value config text ('#' starts a comment)."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected key=value, "
                             f"got {line!r}")
        raw[key.strip()] = val.strip()
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    kwargs: dict = {}
    gamma = raw.pop("gamma", "")  # derived; accepted as an echo of p/n
    for key, val in raw.items():
        if key not in CONFIG_SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        if val != "":
            kwargs[_FIELD[key]] = CONFIG_SCHEMA[key][0](val)
    config = ExperimentConfig(**kwargs)
    if gamma and float(gamma) != config.gamma:
        raise ValueError(f"gamma={gamma} differs from p/n = {config.gamma!r}; "
                         f"set p and n instead")
    return config


def config_text(config: ExperimentConfig) -> str:
    return "".join(f"{k}={v}\n" for k, v in config.items())


@dataclass(frozen=True)
class TrialError:
    trial: int
    ensemble: str
    stage: str
    message: str


@dataclass(frozen=True)
class DistanceRecord:
    """One distances.csv row: ``family`` is an ensemble or "cross" for a
    pair of ensembles; ``trial`` is -1 for the pooled spectra."""

    family: str
    trial: int
    ks: float
    w1: float
    stieltjes_sup: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    samples: dict[str, dict[int, ESD]]  # family -> trial -> spectrum
    pooled: dict[str, ESD]
    law: Law | None
    distances: list[DistanceRecord]  # in distances.csv row order
    concentration: dict[str, list[ConcentrationDiagnostic]]
    errors: list[TrialError]
    timings: dict[str, float]

    @property
    def incomplete(self) -> bool:
        return bool(self.errors)


def _distance_record(family: str, trial: int, e: ESD, target: ESD | Law,
                     z_grid: Sequence[complex]) -> DistanceRecord:
    gaps = []
    for z in z_grid:
        try:
            gaps.append(abs(e.stieltjes(z) - target.stieltjes(z)))
        except SolverError as exc:
            raise ValueError(f"z_grid point {z}: {exc}") from exc
        if not np.isfinite(gaps[-1]):
            raise ValueError(f"z_grid point {z}: a transform is not finite")
    return DistanceRecord(family=family, trial=trial,
                          ks=ks_distance(e, target),
                          w1=wasserstein1(e, target),
                          stieltjes_sup=float(max(gaps)))


def build_law(config: ExperimentConfig) -> Law | None:
    if config.target == AFFINE_MP:
        return predicted_law(config.kernel_spec(), config.gamma)
    if config.law_a is not None:  # and law_nu; the FE target needs both
        return solve_grid(config.law_a, config.law_nu, config.gamma,
                          epsilon=config.epsilon)
    return None


class _StageClock:
    """Seconds per stage; ``lap(stage)`` charges the time since the last lap."""

    def __init__(self, stages: Sequence[str]):
        self.seconds = dict.fromkeys(stages, 0.0)
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] += now - self._mark
        self._mark = now


def trial_grams(config: ExperimentConfig, families: Sequence[str],
                clock: _StageClock | None = None
                ) -> Iterator[tuple[int, str, np.ndarray]]:
    """(trial, family, G = gram(S)), trial-major; trial t's samples S come
    from the derive_seed(config.seed, TAG_TRIAL, t) stream. S is freed before
    the yield and G on resume, so a caller that builds A over G and drops
    G holds A alone. ``clock`` laps "sample" after each draw."""
    clock = clock or _StageClock(("sample",))
    for t in range(config.trials):
        seed = derive_seed(config.seed, TAG_TRIAL, t)
        for fam in families:
            S = sample_matrix(VectorEnsemble(fam, config.p), config.n, seed)
            clock.lap("sample")
            G = gram(S)
            del S
            yield t, fam, G
            del G


def run_universality(config: ExperimentConfig) -> ExperimentResult:
    """Build per-trial kernel matrices, pool ESDs, compare to the target law.

    A module error inside one trial is recorded and the run continues;
    results with any failed trial are flagged incomplete. ``timings``
    holds ``build_and_eig`` and ``total`` and the seconds, summed over
    trials, of the stages sample, gram (with the concentration
    diagnostic), build, eig, law and distances (with pooling).
    """
    t0 = time.perf_counter()
    spec = config.kernel_spec()
    families = [config.ensemble]
    if config.target == CROSS_ENSEMBLE:
        families.append(config.ensemble_b)

    samples: dict[str, dict[int, ESD]] = {f: {} for f in families}
    conc: dict[str, list[ConcentrationDiagnostic]] = {f: [] for f in families}
    errors: list[TrialError] = []
    clock = _StageClock(("sample", "gram", "build", "eig", "law", "distances"))
    for t, fam, G in trial_grams(config, families, clock):
        if config.n >= 2:  # the diagnostic reads G; build writes A over it
            conc[fam].append(concentration_diagnostic(G))
        clock.lap("gram")
        step = stage = "build"  # errors.csv stage, timings key
        try:
            A = build(spec, G, config.p)
            clock.lap(stage)
            step, stage = "eigenvalues", "eig"
            samples[fam][t] = eigenvalues(A)
            del A, G
        except (KernelSpectraError, ValueError) as exc:
            errors.append(TrialError(trial=t, ensemble=fam, stage=step,
                                     message=str(exc)))
        clock.lap(stage)
    t_build = time.perf_counter() - t0
    law = None
    try:
        law = build_law(config)
    except (KernelSpectraError, ValueError) as exc:
        errors.append(TrialError(trial=-1, ensemble=config.ensemble,
                                 stage="law", message=str(exc)))
    clock.lap("law")

    pooled = {f: ESD.pooled(list(s.values())) for f, s in samples.items() if s}
    z_grid = config.z_grid
    distances: list[DistanceRecord] = []
    if law is not None:
        for fam, per_trial in samples.items():
            distances += [_distance_record(fam, t, e, law, z_grid)
                          for t, e in per_trial.items()]
            if fam in pooled:
                distances.append(_distance_record(fam, -1, pooled[fam], law,
                                                  z_grid))
    if config.target == CROSS_ENSEMBLE and all(samples[f] for f in families):
        fam_a, fam_b = families
        by_a, by_b = samples[fam_a], samples[fam_b]
        # Pair only the trials that succeeded in both families.
        distances += [_distance_record("cross", t, e, by_b[t], z_grid)
                      for t, e in by_a.items() if t in by_b]
        distances.append(_distance_record("cross", -1, pooled[fam_a],
                                          pooled[fam_b], z_grid))

    clock.lap("distances")
    timings = {"build_and_eig": t_build, **clock.seconds,
               "total": time.perf_counter() - t0}
    result = ExperimentResult(
        config=config, samples=samples, pooled=pooled, law=law,
        distances=distances, concentration=conc, errors=errors,
        timings=timings)
    if config.out is not None:
        write_result(result, Path(config.out))
    return result


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def esd_meta(config: ExperimentConfig) -> list[tuple[str, str]]:
    """The .meta pairs of a run's spectra file."""
    return [*config.items(), ("schema", "trial,lambda"),
            ("spec", config.kernel_spec().label())]


def write_result(result: ExperimentResult, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = result.config
    (out_dir / "config.resolved").write_text(config_text(config))

    def label(fam: str, trial: int | str) -> str:
        return f"{trial}" if fam == config.ensemble else f"{fam}:{trial}"

    save_esd(out_dir / "esd.csv",
             {label(fam, t): e for fam, per_trial in result.samples.items()
              for t, e in per_trial.items()}, esd_meta(config))
    if result.law is not None:
        save_limit_law(out_dir / "law.csv", result.law, config.items())

    dist_rows = ([label(rec.family, "pooled" if rec.trial < 0 else rec.trial),
                  rec.ks, rec.w1, rec.stieltjes_sup]
                 for rec in result.distances)
    write_table(out_dir / "distances.csv", ("trial", "ks", "w1", "stieltjes_sup"),
                dist_rows, [*config.items(),
                            ("schema", "trial,ks,w1,stieltjes_sup")])

    if result.errors:
        write_table(out_dir / "errors.csv",
                    ("trial", "ensemble", "stage", "message"),
                    [[e.trial, e.ensemble, e.stage, e.message]
                     for e in result.errors])

    _write_report_svg(result, out_dir / "report.svg")


def _write_report_svg(result: ExperimentResult, path: Path) -> None:
    density_series = []
    cdf_series = []
    for fam, e in result.pooled.items():
        hist, edges = np.histogram(e.points, bins=80, density=True)
        density_series.append((0.5 * (edges[:-1] + edges[1:]), hist,
                               f"esd {fam}"))
        cdf_series.append((e.points, np.arange(1, e.n + 1) / e.n,
                           f"esd {fam}"))
    if result.law is not None:
        table = result.law.table()
        density_series.append((table["x"], table["density"], "law"))
        cdf_series.append((table["x"], table["cdf"], "law"))
    if not density_series:
        return
    desc = config_text(result.config).replace("\n", " ")
    write_overlay_svg(path, density_series, cdf_series, description=desc)


# ---------------------------------------------------------------------------
# L2 perturbation experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationReport:
    """Empirical version of the L2 perturbation bound.

    epsilon_hat estimates the hypothesis scale via
    epsilon^2 = p * E|f1(g) - f2(g)|^2 over independent kernel values g;
    delta_m lists |m_A1(z) - m_A2(z)| for coupled per-trial matrix pairs.
    """

    epsilon_hat: float
    z: complex
    delta_m: tuple[float, ...]
    ratio: float  # mean |delta m| / epsilon_hat (inf when epsilon_hat = 0)


def run_l2_perturbation(config: ExperimentConfig, f1: Envelope, f2: Envelope,
                        z: complex = 1j, pair_samples: int = 100_000
                        ) -> PerturbationReport:
    """Measure |m_A1 - m_A2| for envelopes f1, f2 on coupled samples."""
    if np.imag(z) <= 0:
        raise ValueError(f"need Im z > 0, got z={z}")
    ens = VectorEnsemble(config.ensemble, config.p)
    pair_seed = derive_seed(config.seed, TAG_TRIAL, 2 ** 32)
    sq_sum = 0.0
    batch = max(100, min(pair_samples, 2_000_000 // max(config.p, 1)))
    for b, done in enumerate(range(0, pair_samples, batch)):
        count = min(batch, pair_samples - done)
        S = sample_matrix(ens, 2 * count, derive_seed(pair_seed, TAG_BATCH, b))
        a_cols = S.data[:, :count]
        b_cols = S.data[:, count:2 * count]
        if config.kernel == "distance":
            g = np.sum((a_cols - b_cols) ** 2, axis=0)
        else:
            g = np.sum(a_cols * b_cols, axis=0)
        diff = np.asarray(f1(g, config.p), dtype=float) \
            - np.asarray(f2(g, config.p), dtype=float)
        sq_sum += float(np.sum(diff ** 2))
    eps_hat = float(np.sqrt(config.p * sq_sum / pair_samples))

    spec1 = KernelSpec(config.kernel, config.diagonal, f1)
    spec2 = KernelSpec(config.kernel, config.diagonal, f2)
    deltas = []
    for _, _, G in trial_grams(config, (config.ensemble,)):
        m1 = empirical_stieltjes(eigenvalues(build(spec1, G.copy(), config.p)),
                                 z)
        m2 = empirical_stieltjes(eigenvalues(build(spec2, G, config.p)), z)
        deltas.append(abs(m1 - m2))
    mean_delta = float(np.mean(deltas))
    ratio = mean_delta / eps_hat if eps_hat > 0 else (
        0.0 if mean_delta == 0 else float("inf"))
    return PerturbationReport(epsilon_hat=eps_hat, z=z,
                              delta_m=tuple(deltas), ratio=ratio)

