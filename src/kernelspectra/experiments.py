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
from .ensembles import (FAMILIES, ConcentrationDiagnostic, SampleMatrix,
                        VectorEnsemble, concentration_diagnostic,
                        sample_matrix)
from .errors import KernelSpectraError
from .kernels import (DIAGONALS, KERNELS, Envelope, KernelSpec, build, gram,
                      parse_envelope)
from .limit_solver import _check_params, solve_grid
from .mp_theory import predicted_law
from .spectral import (ESD, Law, eigenvalues, empirical_stieltjes,
                       ks_distance, wasserstein1)
from .svgplot import write_overlay_svg

AFFINE_MP = "affine-mp"
FUNCTIONAL_EQUATION = "functional-equation"
CROSS_ENSEMBLE = "cross-ensemble"
TARGETS = (AFFINE_MP, FUNCTIONAL_EQUATION, CROSS_ENSEMBLE)

_DEFAULT_Z_GRID = (1j, 0.5 + 1j, 1 + 1j, 2 + 1j, -1 + 1j)

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
    envelope: str | Envelope = "identity"
    target: str = AFFINE_MP
    ensemble_b: str | None = None
    law_a: float | None = None
    law_nu: float | None = None
    epsilon: float = 1e-3
    z_grid: tuple[complex, ...] = _DEFAULT_Z_GRID
    out: str | None = None

    def __post_init__(self):
        if self.ensemble not in FAMILIES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.ensemble_b is not None and self.ensemble_b not in FAMILIES:
            raise ValueError(f"unknown ensemble_b {self.ensemble_b!r}")
        if self.p < 1 or self.n < 1:
            raise ValueError(f"need p >= 1 and n >= 1, got p={self.p}, n={self.n}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.n * self.trials > MAX_N_TRIALS:
            raise ValueError(f"n * trials = {self.n * self.trials} exceeds the "
                             f"desk-scale cap {MAX_N_TRIALS}")
        if self.kernel not in KERNELS or self.diagonal not in DIAGONALS:
            raise ValueError(f"bad kernel spec {self.kernel!r}/{self.diagonal!r}")
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if self.target == CROSS_ENSEMBLE and self.ensemble_b is None:
            raise ValueError("cross-ensemble target needs ensemble_b")
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
        if any(np.imag(z) <= 0 for z in self.z_grid):
            raise ValueError("z_grid points must have Im z > 0")

    @property
    def gamma(self) -> float:
        return self.p / self.n

    def envelope_obj(self) -> Envelope:
        if isinstance(self.envelope, Envelope):
            return self.envelope
        return parse_envelope(self.envelope)

    def kernel_spec(self) -> KernelSpec:
        return KernelSpec(kernel=self.kernel, diagonal=self.diagonal,
                          envelope=self.envelope_obj())

    def items(self) -> list[tuple[str, str]]:
        env = self.envelope if isinstance(self.envelope, str) \
            else self.envelope.name
        out = [("ensemble", self.ensemble), ("p", str(self.p)),
               ("n", str(self.n)), ("gamma", repr(self.gamma)),
               ("trials", str(self.trials)), ("seed", str(self.seed)),
               ("kernel", self.kernel), ("diag", self.diagonal),
               ("envelope", env), ("target", self.target)]
        if self.ensemble_b is not None:
            out.append(("ensemble_b", self.ensemble_b))
        if self.law_a is not None:
            out.append(("law_a", repr(self.law_a)))
        if self.law_nu is not None:
            out.append(("law_nu", repr(self.law_nu)))
        out.append(("epsilon", repr(self.epsilon)))
        out.append(("z_grid", ";".join(str(z) for z in self.z_grid)))
        if self.out is not None:
            out.append(("out", self.out))
        return out


_CONFIG_KEYS = {"ensemble", "ensemble_b", "p", "n", "trials", "seed", "kernel",
                "diag", "envelope", "target", "law_a", "law_nu", "epsilon",
                "z_grid", "out"}
_INT_KEYS = {"p", "n", "trials", "seed"}
_FLOAT_KEYS = {"law_a", "law_nu", "epsilon"}


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
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if val == "":
            continue
        if key in _INT_KEYS:
            kwargs[key] = int(val)
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(val)
        elif key == "z_grid":
            kwargs[key] = tuple(complex(part) for part in val.split(";") if part)
        elif key == "diag":
            kwargs["diagonal"] = val
        else:
            kwargs[key] = val
    config = ExperimentConfig(**kwargs)
    if gamma and float(gamma) != config.gamma:
        raise ValueError(f"gamma={gamma} differs from p/n = {config.gamma!r}; "
                         f"set p and n instead")
    return config


def load_config(path: str | Path, overrides: dict[str, str] | None = None
                ) -> ExperimentConfig:
    return parse_config(Path(path).read_text(), overrides)


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
    trial: int
    ks: float
    w1: float
    stieltjes_sup: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    samples: dict[str, list[ESD]]
    pooled: dict[str, ESD]
    law: Law | None
    distances: dict[str, list[DistanceRecord]]
    pooled_distances: dict[str, DistanceRecord]
    cross_distances: list[DistanceRecord] | None
    pooled_cross: DistanceRecord | None
    concentration: dict[str, list[ConcentrationDiagnostic]]
    errors: list[TrialError]
    timings: dict[str, float]
    incomplete: bool


def _w1_vs_law(e: ESD, law: Law) -> float:
    """Integral of |F_esd - F_law| over a merged fine grid."""
    lo, hi = law.window
    lo = min(lo, float(e.points[0]))
    hi = max(hi, float(e.points[-1]))
    base = np.linspace(lo, hi, 4001)
    grid = np.unique(np.concatenate([base, e.points]))
    diff = np.abs(np.asarray(e.cdf(grid)) - np.asarray(law.cdf(grid)))
    return float(np.trapezoid(diff, grid))


def _distance_record(trial: int, e: ESD, law: Law, z_grid: Sequence[complex]
                     ) -> DistanceRecord:
    sup = max(abs(empirical_stieltjes(e, z) - law.stieltjes(z))
              for z in z_grid)
    return DistanceRecord(trial=trial, ks=ks_distance(e, law),
                          w1=_w1_vs_law(e, law), stieltjes_sup=float(sup))


def _cross_record(trial: int, e1: ESD, e2: ESD,
                  z_grid: Sequence[complex]) -> DistanceRecord:
    sup = max(abs(empirical_stieltjes(e1, z) - empirical_stieltjes(e2, z))
              for z in z_grid)
    return DistanceRecord(trial=trial, ks=ks_distance(e1, e2),
                          w1=wasserstein1(e1, e2), stieltjes_sup=float(sup))


def build_law(config: ExperimentConfig) -> Law | None:
    if config.target == AFFINE_MP:
        return predicted_law(config.kernel_spec(), config.gamma)
    if config.target == FUNCTIONAL_EQUATION or (
            config.target == CROSS_ENSEMBLE and config.law_a is not None
            and config.law_nu is not None):
        return solve_grid(config.law_a, config.law_nu, config.gamma,
                          epsilon=config.epsilon)
    return None


def trial_samples(config: ExperimentConfig, families: Sequence[str]
                  ) -> Iterator[tuple[int, str, SampleMatrix]]:
    """(trial, family, sample matrix), trial-major; every command draws
    trial t from the derive_seed(config.seed, TAG_TRIAL, t) stream."""
    for t in range(config.trials):
        trial_seed = derive_seed(config.seed, TAG_TRIAL, t)
        for fam in families:
            yield t, fam, sample_matrix(VectorEnsemble(fam, config.p),
                                        config.n, trial_seed)


def run_universality(config: ExperimentConfig) -> ExperimentResult:
    """Build per-trial kernel matrices, pool ESDs, compare to the target law.

    A module error inside one trial is recorded and the run continues;
    results with any failed trial are flagged incomplete.
    """
    t0 = time.perf_counter()
    spec = config.kernel_spec()
    families = [config.ensemble]
    if config.target == CROSS_ENSEMBLE:
        families.append(config.ensemble_b)

    samples: dict[str, list[ESD]] = {f: [] for f in families}
    conc: dict[str, list[ConcentrationDiagnostic]] = {f: [] for f in families}
    errors: list[TrialError] = []
    for t, fam, S in trial_samples(config, families):
        step = "sample"
        try:
            # One Gram matrix per trial feeds both the diagnostic and the
            # kernel; each n x n array is dropped as soon as it is spent.
            G = gram(S)
            if config.n >= 2:
                conc[fam].append(concentration_diagnostic(S, G))
            step = "build"
            A = build(spec, S, G)
            del G
            step = "eigenvalues"
            samples[fam].append(eigenvalues(A))
            del A
        except (KernelSpectraError, ValueError) as exc:
            errors.append(TrialError(trial=t, ensemble=fam, stage=step,
                                     message=str(exc)))
    t_build = time.perf_counter() - t0
    law = None
    try:
        law = build_law(config)
    except (KernelSpectraError, ValueError) as exc:
        errors.append(TrialError(trial=-1, ensemble=config.ensemble,
                                 stage="law", message=str(exc)))
    incomplete = bool(errors)

    pooled = {f: ESD.pooled(s) for f, s in samples.items() if s}
    distances: dict[str, list[DistanceRecord]] = {f: [] for f in families}
    pooled_distances: dict[str, DistanceRecord] = {}
    if law is not None:
        for fam in families:
            distances[fam] = [
                _distance_record(t, e, law, config.z_grid)
                for t, e in enumerate(samples[fam])]
            if fam in pooled:
                pooled_distances[fam] = _distance_record(
                    -1, pooled[fam], law, config.z_grid)

    cross = None
    pooled_cross = None
    if config.target == CROSS_ENSEMBLE and all(samples[f] for f in families):
        fam_a, fam_b = families
        n_pairs = min(len(samples[fam_a]), len(samples[fam_b]))
        cross = [_cross_record(t, samples[fam_a][t], samples[fam_b][t],
                               config.z_grid)
                 for t in range(n_pairs)]
        pooled_cross = _cross_record(-1, pooled[fam_a], pooled[fam_b],
                                     config.z_grid)

    timings = {"build_and_eig": t_build, "total": time.perf_counter() - t0}
    result = ExperimentResult(
        config=config, samples=samples, pooled=pooled, law=law,
        distances=distances, pooled_distances=pooled_distances,
        cross_distances=cross, pooled_cross=pooled_cross,
        concentration=conc, errors=errors, timings=timings,
        incomplete=incomplete)
    if config.out is not None:
        write_result(result, Path(config.out))
    return result


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_law_csv(path: str | Path, law: Law,
                  meta: Sequence[tuple[str, object]] | None = None) -> None:
    """law.table() as x,density,cdf rows; ``meta`` pairs go to <path>.meta."""
    write_table(path, ("x", "density", "cdf"),
                np.column_stack(law.table()).tolist(), meta)


def write_result(result: ExperimentResult, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = result.config
    (out_dir / "config.resolved").write_text(config_text(config))

    def label(fam: str, trial: int | str) -> str:
        return f"{trial}" if fam == config.ensemble else f"{fam}:{trial}"

    esd_rows = ((label(fam, t), lam)
                for fam, per_trial in result.samples.items()
                for t, e in enumerate(per_trial)
                for lam in e.points.tolist())
    write_table(out_dir / "esd.csv", ("trial", "lambda"), esd_rows,
                [*config.items(), ("schema", "trial,lambda"),
                 ("spec", config.kernel_spec().label())])

    if result.law is not None:
        write_law_csv(out_dir / "law.csv", result.law,
                      [*config.items(), *result.law.to_record().items()])

    def row(fam: str, rec: DistanceRecord) -> list:
        trial = "pooled" if rec.trial < 0 else rec.trial
        return [label(fam, trial), rec.ks, rec.w1, rec.stieltjes_sup]

    dist_rows = []
    for fam, recs in result.distances.items():
        dist_rows += [row(fam, rec) for rec in recs]
        if fam in result.pooled_distances:
            dist_rows.append(row(fam, result.pooled_distances[fam]))
    if result.cross_distances is not None:
        dist_rows += [row("cross", rec) for rec in
                      [*result.cross_distances, result.pooled_cross]]
    write_table(out_dir / "distances.csv", ("trial", "ks", "w1", "stieltjes_sup"),
                dist_rows, [*config.items(),
                            ("schema", "trial,ks,w1,stieltjes_sup")])

    if result.errors:
        write_table(out_dir / "errors.csv",
                    ("trial", "ensemble", "stage", "message"),
                    [[e.trial, e.ensemble, e.stage, e.message]
                     for e in result.errors])

    _write_report_svg(result, out_dir / "report.svg")


def _density_histogram(e: ESD, bins: int = 80) -> tuple[np.ndarray, np.ndarray]:
    hist, edges = np.histogram(e.points, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, hist


def _write_report_svg(result: ExperimentResult, path: Path) -> None:
    density_series = []
    cdf_series = []
    for fam, e in result.pooled.items():
        cx, cy = _density_histogram(e)
        density_series.append((cx, cy, f"esd {fam}"))
        cdf_series.append((e.points, np.arange(1, e.n + 1) / e.n,
                           f"esd {fam}"))
    if result.law is not None:
        xs, dens, cdfs = result.law.table()
        density_series.append((xs, dens, "law"))
        cdf_series.append((xs, cdfs, "law"))
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
    for _, _, S in trial_samples(config, (config.ensemble,)):
        G = gram(S)
        m1 = empirical_stieltjes(eigenvalues(build(spec1, S, G)), z)
        m2 = empirical_stieltjes(eigenvalues(build(spec2, S, G)), z)
        deltas.append(abs(m1 - m2))
    mean_delta = float(np.mean(deltas))
    ratio = mean_delta / eps_hat if eps_hat > 0 else (
        0.0 if mean_delta == 0 else float("inf"))
    return PerturbationReport(epsilon_hat=eps_hat, z=z,
                              delta_m=tuple(deltas), ratio=ratio)

