"""Config-driven experiment runner tying ensembles -> kernels -> spectra -> laws.

Every run is a pure function of its config: each family's trial t uses its
own seed derived from (master seed, t) (see trial_grams), trials aggregate
by index, and write_result's files hold no output path and no timing, so
they are byte-identical across reruns of the same config. A config accepts
only the keys its run reads, and a run computes only what its outputs read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._csvio import write_table
from ._rng import TAG_TRIAL, TAG_TRIAL_B, derive_seed
from .ensembles import VectorEnsemble, sample_matrix
from .errors import KernelSpectraError, SolverError
from .kernels import Envelope, KernelSpec, build, gram, parse_envelope
from .limit_solver import DEFAULT_EPSILON, _check_params, solve_grid
from .mp_theory import predicted_law
from .spectral import (ESD, Law, eigenvalues, empirical_stieltjes,
                       ks_distance, save_esd, save_limit_law, wasserstein1)

AFFINE_MP = "affine-mp"
FUNCTIONAL_EQUATION = "functional-equation"
CROSS_ENSEMBLE = "cross-ensemble"
TARGETS = (AFFINE_MP, FUNCTIONAL_EQUATION, CROSS_ENSEMBLE)

_DEFAULT_Z_GRID = (1j, 0.5 + 1j, 1 + 1j, 2 + 1j, -1 + 1j)
_MAX_ABS_Z = 1e300  # a transform's 1/(x - z) overflows near the float limit
# an ESD's transform is a mean of at most MAX_N_TRIALS terms of size <= 1/Im z
_MIN_IM_Z = 1e-300

# Desk-scale guardrail: refuse configs whose eigensolver work explodes.
MAX_N_TRIALS = 20_000_000  # bound on n * trials


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully parsed experiment description; a key its run does not read is
    an error. ``target`` picks the law; only functional-equation reads
    ``law_a``, ``law_nu`` and ``epsilon`` (default DEFAULT_EPSILON, as in
    ``predict --law fe``). ``ensemble_b`` adds a family under any target."""

    ensemble: str = "gaussian"
    p: int = 200
    n: int = 400
    trials: int = 1
    seed: int = 0
    kernel: str = "inner"
    diag: str = "zero"
    envelope: str = "identity"  # a registry string such as exp:a=1
    target: str = AFFINE_MP
    ensemble_b: str | None = None
    law_a: float | None = None
    law_nu: float | None = None
    epsilon: float | None = None
    z_grid: tuple[complex, ...] = _DEFAULT_Z_GRID

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
        if self.ensemble_b == self.ensemble:
            raise ValueError("ensemble_b must differ from ensemble")
        if self.target == CROSS_ENSEMBLE and self.ensemble_b is None:
            raise ValueError("cross-ensemble target needs ensemble_b")
        if self.target != FUNCTIONAL_EQUATION:
            for key in ("law_a", "law_nu", "epsilon"):
                if getattr(self, key) is not None:
                    raise ValueError(f"{self.target} target does not read "
                                     f"{key}; only functional-equation does")
        elif self.law_a is None or self.law_nu is None:
            raise ValueError(
                "functional-equation target needs law_a and law_nu; estimate "
                f"them at this p with: kernelspectra expand --ensemble "
                f"{self.ensemble} --p {self.p} --envelope {self.envelope}")
        else:
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", DEFAULT_EPSILON)
            _check_params(self.law_a, self.law_nu, self.gamma, self.epsilon)
        if not self.z_grid:
            raise ValueError("z_grid needs at least one point")
        for z in self.z_grid:
            if not (np.imag(z) >= _MIN_IM_Z and abs(z) <= _MAX_ABS_Z):
                raise ValueError(f"z_grid points must be finite with Im z >= "
                                 f"{_MIN_IM_Z:g} and |z| <= {_MAX_ABS_Z:g}, "
                                 f"got {z}")

    @property
    def gamma(self) -> float:
        return self.p / self.n

    def kernel_spec(self) -> KernelSpec:
        return KernelSpec(self.kernel, self.diag, parse_envelope(self.envelope))

    def items(self) -> list[tuple[str, str]]:
        """(key, text) pairs in written order; gamma = p/n follows n."""
        out = []
        for key, (_, show) in CONFIG_SCHEMA.items():
            value = getattr(self, key)
            if value is not None:
                out.append((key, show(value)))
            if key == "n":
                out.append(("gamma", str(self.gamma)))
        return out


# Each config key in written order: how its text parses and how its value
# prints. str prints a float as its shortest round-tripping repr and a
# numpy scalar as a plain number. Each key is the field it sets.
_TEXT, _INT, _FLOAT = (str, str), (int, str), (float, str)
CONFIG_SCHEMA = {
    "ensemble": _TEXT, "p": _INT, "n": _INT, "trials": _INT, "seed": _INT,
    "kernel": _TEXT, "diag": _TEXT, "envelope": _TEXT, "target": _TEXT,
    "ensemble_b": _TEXT, "law_a": _FLOAT, "law_nu": _FLOAT, "epsilon": _FLOAT,
    "z_grid": (lambda text: tuple(complex(z) for z in text.split(";") if z),
               lambda zs: ";".join(map(str, zs))),
}
# The keys that choose what a run's spectra are scored against.
_TARGET_KEYS = ("target", "law_a", "law_nu", "epsilon", "z_grid")


def parse_config(text: str, overrides: dict[str, str] | None = None
                 ) -> ExperimentConfig:
    """Parse flat key=value config text ('#' starts a comment). A key may
    appear once in the text; ``overrides`` replace keys from it."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"config line {lineno}: expected key=value, "
                             f"got {line!r}")
        if key in raw:
            raise ValueError(f"config line {lineno}: key {key!r} is already set")
        raw[key] = val
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    kwargs: dict = {}
    gamma = raw.pop("gamma", "")  # derived; accepted as an echo of p/n
    for key, val in raw.items():
        if key not in CONFIG_SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        if val != "":
            kwargs[key] = CONFIG_SCHEMA[key][0](val)
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
    errors: list[TrialError]
    timings: dict[str, float]


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
    from derive_seed(config.seed, tag, t), with tag TAG_TRIAL for the first
    family and TAG_TRIAL_B for the second. S is freed before the yield and G
    on resume, so a caller that builds A over G and drops G holds A alone.
    ``clock`` laps "sample" after each draw."""
    clock = clock or _StageClock(("sample",))
    for t in range(config.trials):
        for fam, tag in zip(families, (TAG_TRIAL, TAG_TRIAL_B)):
            seed = derive_seed(config.seed, tag, t)
            S = sample_matrix(VectorEnsemble(fam, config.p), config.n, seed)
            clock.lap("sample")
            G = gram(S)
            del S
            yield t, fam, G
            del G


def run_universality(config: ExperimentConfig) -> ExperimentResult:
    """Build per-trial kernel matrices, pool ESDs, compare to the target law.

    Writes nothing. The target law is built first; one that cannot be built
    raises before any trial: ValueError (or DerivativeError) for no finite
    affine MP law, SolverError for an unsolved grid. A module error inside
    one trial is recorded in ``errors`` and the run continues. ``timings``
    holds ``total`` and the seconds of the stages law and, summed over
    trials, sample, gram, build, eigenvalues, distances (and pooling).
    """
    t0 = time.perf_counter()
    clock = _StageClock(("law", "sample", "gram", "build", "eigenvalues",
                         "distances"))
    spec = config.kernel_spec()
    law = None
    if config.target == AFFINE_MP:
        law = predicted_law(spec, config.gamma)
    elif config.target == FUNCTIONAL_EQUATION:
        law = solve_grid(config.law_a, config.law_nu, config.gamma,
                         epsilon=config.epsilon)
    clock.lap("law")
    families = [f for f in (config.ensemble, config.ensemble_b) if f]

    samples: dict[str, dict[int, ESD]] = {f: {} for f in families}
    errors: list[TrialError] = []
    for t, fam, G in trial_grams(config, families, clock):
        clock.lap("gram")
        stage = "build"
        try:
            A = build(spec, G, config.p)
            clock.lap(stage)
            stage = "eigenvalues"
            samples[fam][t] = eigenvalues(A)
            del A, G
        except (KernelSpectraError, ValueError) as exc:
            errors.append(TrialError(trial=t, ensemble=fam, stage=stage,
                                     message=str(exc)))
        clock.lap(stage)

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
    if len(families) == 2 and all(samples[f] for f in families):
        fam_a, fam_b = families
        by_a, by_b = samples[fam_a], samples[fam_b]
        # Pair only the trials that succeeded in both families.
        distances += [_distance_record("cross", t, e, by_b[t], z_grid)
                      for t, e in by_a.items() if t in by_b]
        distances.append(_distance_record("cross", -1, pooled[fam_a],
                                          pooled[fam_b], z_grid))

    clock.lap("distances")
    timings = {**clock.seconds, "total": time.perf_counter() - t0}
    return ExperimentResult(
        config=config, samples=samples, pooled=pooled, law=law,
        distances=distances, errors=errors, timings=timings)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def esd_meta(config: ExperimentConfig) -> list[tuple[str, str]]:
    """The .meta pairs of a run's spectra file: the keys they depend on."""
    return [*((k, v) for k, v in config.items() if k not in _TARGET_KEYS),
            ("schema", "trial,lambda"), ("spec", config.kernel_spec().label())]


def write_result(result: ExperimentResult, out_dir: str | Path) -> None:
    """Write config.resolved, esd.csv, law.csv when there is a law and
    distances.csv with their .meta sidecars, and errors.csv if a trial failed,
    after removing any law.csv, law.csv.meta and errors.csv already there."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("law.csv", "law.csv.meta", "errors.csv"):
        (out_dir / name).unlink(missing_ok=True)
    config = result.config
    (out_dir / "config.resolved").write_text(config_text(config))

    def label(fam: str, trial: int | str) -> str:
        return f"{trial}" if fam == config.ensemble else f"{fam}:{trial}"

    save_esd(out_dir / "esd.csv",
             {label(fam, t): e for fam, per_trial in result.samples.items()
              for t, e in per_trial.items()}, esd_meta(config))
    if result.law is not None:
        save_limit_law(out_dir / "law.csv", result.law)

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


# ---------------------------------------------------------------------------
# L2 perturbation experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationReport:
    """Empirical version of the L2 perturbation bound.

    epsilon_hat estimates the hypothesis scale via
    epsilon^2 = p * E|f1(g) - f2(g)|^2 over the trials' off-diagonal pairs;
    delta_m lists |m_A1(z) - m_A2(z)| for coupled per-trial matrix pairs.
    """

    epsilon_hat: float
    z: complex
    delta_m: tuple[float, ...]
    ratio: float  # mean |delta m| / epsilon_hat (inf when epsilon_hat = 0)


def run_l2_perturbation(config: ExperimentConfig, f1: Envelope, f2: Envelope,
                        z: complex = 1j) -> PerturbationReport:
    """Measure |m_A1 - m_A2| for envelopes f1, f2 on coupled samples. Entry
    (i, j != i) of A1 - A2 is f1(g) - f2(g) at the kernel value g of the
    independent pair (X_i, X_j), so those entries give epsilon_hat."""
    if np.imag(z) <= 0:
        raise ValueError(f"need Im z > 0, got z={z}")
    if config.n < 2:
        raise ValueError(f"epsilon_hat needs n >= 2, got n={config.n}")
    spec1 = KernelSpec(config.kernel, config.diag, f1)
    spec2 = KernelSpec(config.kernel, config.diag, f2)
    sq_sum = 0.0
    deltas = []
    for _, _, G in trial_grams(config, (config.ensemble,)):
        A1 = build(spec1, G.copy(), config.p)
        m1 = empirical_stieltjes(eigenvalues(A1), z)
        A2 = build(spec2, G, config.p)
        A1 -= A2
        np.fill_diagonal(A1, 0.0)
        sq_sum += float(np.vdot(A1, A1))
        del A1
        deltas.append(abs(m1 - empirical_stieltjes(eigenvalues(A2), z)))
        del A2, G  # so A2 is freed before the next draw
    eps_hat = float(np.sqrt(config.p * sq_sum
                            / (config.trials * config.n * (config.n - 1))))
    mean_delta = float(np.mean(deltas))
    ratio = mean_delta / eps_hat if eps_hat > 0 else (
        0.0 if mean_delta == 0 else float("inf"))
    return PerturbationReport(epsilon_hat=eps_hat, z=z,
                              delta_m=tuple(deltas), ratio=ratio)
