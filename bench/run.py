#!/usr/bin/env python3
"""kernelspectra benchmark: end-to-end and per-layer metrics of the CLI paths.

Run from the repository root:

    python3 bench/run.py                      # every workload, untraced and traced
    python3 bench/run.py --workload affine-inner-2400 --seed 1 --seconds 30 --trace 0

One workload run times passes in its own process until they add up to
``--seconds`` seconds, and checks every pass's outputs (untimed).
``--trace 0`` reports the end-to-end metrics (run_s, setup_s,
peak_rss_mb); ``--trace 1`` reports the per-layer metrics from a traced
run. The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics; a results file with the
environment goes to bench/results/. BLAS threads are capped at nproc.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUP_PROBES = 10      # fresh processes timed for setup_s; the median is reported
MIN_TIMED_PASSES = 3   # per kind of pass, however short --seconds is
CHILD_TIMEOUT_S = 170

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Function-level metrics of the traced run: (layer.function, field, unit).
# self_s is the function's time minus the time of wrapped calls inside it.
FUNCTION_METRICS = (
    ("ensembles.sample_matrix", "self_s", "s"),
    ("ensembles.sample_matrix", "columns_per_s", "1/s"),
    ("ensembles.concentration_diagnostic", "self_s", "s"),
    ("kernels.gram", "self_s", "s"),
    ("kernels.gram", "gflop_per_s", "GFLOP/s"),
    ("kernels.build", "self_s", "s"),
    ("kernels.squared_distances", "self_s", "s"),
    ("spectral.eigenvalues", "self_s", "s"),
    ("spectral.ks_distance", "self_s", "s"),
    ("spectral.empirical_stieltjes", "calls", "count"),
    ("limit_solver.solve_grid", "self_s", "s"),
    ("limit_solver.solve_point", "self_s", "s"),
    ("limit_solver.solve_point", "calls", "count"),
    ("orthopoly.envelope_coeffs", "self_s", "s"),
    ("orthopoly.envelope_coeffs", "samples_per_s", "1/s"),
    ("experiments.write_result", "self_s", "s"),
    ("experiments.run_universality", "self_s", "s"),
    ("cli.cli_main", "self_s", "s"),
)
# Work counter (tracing.WORK) behind each rate metric and its scale.
RATES = {"columns_per_s": 1.0, "gflop_per_s": 1e-9, "samples_per_s": 1.0}


def per_layer_units() -> dict[str, str]:
    from tracing import LAYERS

    units = {f"{fn}.{field}": unit for fn, field, unit in FUNCTION_METRICS}
    units["experiments.bytes_written"] = "B"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.pass_s": "s", "trace.overhead_s": "s",
                  "trace.accounted_share": "ratio", "trace.spans": "count"})
    return units


def blas_cap() -> dict[str, str]:
    n = str(len(os.sched_getaffinity(0)))
    return {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n, "MKL_NUM_THREADS": n}


def child_env() -> dict[str, str]:
    return {**os.environ, **blas_cap(), "PYTHONPATH": str(SRC)}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def run_pass(ops: list[list[str]], out: Path) -> tuple[float, list[str], int]:
    """One pass: every CLI call in order. Returns (wall s, stdouts, failures)."""
    import kernelspectra.cli

    fresh_dir(out)
    stdouts, failed = [], 0
    t0 = time.perf_counter()
    for argv in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            # looked up per call, so the traced run's wrapper is the one used
            code = kernelspectra.cli.cli_main(argv)
        stdouts.append(buf.getvalue())
        failed += code != 0
    return time.perf_counter() - t0, stdouts, failed


def csv_hashes(out: Path) -> dict[str, str]:
    return {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*.csv"))}


def bytes_written(out: Path) -> int:
    return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


class Session:
    """Passes of one workload in this process, each checked on completion."""

    def __init__(self, workload: str, seed: int) -> None:
        import workloads

        self.workload, self.seed = workload, seed
        self.out = WORK / workload
        self.ops = workloads.operations(workload, seed, self.out.relative_to(ROOT))
        self.compare_dir = self.out / workloads.COMPARE_DIR
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.check_values: dict[str, float] = {}
        self.hashes: dict[str, str] | None = None
        self.compare_bytes: list[int] = []
        self.peak_rss_mb: float | None = None
        self.walls: list[float] = []
        self.check_walls: list[float] = []

    def run(self, tracer=None) -> float:
        """One pass, then its checks; only the pass runs under ``tracer``."""
        with tracer.active() if tracer else contextlib.nullcontext():
            wall, stdouts, failed = run_pass(self.ops, self.out)
        self.walls.append(wall)
        if self.peak_rss_mb is None:  # the first pass, before any check runs
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import checks  # scipy and the references load after the first pass

        self.attempted += len(self.ops)
        self.failed += failed
        self.compare_bytes.append(bytes_written(self.compare_dir))
        hashes = csv_hashes(self.out)
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            self.fail("written CSVs differ between passes of the same seed")
        if not failed:
            t0 = time.perf_counter()
            try:
                result = checks.CHECKS[self.workload](self.seed, self.out, stdouts)
            except Exception:  # an output the check cannot read is a failure
                self.fail("check raised:\n" + traceback.format_exc())
            else:
                self.check_values = result.values
                for msg in result.failures:
                    self.fail(msg)
            self.check_walls.append(time.perf_counter() - t0)
        return wall

    def fail(self, msg: str) -> None:
        if msg not in self.failures:
            self.failures.append(msg)


def time_setup(s: Session) -> float:
    """Wall time of a fresh process importing kernelspectra and preparing inputs."""
    t0 = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), s.workload, str(s.seed),
         str(s.out.relative_to(ROOT))], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if probe.returncode != 0:
        s.fail(f"setup probe failed: {probe.stderr.strip()[-400:]}")
    return wall


def check_replay(s: Session) -> None:
    """A fresh process repeating one pass must write byte-identical CSVs."""
    replay = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--replay", "--workload",
         s.workload, "--seed", str(s.seed)], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if replay.returncode != 0:
        s.fail(f"replay process failed: {replay.stderr.strip()[-400:]}")
    elif json.loads(replay.stdout.splitlines()[-1]) != s.hashes:
        s.fail("written CSVs differ between processes for the same seed")


def measure_untraced(s: Session, seconds: float) -> dict[str, float]:
    s.run()  # untimed: imports settle and caches fill
    # Set-up probes run between passes, spread evenly over the measured
    # time, so a slow spell of the machine moves few of them.
    walls, setups = [], []
    while len(walls) < MIN_TIMED_PASSES or sum(walls) < seconds:
        walls.append(s.run())
        if sum(walls) >= len(setups) * seconds / SETUP_PROBES:
            setups.append(time_setup(s))
    while len(setups) < SETUP_PROBES:
        setups.append(time_setup(s))
    return {"run_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": s.peak_rss_mb}


def layer_sample(tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass that took ``wall`` seconds."""
    from tracing import LAYERS

    per_fn = tracer.self_times()
    sample = {}
    for fn, field, _ in FUNCTION_METRICS:
        self_s, calls = per_fn.get(fn, (0.0, 0))
        if field == "self_s":
            sample[f"{fn}.{field}"] = self_s
        elif field == "calls":
            sample[f"{fn}.{field}"] = calls
        else:
            work = tracer.work.get(fn, 0.0) * RATES[field]
            sample[f"{fn}.{field}"] = work / self_s if self_s > 0 else 0.0
    for layer in LAYERS:
        sample[f"{layer}.self_s"] = sum(t for fn, (t, _) in per_fn.items()
                                        if fn.split(".")[0] == layer)
    sample["trace.accounted_share"] = sum(t for t, _ in per_fn.values()) / wall
    sample["trace.spans"] = len(tracer.spans)
    return sample


def measure_traced(s: Session, seconds: float) -> tuple[dict[str, float], list[str]]:
    from tracing import Tracer

    tracer = Tracer()
    missing = sorted({fn for fn, _, _ in FUNCTION_METRICS} - tracer.functions)
    s.run()
    plain, traced, samples = [], [], []
    while len(traced) < MIN_TIMED_PASSES or sum(plain) + sum(traced) < seconds:
        plain.append(s.run())
        traced.append(s.run(tracer))
        samples.append(layer_sample(tracer, traced[-1]))

    check_replay(s)
    metrics = {key: statistics.median(x[key] for x in samples) for key in samples[0]}
    metrics["experiments.bytes_written"] = statistics.median(s.compare_bytes)
    metrics["trace.pass_s"] = statistics.median(traced)
    # Each traced pass follows an untraced one; pairing them cancels most
    # of the machine's slow drift.
    metrics["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(traced, plain))
    return metrics, missing


# ---------------------------------------------------------------------------
# Environment and reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "blas": blas.get("name"),
           "blas_version": blas.get("version"),
           "blas_config": blas.get("openblas configuration"),
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
           "nproc": len(os.sched_getaffinity(0)), "cpu": None, "ram_mb": None,
           "commit": "unavailable: not a git checkout"}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                env["ram_mb"] = int(line.split()[1]) // 1024
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                                   cwd=ROOT, capture_output=True, text=True,
                                   timeout=10)
            env["commit"] = head.stdout.strip() + ("+dirty-src" if dirty.stdout.strip() else "")
    return env


def run_workload(args) -> int:
    s = Session(args.workload, args.seed)
    if args.trace:
        metrics, missing = measure_traced(s, args.seconds)
        units = per_layer_units()
    else:
        metrics, missing = measure_untraced(s, args.seconds), []
        units = END_TO_END
    shutil.rmtree(s.out, ignore_errors=True)

    correct = not s.failures
    result = {"correct": correct, "attempted": s.attempted, "failed": s.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"workload": s.workload, "seed": s.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "check_failures": s.failures, "checks": s.check_values,
              "csv_sha256": s.hashes, "missing": missing,
              "pass_walls_s": s.walls, "check_walls_s": s.check_walls, **result}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{s.workload}-seed{s.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{s.workload} seed={s.seed} trace={args.trace}: "
          f"{s.attempted} operations, {s.failed} failed; results in "
          f"{path.relative_to(ROOT)}")
    for name, unit in units.items():
        flag = "  MISSING" if name.rsplit(".", 1)[0] in missing else ""
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}{flag}")
    for msg in s.failures:
        print(f"  CHECK FAILED: {msg}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_replay(args) -> int:
    """One pass in a fresh process; prints the written CSVs' hashes."""
    import workloads

    out = WORK / args.workload
    ops = workloads.operations(args.workload, args.seed, out.relative_to(ROOT))
    _, _, failed = run_pass(ops, out)
    if failed:
        return 1
    print(json.dumps(csv_hashes(out)))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, env=child_env(),
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            # exit code 0 means every check passed and the JSON line was printed
            ok &= (proc.returncode == 0
                   and json.loads(proc.stdout.splitlines()[-1])["failed"] == 0)
    print("all checks passed" if ok else "FAILED: see the lines above")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "kernelspectra" / "__init__.py").is_file():
        print(f"bench: no kernelspectra sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(blas_cap())  # before numpy is imported
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.workload is None:
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    return run_replay(args) if args.replay else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
