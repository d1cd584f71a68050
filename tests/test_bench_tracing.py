"""The traced benchmark run reads some call arguments by name.

``bench/tracing.py``'s ``WORK`` counts each measured function's work from
its bound arguments (``gram``'s ``S.p`` and ``S.n``, ``sample_matrix``'s
``n``, ``envelope_coeffs``'s ``samples``); a renamed parameter makes every
traced pass raise. This runs a small ``compare`` and ``expand`` under the
tracer, as ``bench/run.py`` does.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import kernelspectra.cli

_TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_count_the_work_of_every_measured_function(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    assert set(tracing.WORK) <= tracer.functions
    ops = [["compare", "--set", "p=20", "--set", "n=30", "--set", "trials=2",
            "--out", str(tmp_path / "compare")],
           ["expand", "--envelope", "sign-scaled", "--p", "50",
            "--samples", "1000"]]
    with tracer.active(), contextlib.redirect_stdout(io.StringIO()):
        for argv in ops:
            # looked up per call, so the wrapper is the one used
            assert kernelspectra.cli.cli_main(argv) == 0
    assert all(tracer.work[name] > 0 for name in tracing.WORK)
