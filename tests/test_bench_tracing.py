"""The traced benchmark run reads some call arguments by name.

``bench/tracing.py``'s ``WORK`` counts each measured function's work from
its bound arguments (``gram``'s ``S.p`` and ``S.n``, ``sample_matrix``'s
``n``, ``envelope_coeffs``'s ``samples``); a renamed parameter makes every
traced pass raise. This runs a small ``compare`` and ``expand`` under the
tracer, as ``bench/run.py`` does, and checks which span holds the writer.
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


def test_traced_compare_times_the_writer_under_the_cli(tmp_path):
    # experiments.write_result.self_s times the writer only while compare
    # calls write_result itself, after run_universality has returned
    tracer = _load_tracing().Tracer()
    argv = ["compare", "--set", "p=20", "--set", "n=30", "--out",
            str(tmp_path / "compare")]
    with tracer.active(), contextlib.redirect_stdout(io.StringIO()):
        assert kernelspectra.cli.cli_main(argv) == 0
    names = [span[0] for span in tracer.spans]
    parents = [names[span[3]] for span in tracer.spans
               if span[0] == "experiments.write_result"]
    assert parents == ["cli.cli_main"]
    assert "experiments.run_universality" in names
