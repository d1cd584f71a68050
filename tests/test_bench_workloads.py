"""Every CLI call the benchmark makes parses with the current parser.

``bench/workloads.py`` builds the argument lists of each workload's pass;
a flag dropped from the CLI, or a config rule that refuses a ``compare``
call's keys, would make the benchmark fail at run time. This loads the
module by path, parses each list and builds each ``compare`` call's config
as ``compare`` does; nothing is run.
"""

import importlib.util
from pathlib import Path

import pytest

from kernelspectra.cli import _build_parser, _compare_config

_WORKLOADS = Path(__file__).parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _load_workloads()


@pytest.mark.parametrize("name", _MODULE.WORKLOADS)
def test_every_benchmark_operation_parses(name, tmp_path):
    parser = _build_parser()
    operations = _MODULE.operations(name, 1, tmp_path)
    assert operations
    for argv in operations:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
        if args.command == "compare":
            _compare_config(args)  # raises on a config the run would refuse
