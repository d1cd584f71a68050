"""Every command line of README's "Command line" block parses.

The block documents each subcommand by example; a flag renamed or dropped
from the CLI would leave it stale. Each ``kernelspectra ...`` line, with
its backslash continuations joined, is parsed with the current parser, as
``test_bench_workloads`` parses the benchmark's calls; nothing is run.
"""

import shlex
from pathlib import Path

from kernelspectra.cli import _COMMANDS, _build_parser

_README = Path(__file__).parents[1] / "README.md"


def _command_lines() -> list[str]:
    section = _README.read_text().split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]  # the text inside each fence
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("kernelspectra ")]


def test_every_readme_command_line_parses():
    parser = _build_parser()
    commands = set()
    for line in _command_lines():
        argv = shlex.split(line)[1:]
        commands.add(parser.parse_args(argv).command)
    assert commands == set(_COMMANDS)
