"""README's examples parse: its command lines and its example config.

The "Command line" block documents each subcommand by example; a flag
renamed or dropped from the CLI would leave it stale. Each
``kernelspectra ...`` line, with its backslash continuations joined, is
parsed with the current parser, as ``test_bench_workloads`` parses the
benchmark's calls. The "Config files" block is parsed as a config, which
a key renamed or a value refused would break. Nothing is run.
"""

import shlex
from pathlib import Path

from kernelspectra.cli import _COMMANDS, _build_parser
from kernelspectra.experiments import config_text, parse_config

_README = Path(__file__).parents[1] / "README.md"


def _fenced(heading: str) -> list[str]:
    """The text inside each fence of README's section ``heading``."""
    section = _README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("\n## ", 1)[0].split("```")[1::2]


def _command_lines() -> list[str]:
    lines = "".join(_fenced("Command line")).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("kernelspectra ")]


def test_every_readme_command_line_parses():
    parser = _build_parser()
    commands = set()
    for line in _command_lines():
        argv = shlex.split(line)[1:]
        commands.add(parser.parse_args(argv).command)
    assert commands == set(_COMMANDS)


def test_readme_config_parses_and_reloads():
    [block] = _fenced("Config files")
    config = parse_config(block)
    assert parse_config(config_text(config)) == config
