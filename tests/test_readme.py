"""The README's `## Library use` example runs as written, so it cannot
import a name the package no longer exports or call a moved function, and
its CLI examples parse, so they cannot use a flag the CLI no longer has."""

import re
import shlex
from pathlib import Path

import pytest

from fakeseg.harness.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The one python block of the README's `## Library use` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return code


def test_the_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0.0 <= float(printed[0]) <= 1.0


def cli_examples() -> list[list[str]]:
    """Every `fakeseg …` command of the README's bash blocks, with its
    `\\` continuations joined, as an argument list."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("fakeseg ")]


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: argv[1])
def test_the_cli_examples_parse(argv):
    build_parser().parse_args(argv[1:])
