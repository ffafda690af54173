"""The README's Python examples and command-line examples run as written."""

import re
from pathlib import Path

import pytest

from micropull.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines() -> list[list[str]]:
    """The arguments of each ``micropull`` line of the Command line section's
    sh block, with its comment stripped."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    return [line.split("#", 1)[0].split()[1:]
            for line in block.splitlines() if line.startswith("micropull ")]


def test_python_blocks_run_in_order():
    # the quick example defines ``spec``, which the loads example uses
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_command_lines_listed():
    assert [argv[0] for argv in _command_lines()] == [
        "catalog", "ratios", "analytic", "sweep", "pullin", "band",
    ]


@pytest.mark.parametrize("argv", _command_lines(), ids=lambda argv: argv[0])
def test_command_line_runs(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out.strip()
