"""The README's command-line examples run as written."""

import io
import re
import shlex
from pathlib import Path

import pytest

from baryiter import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    """(argv after ``baryiter``, the output a ``# prints`` comment promises, or None)."""
    text = README.read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        prints = re.fullmatch(r"\s*prints (\S+)\s*", comment)
        commands.append((shlex.split(command)[1:], prints.group(1) if prints else None))
    return commands


COMMANDS = readme_commands()


def test_the_readme_block_is_found():
    assert len(COMMANDS) == 7
    assert sum(prints is not None for _, prints in COMMANDS) == 2


@pytest.mark.parametrize("argv, prints", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_each_readme_command_exits_0(argv, prints):
    out = io.StringIO()
    assert cli.main(argv, out=out) == cli.EXIT_OK
    if prints is not None:
        assert out.getvalue() == prints + "\n"
