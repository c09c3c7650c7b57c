"""The README's examples run as written: each line the library example
prints is the comment on its ``print`` call, and each ``router-sim``
command of the CLI section exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from router_sim import cli

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(language):
    """The code blocks of the README fenced as ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


COMMANDS = [line for block in blocks("bash") for line in block.splitlines()
            if line.startswith("router-sim ")]


def test_library_example_prints_what_its_comments_say():
    (code,) = blocks("python")
    expected = [line.split("# ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_example_exits_0(command, monkeypatch):
    monkeypatch.chdir(ROOT)  # the commands name circuit files from here
    assert cli.main(shlex.split(command)[1:], stream=io.StringIO()) == 0
