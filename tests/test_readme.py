"""The README's examples run as written: each line the library example
prints is the comment on its ``print`` call, and each ``router-sim``
command of the CLI section exits 0.  Its scenario table says what the
registry holds."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from router_sim import cli, scenarios

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


def scenario_table():
    """The rows of the README's scenario table, as lists of cells."""
    header = "| scenario | coefficients | `--perturb` | sweep |"
    lines = README.split(header + "\n", 1)[1].splitlines()[1:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        # A cell may hold an escaped "\|".
        rows.append([c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def coefficient_count(cell):
    """How many coefficients a table cell says a run takes: "—" none, a
    count in parentheses, or the comma-separated ``--alphas`` example."""
    if cell == "—":
        return 0
    if count := re.search(r"\((\d+)\)", cell):
        return int(count[1])
    return len(re.search(r"`--alphas ([^`]+)`", cell)[1].split(","))


def test_scenario_table_is_the_registry():
    rows = scenario_table()
    assert [row[0] for row in rows] == [f"`{name}`"
                                        for name in scenarios.SCENARIOS]
    for (_, coefficients, perturb, sweep), entry in zip(
            rows, scenarios.SCENARIOS.values(), strict=True):
        assert coefficient_count(coefficients) == entry.arity
        names = () if perturb == "—" else re.findall(r"`([^`]+)`", perturb)
        assert tuple(names) == entry.perturbations
        assert sweep == ("yes" if entry.sweep is not None else "no")
