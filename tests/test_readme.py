"""The README's sample panels and library snippet match what the code does."""

import re
import shlex
from pathlib import Path

import pytest

from liecontract.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def shell_block(command: str) -> str:
    """Body of the fenced block that opens with `$ liecontract <command>`."""
    for _, body in FENCED.findall(README):
        if body.startswith(f"$ liecontract {command}\n"):
            return body
    raise LookupError(f"README has no block for `liecontract {command}`")


@pytest.mark.parametrize("command", ["invariants --family gmq --m 4 --q 4", "check --m 4 --q 4"])
def test_readme_panel_is_the_real_output(capsys, command):
    expected = shell_block(command).split("\n", 1)[1]
    assert run(shlex.split(command)) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_readme_library_snippet_runs():
    section = README.split("## Library surface", 1)[1]
    language, snippet = FENCED.search(section).groups()
    assert language == "python"
    exec(compile(snippet, "README.md", "exec"), {})
