"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from seaqm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, language: str) -> str:
    text = README.read_text().split(f"## {section}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def _command_lines() -> list[str]:
    """The `seaqm` lines of the Command line block, continuations joined."""
    joined = _block("Command line", "bash").replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if "seaqm " in line.split("#", 1)[0]]


def test_readme_library_block_runs():
    namespace = {}
    exec(compile(_block("Library", "python"), "README.md (Library)", "exec"), namespace)
    assert namespace["N"] > 0.0


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _command_lines()
    assert len(lines) == 10
    for line in lines:
        words = shlex.split(line, comments=True)
        while "=" in words[0]:
            name, _, value = words.pop(0).partition("=")
            monkeypatch.setenv(name, value)
        assert words[0] == "seaqm"
        code = main(words[1:])
        err = capsys.readouterr().err
        if "--lambda 0.3" in line:
            # the documented breakdown example: the K = 10 exponent turns
            # around before the density decays, near lambda_c(2,1) ~ 0.377
            assert code == 3, line
            assert err.startswith("computation failed: integrand stops decaying at x = 23")
            assert "breaks down before the state decays" in err
        else:
            assert code == 0, f"{line}\n{err}"
