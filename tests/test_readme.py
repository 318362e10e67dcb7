"""The README's `eqforge` commands and Python examples run as documented."""

import re
import shlex
from pathlib import Path

from eqforge.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def readme_commands():
    """Arguments of every `eqforge` line in the README's sh blocks, continuations joined."""
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["eqforge"]:
                yield argv[1:]


def test_readme_commands_exit_0(tmp_path, monkeypatch):
    commands = list(readme_commands())
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, shlex.join(["eqforge", *argv])


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = readme_blocks("python")
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
