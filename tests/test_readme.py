from __future__ import annotations

import re
from pathlib import Path

from helpers import cli_runner

README = Path(__file__).resolve().parents[1] / "README.md"


def block(heading, language):
    """The first `language` code block after README's `## heading`."""
    text = README.read_text(encoding="utf-8")
    found = re.search(rf"```{language}\n(.*?)```", text[text.index(f"\n## {heading}\n"):], re.S)
    assert found is not None
    return found.group(1)


def test_the_library_example_runs():
    code = block("Library", "python")
    assert "pv.is_concrete_cover" in code and "pv.build_meeting_graph" in code
    exec(compile(code, f"{README}:## Library", "exec"), {})


def test_the_command_line_example_runs(tmp_path, monkeypatch, capsys):
    commands = [line.split()[1:] for line in block("Command line", "sh").splitlines() if line.startswith("pvg ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)  # the commands share one directory, in order
    pvg = cli_runner(capsys)
    for argv in commands:
        code, _, err = pvg(argv)
        assert code == 0, (argv, err)
