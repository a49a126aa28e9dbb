from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    assert "pv.is_concrete_cover" in block.group(1) and "pv.build_meeting_graph" in block.group(1)
    exec(compile(block.group(1), f"{README}:## Library", "exec"), {})
