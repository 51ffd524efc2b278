"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)
    assert code is not None, "no python block under 'Library quick start'"
    exec(compile(code.group(1), f"{README}:Library quick start", "exec"), {})
