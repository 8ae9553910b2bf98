"""README's library tour runs against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, f"{README.name} (library tour)", "exec"), {})
