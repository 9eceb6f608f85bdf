"""README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs():
    text = README.read_text()
    quick_start = text[text.index("## Quick start") :]
    block = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
