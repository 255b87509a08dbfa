"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, str(README), "exec"), {})
