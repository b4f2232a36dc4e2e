"""The README's code examples run against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(section: str) -> list:
    """The ```python blocks under the README heading ``## <section>``."""
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", body, flags=re.S)


def test_library_use_example_runs():
    blocks = python_blocks("Library use")
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    pe_raw, pe_pp = map(float, out.getvalue().split())
    assert 0.0 <= pe_raw <= 1.0 and 0.0 <= pe_pp <= 1.0
