"""README's library quick start runs, and each print shows what its comment says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block of the "Library quick start" section."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_match_comments():
    code = quick_start()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    expected = [line.split("#", 1)[1].strip() for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    assert out.getvalue().splitlines() == expected
