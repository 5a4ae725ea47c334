"""The README's Python snippets run against the current API.

Each ```python block is executed on its own; a ``print`` line that ends
in a ``# ...`` comment must print exactly that comment.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_both_library_snippets():
    assert len(BLOCKS) == 2
    assert "pbw_verdict" in BLOCKS[0] and "wedge_agreement" in BLOCKS[1]


def test_readme_snippets_print_what_they_promise():
    for block in BLOCKS:
        expected = [
            line.split("#", 1)[1].strip()
            for line in block.splitlines()
            if line.startswith("print(") and "#" in line
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
