"""The README's library example runs and prints what its comments claim."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    # each top-level `print(...)  # value` comment names the line it prints
    claimed = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.M)
    assert claimed
    assert out.getvalue().splitlines()[-len(claimed):] == claimed
