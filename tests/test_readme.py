"""The README's library example runs and prints what its comments claim."""

import contextlib
import io
import re
import shlex
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


# pinned byte for byte, with its ~2 s budget, by
# test_cli.py::test_unfactorable_n_exits_1_within_5_s
BUDGET_EXAMPLE = "count --n 1000000000000128000000000003367"


def _transcripts():
    """(argv text, shown lines) for each `$ u6n ...` line of the README's
    shell transcripts: the lines after it up to the next `$` line."""
    runs = []
    for block in re.findall(r"```\n(\$ u6n .*?)```", README.read_text(), re.S):
        for command in re.split(r"^\$ u6n ", block, flags=re.M)[1:]:
            argv, *shown = command.splitlines()
            runs.append((argv, shown))
    return runs


def _fits(shown, got):
    """got reads as shown, where a `...` line stands for any run of lines."""
    if not shown:
        return not got
    if shown[0] == "...":
        return any(_fits(shown[1:], got[k:]) for k in range(len(got) + 1))
    return bool(got) and got[0] == shown[0] and _fits(shown[1:], got[1:])


def test_every_readme_transcript_replays(monkeypatch, tmp_path, capsys):
    from u6n.cli import main

    runs = _transcripts()
    assert BUDGET_EXAMPLE in [argv for argv, _ in runs]
    runs = [(argv, shown) for argv, shown in runs if argv != BUDGET_EXAMPLE]
    assert len(runs) == 11
    monkeypatch.chdir(tmp_path)  # for the files a command writes
    for argv, shown in runs:
        assert main(shlex.split(argv)) == 0, argv
        out, err = capsys.readouterr()
        if shown:
            assert _fits(shown, (out + err).splitlines()), argv
