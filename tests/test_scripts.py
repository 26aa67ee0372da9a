"""The scripts: benchmark_large_n.py checks that the two counting paths agree,
sweep_counts.py prints the subgroup and fuzzy-subgroup count table.  Also
the u6n names the benchmark under perfbench/ imports."""

import ast
import importlib
import importlib.util
import json
import re
import resource
import sys
from pathlib import Path

import pytest

from u6n import ChainCounts, GroupParams, build_lattice, export_dot, export_json
from u6n.oracle import transitive_reduction

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def _load_script(name="benchmark_large_n"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_large_n_agrees(monkeypatch, capsys):
    script = _load_script()
    # 2n = 144 = 2^4 * 3^2 has no prime above 3: the lattice is all core
    argv = ["benchmark_large_n.py", "--n", "12", "35", "72"]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 0
    out = capsys.readouterr().out
    assert out.count("paths agree") == 6
    assert out.count("factorize ") == 6
    assert out.count("hasse_edges ") == 6
    assert out.count("export ") == 6
    assert len(re.findall(r", dot \d+\.\d{3}s \(\d+ bytes\), dp ", out)) == 6
    # ru_maxrss is in KiB on Linux; the peak so far, read after each DP
    peak_re = r", dp \d+\.\d{3}s, peak RSS (\d+\.\d) MB; "
    peaks = [float(mb) for mb in re.findall(peak_re, out)]
    assert len(peaks) == 6 and peaks == sorted(peaks)
    peak_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    assert 0 < peaks[-1] <= peak_mb
    for mode in ("all", "normal"):
        lat = build_lattice(GroupParams(12), mode)
        text = json.dumps(export_json(lat), indent=2)
        line = next(x for x in out.splitlines() if x.startswith(f"n=12 mode={mode}:"))
        assert f"({len(text) + 1} bytes), dot " in line  # the newline print adds
        assert f"s ({len(export_dot(lat))} bytes), dp " in line
    for n in (35, 72):
        covers = len(transitive_reduction(build_lattice(GroupParams(n), "all")))
        line = next(x for x in out.splitlines() if x.startswith(f"n={n} mode=all:"))
        assert "hasse_edges " in line and f"({covers} covers)" in line


def test_benchmark_large_n_default_ladder(monkeypatch, capsys):
    script = _load_script()
    monkeypatch.setattr(sys, "argv", ["benchmark_large_n.py"])
    assert script.main() == 0
    out = capsys.readouterr().out
    assert out.count("paths agree") == 2 * len(script.LADDER)
    assert f"n={2**61 - 1} mode=all" in out


def test_benchmark_large_n_exits_1_on_mismatch(monkeypatch, capsys):
    script = _load_script()
    wrong = ChainCounts(n=35, mode="all", per_length=(1, 2))
    monkeypatch.setattr(script, "count_chains", lambda params, mode: wrong)
    monkeypatch.setattr(sys, "argv", ["benchmark_large_n.py", "--n", "35"])
    assert script.main() == 1
    assert "PATHS DIFFER" in capsys.readouterr().out


def test_sweep_counts_table(monkeypatch, capsys):
    script = _load_script("sweep_counts")
    monkeypatch.setattr(sys, "argv", ["sweep_counts.py", "--n-max", "4"])
    script.main()
    assert capsys.readouterr().out == (
        "n  order  subgroups  normal  N_F  N_NF\n"
        "1      6          6       3   10     4\n"
        "2     12          8       5   24    12\n"
        "3     18         14       6   54    16\n"
        "4     24         10       7   56    32\n"
    )


@pytest.mark.parametrize("argv", [
    ["sweep_counts", "--n-max", "0"],
    ["sweep_counts", "--n-max", "-1"],
    ["benchmark_large_n", "--n", "0"],
    ["benchmark_large_n", "--n", "12", "-5"],
])
def test_scripts_read_integers_with_the_cli_grammar(monkeypatch, capsys, argv):
    # the scripts' integer options use u6n's one integer type: a bad value
    # is argparse's exit 2 and one-line message, not a traceback from main
    script = _load_script(argv[0])
    monkeypatch.setattr(sys, "argv", [f"{argv[0]}.py", *argv[1:]])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[1]}: " in err.splitlines()[-1]


def test_every_u6n_name_the_benchmark_imports_resolves():
    # the benchmark imports some names only inside functions, where a
    # deleted name fails only when that function runs
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                if module == "u6n" or module.startswith("u6n."):
                    found.update((path.name, module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                found.update((path.name, a.name, None) for a in node.names
                             if a.name == "u6n" or a.name.startswith("u6n."))
    assert "reference.py" in {where for where, _, _ in found}
    for where, module, name in found:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), (where, module, name)
