"""Command-line behavior: outputs, formats, exit codes, import footprint."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import u6n
import u6n.cli
from u6n import (
    GroupParams,
    build_lattice,
    count_chains,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    export_dot,
    export_json,
    format_descriptor,
    subgroup_order,
)
from u6n.chains import MAX_HEIGHT, factorization_shape
from u6n.cli import CliError, _cmd_count, build_parser, main
from u6n.oracle import transitive_reduction
from u6n.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_same_text(got, want, what):
    """got == want, failing fast with the first differing offset and a
    little context around it: pytest's own diff of two megabyte strings
    runs for minutes."""
    if got == want:
        return
    i = next((k for k, (x, y) in enumerate(zip(got, want)) if x != y),
             min(len(got), len(want)))
    lo = max(0, i - 40)
    pytest.fail(
        f"{what} differs at offset {i} (lengths {len(got)}, {len(want)}):\n"
        f"  got  {got[lo:i + 40]!r}\n  want {want[lo:i + 40]!r}",
        pytrace=False,
    )


def test_count_examples(capsys):
    assert run_cli(capsys, "count", "--n", "1") == (0, "10\n", "")
    assert run_cli(capsys, "count", "--n", "1", "--mode", "normal") == (0, "4\n", "")
    assert run_cli(capsys, "count", "--n", "1", "--relation", "murali") == (
        0, "19\n", "",
    )


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 2, "mode": "all", "relation": "tarnauceanu", "count": "24"}


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["n", "mode", "relation", "count"], ["2", "all", "tarnauceanu", "24"]]


def test_chains_table(capsys):
    code, out, _ = run_cli(capsys, "chains", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "length  count"
    assert [line.split() for line in lines[1:4]] == [
        ["1", "1"], ["2", "6"], ["3", "5"],
    ]
    assert "counts are 0 for every length >= 4" in lines
    assert "fuzzy_count 24" in lines
    assert "mm_count 47" in lines


def test_chains_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "chains", "--n", "3", "--mode", "normal",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["mode"] == "normal"
    assert all(isinstance(c, str) for c in payload["per_length"])
    assert int(payload["fuzzy_count"]) == 2 * int(payload["total"])


def test_huge_prime_n_answers_like_n_5(capsys):
    # 2n = 2 * (2^61 - 1) has the shape of 2 * 5
    huge = "2305843009213693951"
    start = time.perf_counter()
    count = run_cli(capsys, "count", "--n", huge)
    chains = run_cli(capsys, "chains", "--n", huge, "--format", "json")
    assert time.perf_counter() - start < 2.0
    assert count == run_cli(capsys, "count", "--n", "5") == (0, "46\n", "")
    assert chains[0] == 0
    small = json.loads(run_cli(capsys, "chains", "--n", "5", "--format", "json")[1])
    assert json.loads(chains[1])["per_length"] == small["per_length"]


def test_unfactorable_n_exits_1_within_5_s():
    # 2n = 2 * 1000000000000037 * 1000000000000091 exhausts the rho budget
    n = "1000000000000128000000000003367"
    src = str(Path(u6n.__file__).resolve().parent.parent)
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "u6n.cli", "count", "--n", n],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert time.perf_counter() - start < 5.0
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        f"error: could not factor {n} within budget (4194304 Pollard rho steps)\n"
    )


def test_height_above_the_limit_exits_1_within_1_s(capsys):
    # 2n = 2^2000 * 3^2000: a lattice of height 4001
    n = str(2**1999 * 3**2000)
    src = str(Path(u6n.__file__).resolve().parent.parent)
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "u6n.cli", "count", "--n", n],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert time.perf_counter() - start < 1.0
    message = (f"error: lattice height 4001 is above {MAX_HEIGHT}, "
               "the largest the chain count answers\n")
    assert (result.returncode, result.stdout, result.stderr) == (1, "", message)
    assert run_cli(capsys, "chains", "--n", n) == (1, "", message)


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader takes one line and goes away, as `u6n batch ... | head -1`
    src = str(Path(u6n.__file__).resolve().parent.parent)
    with subprocess.Popen(
        [sys.executable, "-m", "u6n.cli", "batch", "--range", "1..20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        header = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert header == "n,mode,per_length,total,fuzzy_count,mm_count\n"
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_lattice_closed_stdout_exits_1_without_a_traceback():
    # the reader takes 100 bytes and goes away, as `u6n lattice ... | head -c 100`;
    # the 1.5 MB of JSON overflow the pipe, so a row write meets the closed pipe
    src = str(Path(u6n.__file__).resolve().parent.parent)
    with subprocess.Popen(
        [sys.executable, "-m", "u6n.cli", "lattice", "--n", "360360"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{\n  "n": 360360,\n  "mode": "all",')
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


@pytest.mark.parametrize(
    "mode, count",
    [("all", "73145193531541776343687462125568"),
     ("normal", "24785806623160992142445995098112")],
)
def test_core_heavy_count(capsys, mode, count):
    # n = 2^38 * 3^20: 2n has no prime above 3, a core lattice of 3281 nodes
    start = time.perf_counter()
    result = run_cli(capsys, "count", "--n", str(2**38 * 3**20), "--mode", mode)
    assert time.perf_counter() - start < 2.0
    assert result == (0, count + "\n", "")


def test_subgroups_table(capsys):
    code, out, _ = run_cli(capsys, "subgroups", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "6 subgroups"
    assert lines[0].split() == ["C(1)", "2"]


def test_subgroups_csv_quotes_commas(capsys):
    code, out, _ = run_cli(capsys, "subgroups", "--n", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["desc", "order"]
    assert ["T(1,1)", "2"] in rows


def test_normal_listing(capsys):
    code, out, _ = run_cli(capsys, "normal", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [s["desc"] for s in payload["subgroups"]] == [
        "C(2)", "C(4)", "F(1)", "F(2)", "F(4)",
    ]
    assert payload["mode"] == "normal"


def test_lattice_json_and_dot(capsys, tmp_path):
    dot_path = tmp_path / "lat.dot"
    code, out, _ = run_cli(
        capsys, "lattice", "--n", "1", "--dot", str(dot_path)
    )
    assert code == 0
    lat = build_lattice(GroupParams(1), "all")
    assert json.loads(out) == export_json(lat)
    assert dot_path.read_text() == export_dot(lat)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30, 2520, 5040])
@pytest.mark.parametrize("mode", ["all", "normal"])
def test_lattice_output_is_the_indent_2_json_of_the_order(capsys, tmp_path, n, mode):
    # n = 1, 2, 12 have no prime p >= 5 in 2n; the others do
    dot_path = tmp_path / "lat.dot"
    code, out, err = run_cli(
        capsys, "lattice", "--n", str(n), "--mode", mode, "--dot", str(dot_path)
    )
    assert (code, err) == (0, "")
    lat = build_lattice(GroupParams(n), mode)
    covers = sorted(transitive_reduction(lat))
    expected = {
        "n": n,
        "mode": mode,
        "nodes": [
            {"id": i, "desc": str(d), "order": subgroup_order(lat.params, d)}
            for i, d in enumerate(lat.nodes)
        ],
        "edges_strict": sorted([i, j] for i in range(len(lat.nodes))
                               for j in lat.row(i)),
        "edges_hasse": [list(e) for e in covers],
    }
    _assert_same_text(out, json.dumps(expected, indent=2) + "\n", "lattice JSON")
    dot = dot_path.read_text()
    _assert_same_text(dot, export_dot(lat), "lattice DOT")
    assert [line for line in dot.splitlines() if "->" in line] == [
        f"  n{i} -> n{j};" for i, j in covers
    ]


_DOT_ERRORS = {
    "": "No such file or directory",  # given as is: an empty path, no option
    "missing/x.dot": "No such file or directory",
    ".": "Is a directory",
    "x.dot/": "Is a directory",  # opened as given, not as x.dot
}


@pytest.mark.parametrize("target", list(_DOT_ERRORS))
def test_lattice_unwritable_dot_exits_1(capsys, tmp_path, target):
    path = os.path.join(tmp_path, target) if target else target
    code, out, err = run_cli(capsys, "lattice", "--n", "1", "--dot", path)
    assert (code, out) == (1, "")
    assert err == f"cannot write DOT file {path}: {_DOT_ERRORS[target]}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("count", "--n", "5", "--mode", "bogus"),
    ("batch", "--range", "1", "--mode", "bogus"),
])
def test_bogus_mode_lists_the_lattice_modes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        f"u6n {argv[0]}: error: argument --mode: invalid choice: 'bogus' "
        "(choose from 'all', 'normal')\n"
    )
    assert run_cli(capsys, argv[0], "-h")[1].count("--mode {all,normal}") == 2


def test_batch_csv(capsys):
    code, out, _ = run_cli(capsys, "batch", "--range", "1..3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "mode", "per_length", "total", "fuzzy_count", "mm_count"]
    assert rows[1] == ["1", "all", "1;4", "5", "10", "19"]
    assert rows[2] == ["2", "all", "1;6;5", "12", "24", "47"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]


def test_batch_single_value_range(capsys):
    code, out, _ = run_cli(capsys, "batch", "--range", "2", "--mode", "normal")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["2", "normal", "1;3;2", "6", "12", "23"]


def test_batch_rows_recompute(capsys):
    code, out, _ = run_cli(capsys, "batch", "--range", "1..6")
    assert code == 0
    for row in list(csv.reader(io.StringIO(out)))[1:]:
        counts = count_chains(GroupParams(int(row[0])), "all")
        assert row[2] == ";".join(str(c) for c in counts.per_length)
        assert row[4] == str(counts.fuzzy_count)


def _listing_rows(command, n):
    params = GroupParams(n)
    enum = enumerate_normal_subgroups if command == "normal" else enumerate_subgroups
    return [("desc", "order"),
            *((format_descriptor(d), subgroup_order(params, d)) for d in enum(params))]


def _chains_rows(n, mode):
    per_length = count_chains(GroupParams(n), mode).per_length
    return [("length", "count"), *enumerate(per_length, 1)]


def _count_rows(n, mode, relation):
    counts = count_chains(GroupParams(n), mode)
    value = counts.mm_count if relation == "murali" else counts.fuzzy_count
    return [("n", "mode", "relation", "count"), (n, mode, relation, value)]


def _batch_rows(mode):
    rows = [("n", "mode", "per_length", "total", "fuzzy_count", "mm_count")]
    for n in range(1, 3001):
        counts = count_chains(GroupParams(n), mode)
        rows.append((n, mode, ";".join(map(str, counts.per_length)),
                     counts.total, counts.fuzzy_count, counts.mm_count))
    return rows


def _csv_cases():
    """case id -> (a CSV argv, the rows it prints, built from the library)"""
    cases = {}
    for command in ("subgroups", "normal"):
        for n in (1, 2, 6):
            cases[f"{command}-{n}"] = ((command, "--n", str(n), "--format", "csv"),
                                       partial(_listing_rows, command, n))
    for n in (1, 12, 360360):
        for mode in ("all", "normal"):
            flags = ("--n", str(n), "--mode", mode, "--format", "csv")
            cases[f"chains-{n}-{mode}"] = (("chains", *flags),
                                           partial(_chains_rows, n, mode))
            for rel in ("tarnauceanu", "murali"):
                cases[f"count-{n}-{mode}-{rel}"] = (
                    ("count", *flags, "--relation", rel),
                    partial(_count_rows, n, mode, rel))
    for mode in ("all", "normal"):
        cases[f"batch-{mode}"] = (("batch", "--range", "1..3000", "--mode", mode),
                                  partial(_batch_rows, mode))
    return cases


CSV_CASES = _csv_cases()


@pytest.mark.parametrize("case", CSV_CASES)
def test_csv_bytes_are_csv_writer_rows(capsys, case):
    # the CLI writes CSV lines as text, without the csv module: the bytes
    # must be what csv.writer makes of the same rows, T(t,s) quoted
    argv, rows = CSV_CASES[case]
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(rows())
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    _assert_same_text(out, want.getvalue(), " ".join(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "0"),
        ("count", "--n", "-2"),
        ("count",),
        ("count", "--n", "x"),
        ("count", "--n", "1", "--relation", "other"),
        ("batch", "--range", "5..3"),
        ("batch", "--range", "0..2"),
        ("batch", "--range", "a..b"),
        ("nonsense",),
        (),
        ("count", "--n", "1", "--cache", "x"),
        ("chains", "--n", "1", "--parallel"),
        ("verify", "--n-max", "3", "--oracle-limit", "-5"),
        ("verify", "--n-max", "3", "--fuzzy-n-max", "-1"),
        ("verify", "--n-max", "0"),
        ("batch", "--range", "3\n"),
        ("batch", "--range", "2..3\n"),
    ],
)
def test_invalid_input_exits_1(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n-max", "0"), "argument --n-max: must be at least 1, got 0"),
        (("--n-max", "3", "--fuzzy-n-max", "-1"),
         "argument --fuzzy-n-max: invalid integer '-1': use digits 0-9 only"),
        (("--n-max", "3", "--oracle-limit", "-5"),
         "argument --oracle-limit: invalid integer '-5': use digits 0-9 only"),
    ],
    ids=["n-max-0", "fuzzy-n-max-minus-1", "oracle-limit-minus-5"],
)
def test_verify_bad_argument_names_its_flag(capsys, argv, message):
    assert run_cli(capsys, "verify", *argv) == (
        1, "", f"u6n verify: error: {message}\n",
    )


_BAD_INTEGERS = {
    "leading-space": " 3",
    "trailing-space": "3 ",
    "underscore": "1_0",
    "arabic-indic": "٣",
    "sign": "+3",
    "hex": "0x3",
    "5000-digits": "9" * 5000,
}

# every integer on the CLI: (flag, argv with {} for the bad value)
_INTEGER_SLOTS = {
    **{f"{cmd}-n": ("--n", (cmd, "--n", "{}"))
       for cmd in ("subgroups", "normal", "chains", "count", "lattice")},
    "verify-n-max": ("--n-max", ("verify", "--n-max", "{}")),
    "verify-fuzzy-n-max": ("--fuzzy-n-max",
                           ("verify", "--n-max", "1", "--fuzzy-n-max", "{}")),
    "verify-oracle-limit": ("--oracle-limit",
                            ("verify", "--n-max", "1", "--oracle-limit", "{}")),
    "batch-range-A": ("--range", ("batch", "--range", "{}..3")),
    "batch-range-B": ("--range", ("batch", "--range", "1..{}")),
}


@pytest.mark.parametrize("bad", _BAD_INTEGERS)
@pytest.mark.parametrize("slot", _INTEGER_SLOTS)
def test_bad_integer_exits_1_naming_its_flag(capsys, slot, bad):
    # int() would take the first five (as 3, 3, 10, 3 and 3) and fail on the
    # 5000 digits with a ValueError of its own
    flag, argv = _INTEGER_SLOTS[slot]
    value = _BAD_INTEGERS[bad]
    code, out, err = run_cli(capsys, *(a.format(value) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith(f"u6n {argv[0]}: error: argument {flag}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_every_integer_option_reads_the_one_grammar():
    # a plain type=int would bring back a second, more lenient grammar
    (subparsers,) = (a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    free = {
        (command, action.dest): action.type
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.option_strings and action.nargs is None
        and action.choices is None and action.dest != "dot_path"
    }
    positive, natural = u6n.cli._POSITIVE, u6n.cli._NATURAL
    assert free == {
        **{(cmd, "n"): positive
           for cmd in ("subgroups", "normal", "chains", "count", "lattice")},
        ("verify", "n_max"): positive,
        ("verify", "fuzzy_n_max"): natural,
        ("verify", "oracle_limit"): natural,
        ("batch", "n_range"): u6n.cli._n_range,
    }


def test_lattice_factorizes_2n_once(capsys, monkeypatch):
    # for the catalog's divisors; build_lattice reads the primes of m off
    # those divisors instead of factorizing m again
    calls = []
    real = u6n.subgroups.factorize

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(u6n.subgroups, "factorize", counting)
    n = 1000003 * 1000033
    code, out, _ = run_cli(capsys, "lattice", "--n", str(n))
    assert code == 0
    assert calls == [2 * n]
    assert out == json.dumps(export_json(build_lattice(GroupParams(n), "all")),
                             indent=2) + "\n"


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_failure_exits_2(capsys, monkeypatch):
    import u6n.verify as verify_module

    def fake(n_max, fuzzy_n_max, oracle_limit):
        return [CheckResult(n=1, check="doctored", passed=False, detail="boom")]

    monkeypatch.setattr(verify_module, "run_verification", fake)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "1")
    assert code == 2
    assert "FAIL" in out and "boom" in out


def test_verify_does_not_ride_on_assert():
    # python -O strips assert statements: a check that relied on one would
    # change the report or the exit code
    src = str(Path(u6n.__file__).resolve().parent.parent)
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "u6n.cli", "verify", "--n-max", "4",
             "--format", "json"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        for flags in ([], ["-O"])
    ]
    plain, optimized = ((r.returncode, r.stdout) for r in runs)
    assert plain[0] == 0 and json.loads(plain[1])["passed"] is True
    assert optimized == plain


@pytest.mark.parametrize("mode", ["all", "normal"])
def test_batch_counts_each_shape_once_per_call(capsys, monkeypatch, mode):
    calls = []
    real = u6n.cli.shape_chain_counts

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(u6n.cli, "shape_chain_counts", counting)
    shapes = set(map(factorization_shape, range(2, 162, 2)))
    for _ in range(2):  # the second call recomputes: nothing outlives a call
        calls.clear()
        code, out, _ = run_cli(capsys, "batch", "--range", "1..80", "--mode", mode)
        assert code == 0
        assert len(calls) == len(set(calls)) == len(shapes) < 40
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [int(row[0]) for row in rows] == list(range(1, 81))
        for row in rows:
            counts = count_chains(GroupParams(int(row[0])), mode)
            assert row[2] == ";".join(str(c) for c in counts.per_length)
            assert row[3:] == [str(counts.total), str(counts.fuzzy_count),
                               str(counts.mm_count)]


@pytest.mark.parametrize(
    "argv",
    [("--help",), ("-h",), ("count", "-h"), ("batch", "--help"),
     ("verify", "--n-max", "3", "-h"), ("lattice", "--help", "--n", "0")],
)
def test_help_returns_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: u6n") and not err


def test_outputs_are_deterministic(capsys):
    first = run_cli(capsys, "lattice", "--n", "6", "--mode", "all")
    second = run_cli(capsys, "lattice", "--n", "6", "--mode", "all")
    assert first == second
    third = run_cli(capsys, "batch", "--range", "1..4")
    fourth = run_cli(capsys, "batch", "--range", "1..4")
    assert third == fourth


def test_parser_defaults():
    args = build_parser().parse_args(["count", "--n", "3"])
    assert args.command == "count"
    assert args.n == 3
    assert args.mode == "all"
    assert args.relation == "tarnauceanu"
    assert args.fmt == "table"
    assert args.handler is _cmd_count


def test_parser_error_is_cli_error():
    with pytest.raises(CliError):
        build_parser().parse_args(["count"])


def _loaded_under_dash_s(imports, modules, argvs=()):
    """The sorted names in modules that `import <imports>`, then
    u6n.cli.main on each of argvs, loads under python -S, where no
    site-packages .pth file imports pathlib or typing."""
    code = (f"import sys, {imports}\n"
            + "".join(f"u6n.cli.main({list(argv)!r})\n" for argv in argvs)
            + f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    src = str(Path(u6n.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    return out.splitlines()[-1]


def test_cli_import_loads_only_the_counting_path():
    assert _loaded_under_dash_s("u6n.cli", (
        "u6n.oracle", "u6n.verify", "u6n.cache", "concurrent.futures",
        "fractions", "dataclasses", "inspect", "json", "csv", "pathlib",
    )) == "[]"


def test_csv_queries_leave_the_csv_module_unloaded():
    argvs = [argv for argv, _ in CSV_CASES.values()]
    assert _loaded_under_dash_s("u6n.cli", ("csv",), argvs) == "[]"


def test_verify_import_loads_no_dataclasses_or_typing():
    # verify and the oracle use namedtuples and collections.abc, as the
    # counting path does; dataclasses alone would pull in inspect and ast
    assert _loaded_under_dash_s(
        "u6n.cli, u6n.verify", ("dataclasses", "inspect", "typing", "ast")
    ) == "[]"


_GARBAGE = ("", "-", "--", "--x", "-n", "abc", "1.5", "1e3", "0x10", "٣",
            "all", "json", "--mode", "--range", "1..", "..3", "3..1", "-h",
            "--help")


def _numbers(lo, hi):
    good = st.integers(lo, hi).map(str)
    return st.one_of(good, good, good, st.sampled_from(list(_BAD_INTEGERS.values())))


def _ranges():
    ends = st.integers(-3, 60)
    return st.one_of(
        ends.map(str),
        st.tuples(ends, ends).map(lambda r: f"{r[0]}..{r[1]}"),
        st.sampled_from(["a..b", "1...2", " 3", "2..x", "",
                         *_BAD_INTEGERS.values(),
                         *(f"1..{b}" for b in _BAD_INTEGERS.values())]),
    )


_FLAGS = {
    "subgroups": ("--n", "--format"),
    "normal": ("--n", "--format"),
    "chains": ("--n", "--mode", "--format"),
    "count": ("--n", "--mode", "--format", "--relation"),
    "lattice": ("--n", "--mode", "--dot"),
    "verify": ("--n-max", "--fuzzy-n-max", "--oracle-limit", "--format"),
    "batch": ("--range", "--mode"),
}


@st.composite
def _argv(draw, dot_dir):
    """Mostly well-formed argv, with a foreign flag, a missing value or a
    garbage token mixed in now and then."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    # verify takes "--n" as an abbreviation of "--n-max": keep both small there
    n = _numbers(-3, 5) if command == "verify" else _numbers(-3, 60)
    values = {
        "--n": n,
        "--n-max": n,
        "--fuzzy-n-max": _numbers(-2, 3),
        "--oracle-limit": _numbers(-5, 400),
        "--mode": st.sampled_from(["all", "normal", "all", "normal", "odd"]),
        "--format": st.sampled_from(["table", "json", "csv", "xml"]),
        "--relation": st.sampled_from(["tarnauceanu", "murali", "other"]),
        "--dot": st.sampled_from([str(dot_dir / "x.dot"),
                                  str(dot_dir / "missing" / "x.dot")]),
        "--range": _ranges(),
    }
    own = _FLAGS[command]
    flags = draw(st.lists(st.sampled_from(own), max_size=len(own), unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(values))))
    if own[0] not in flags and draw(st.integers(0, 9)):
        flags.insert(0, own[0])  # the required flag, most of the time
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if draw(st.integers(0, 19)):
            argv.append(draw(values[flag]))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_GARBAGE)))
    return argv


@pytest.fixture(scope="module")
def fuzz_dot_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_fuzz_answers_or_fails_with_a_message(fuzz_dot_dir, data):
    argv = data.draw(_argv(fuzz_dot_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), argv
    if code == 1:
        assert err.getvalue().strip(), argv
        assert "Traceback" not in err.getvalue(), argv
