"""Command-line behavior: outputs, formats, exit codes, import footprint."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import u6n
from u6n import GroupParams, build_lattice, count_chains, export_dot, export_json
from u6n.cli import CliError, build_parser, config_from_args, main
from u6n.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("target", ["missing/x.dot", "."])
def test_lattice_unwritable_dot_exits_1(capsys, tmp_path, target):
    code, _, err = run_cli(
        capsys, "lattice", "--n", "1", "--dot", str(tmp_path / target)
    )
    assert code == 1
    assert err and "Traceback" not in err


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
    ],
)
def test_invalid_input_exits_1(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err


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


def test_outputs_are_deterministic(capsys):
    first = run_cli(capsys, "lattice", "--n", "6", "--mode", "all")
    second = run_cli(capsys, "lattice", "--n", "6", "--mode", "all")
    assert first == second
    third = run_cli(capsys, "batch", "--range", "1..4")
    fourth = run_cli(capsys, "batch", "--range", "1..4")
    assert third == fourth


def test_config_from_args_defaults():
    parser = build_parser()
    config = config_from_args(parser.parse_args(["count", "--n", "3"]))
    assert config.command == "count"
    assert config.n == 3
    assert config.mode == "all"
    assert config.relation == "tarnauceanu"
    assert config.fmt == "table"


def test_parser_error_is_cli_error():
    with pytest.raises(CliError):
        build_parser().parse_args(["count"])


def test_cli_import_loads_only_the_counting_path():
    code = (
        "import sys, u6n.cli; "
        "print(sorted(m for m in ('u6n.oracle', 'u6n.verify', 'u6n.cache', "
        "'concurrent.futures', 'fractions') if m in sys.modules))"
    )
    src = str(Path(u6n.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"
