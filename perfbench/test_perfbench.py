"""Tests of the benchmark itself.

Run from the repository root:
    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from numtheory import (  # noqa: E402
    factorize,
    node_count,
    shape_key,
    shape_of,
    smallest_n,
)
from reference import Mismatch, check_counts, check_lattice, check_verify, options  # noqa: E402
from run import percentile  # noqa: E402
from tracing import END, START, Layer, Tracer, aggregate, self_times  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

from u6n.cli import main as cli_main  # noqa: E402
from u6n.group import GroupParams  # noqa: E402
from u6n.lattice import build_lattice, export_dot, export_json  # noqa: E402
from u6n.oracle import oracle_count_set_chains  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return json.loads((HERE / "frozen_table.json").read_text())


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv(workload, table):
    first = generate(workload, 7, table)
    assert generate(workload, 7, table) == first
    assert generate(workload, 8, table) != first or workload == "verify"
    assert all(isinstance(a, str) for argv in first for a in argv)


def test_every_drawn_shape_has_a_reference(table):
    for workload in ("random_n", "rich_count", "rich_export"):
        for seed in range(3):
            for argv in generate(workload, seed, table):
                assert shape_key(shape_of(int(options(argv)["--n"]))) in table["shapes"]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("command", ["count", "chains"])
def test_checker_rejects_count_off_by_one(command, fmt):
    n, mode = 6, "all"
    ref = oracle_count_set_chains(GroupParams(n), include_trivial=False)
    argv = [command, "--n", str(n), "--mode", mode, "--format", fmt]
    text = run_cli(argv)
    check_counts(argv, text, ref)
    if command == "count":
        value = str(2 * sum(ref))
        bumped = text.replace(value, str(int(value) + 1))
    elif fmt == "json":
        data = json.loads(text)
        data["per_length"][-1] = str(int(data["per_length"][-1]) + 1)
        bumped = json.dumps(data)
    else:  # the row of the longest chains, in table or csv layout
        lines = text.splitlines()
        lines[len(ref)] = lines[len(ref)][:-len(str(ref[-1]))] + str(ref[-1] + 1)
        bumped = "\n".join(lines) + "\n"
    assert bumped != text
    with pytest.raises(Mismatch):
        check_counts(argv, bumped, ref)


def test_lattice_checker_accepts_program_and_rejects_dropped_cover(table):
    n, mode = 2520, "all"  # 2n = 5040 has 60 divisors: an export shape
    argv = ["lattice", "--n", str(n), "--mode", mode, "--dot", "unused.dot"]
    lat = build_lattice(GroupParams(n), mode)
    ref = {**table["shapes"][shape_key(shape_of(n))][mode],
           "closed_form_nodes": node_count(shape_of(n), mode)}
    text = json.dumps(export_json(lat), indent=2) + "\n"
    dot = export_dot(lat)
    check_lattice(argv, text, dot, ref)
    data = json.loads(text)
    data["edges_hasse"].pop()
    with pytest.raises(Mismatch):
        check_lattice(argv, json.dumps(data), dot, ref)
    with pytest.raises(Mismatch):
        check_lattice(argv, text, dot.replace(" -> ", " -> n1;\n  n0 -> ", 1), ref)


def test_percentile_needs_ten_samples_beyond():
    assert percentile([float(i) for i in range(99)], 0.9) is None
    assert percentile([float(i) for i in range(100)], 0.9) == 89.0


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["lattice.build", 1.0, 4.0, 0, 0, {"lattice.nodes": 5, "lattice.strict_pairs": 7}],
        ["subgroups.factorize", 2.0, 3.0, 1, 0, None],
        ["chains.dp", 5.0, 9.0, 0, 0, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    got = aggregate(spans, 0, len(spans))
    assert got["cli.self_s"] == 3.0 and got["cli.main.calls"] == 1
    assert got["lattice.build.self_s"] == 2.0 and got["lattice.nodes"] == 5
    assert got["chains.dp.calls"] == 1 and got["chains.dp.self_s"] == 4.0
    assert got["oracle.calls"] == 0
    # a later pass is aggregated on its own
    assert self_times(spans, 3) == [4.0]


def test_missing_function_reports_zero_calls():
    module = types.ModuleType("u6n.perfbench_probe")
    module.present = lambda x: x + 1
    sys.modules[module.__name__] = module
    try:
        layers = (Layer("probe", module.__name__, ("present", "deleted_later"),
                        "probe.calls", "probe.self_s"),)
        tracer = Tracer()
        assert tracer.install(layers) == {"probe": 1}
        assert module.present(1) == 2
        assert aggregate(tracer.spans, 0, len(tracer.spans), layers=layers)["probe.calls"] == 1
        span = tracer.spans[0]
        assert span[END] >= span[START]
    finally:
        del sys.modules[module.__name__]


def test_numtheory_matches_program():
    from u6n.subgroups import factorize as program_factorize

    for n in [*range(1, 120), 360360, 36756720]:
        assert list(factorize(2 * n).items()) == program_factorize(2 * n)
        assert shape_of(smallest_n(shape_of(n))) == shape_of(n)
    for n in (1, 2, 6, 30, 60):
        for mode in ("all", "normal"):
            assert len(build_lattice(GroupParams(n), mode).nodes) == \
                node_count(shape_of(n), mode)


def test_verify_checker_counts_failed_and_missing_checks(table):
    labels = table["verify"]["12"]
    lines = [f"{label}: ok" for label in labels]
    argv = ["verify", "--n-max", "12", "--format", "table"]
    good = "\n".join(lines + [f"all {len(lines)} checks passed"]) + "\n"
    assert check_verify(argv, good, labels) == (len(labels), 0)
    bad = lines[:-1] + [lines[-1].replace(": ok", ": FAIL (x)")]
    text = "\n".join(bad + [f"1 of {len(bad)} checks FAILED"]) + "\n"
    assert check_verify(argv, text, labels) == (len(labels), 1)
    missing = "\n".join(lines[1:] + [f"all {len(lines) - 1} checks passed"]) + "\n"
    assert check_verify(argv, missing, labels) == (len(labels), 1)
    with pytest.raises(Mismatch):  # the summary line must agree with the lines
        check_verify(argv, "\n".join(lines + ["all 3 checks passed"]), labels)


def test_holes_come_out_of_the_innermost_span():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["lattice.build", 1.0, 4.0, 0, 0, None],
        ["chains.dp", 5.0, 9.0, 0, 0, None],
    ]
    # one hole inside build, one in the root between children, one outside
    holes = [(2.0, 2.5), (4.2, 4.4), (11.0, 11.1)]
    assert self_times(spans, 0, holes) == pytest.approx([3.0 - 0.2, 2.5, 4.0])
