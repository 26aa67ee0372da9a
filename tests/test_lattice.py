"""Containment lattice construction, Hasse reduction, and exports."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u6n import (
    GroupParams,
    build_lattice,
    export_dot,
    export_json,
    full,
    hasse_edges,
    height,
    subgroup_leq,
    subgroup_order,
)
from u6n.lattice import _strict_order_edges


def _strict_pairs(lat):
    return {
        (str(lat.nodes[i]), str(lat.nodes[j]))
        for i, ups in enumerate(lat.strictly_below)
        for j in ups
    }


def test_n1_all_lattice():
    lat = build_lattice(GroupParams(1), "all")
    assert [str(d) for d in lat.nodes] == ["C(1)", "F(1)", "F(2)", "T(1,1)", "T(1,2)"]
    assert lat.nodes[lat.top_index] == full(1)
    assert _strict_pairs(lat) == {
        ("C(1)", "F(1)"),
        ("F(2)", "F(1)"),
        ("T(1,1)", "F(1)"),
        ("T(1,2)", "F(1)"),
    }


def test_n2_normal_lattice():
    lat = build_lattice(GroupParams(2), "normal")
    assert [str(d) for d in lat.nodes] == ["C(2)", "F(1)", "F(2)", "F(4)"]
    assert _strict_pairs(lat) == {
        ("C(2)", "F(1)"),
        ("C(2)", "F(2)"),
        ("F(2)", "F(1)"),
        ("F(4)", "F(1)"),
        ("F(4)", "F(2)"),
    }


def test_trivial_subgroup_excluded():
    for n in (1, 2, 6, 12):
        for mode in ("all", "normal"):
            lat = build_lattice(GroupParams(n), mode)
            assert all(subgroup_order(lat.params, d) > 1 for d in lat.nodes)


def test_mode_validation():
    with pytest.raises(ValueError):
        build_lattice(GroupParams(1), "everything")


@pytest.mark.parametrize("n", list(range(1, 13)) + [30, 36, 60])
@pytest.mark.parametrize("mode", ["all", "normal"])
def test_grouped_edges_match_pairwise_leq(n, mode):
    # the divisor-grouped construction against the quadratic definition
    params = GroupParams(n)
    lat = build_lattice(params, mode)
    naive = [
        frozenset(
            j
            for j, d2 in enumerate(lat.nodes)
            if i != j and subgroup_leq(params, d1, d2)
        )
        for i, d1 in enumerate(lat.nodes)
    ]
    assert list(lat.strictly_below) == naive


@settings(max_examples=25)
@given(st.integers(1, 20).map(GroupParams), st.sampled_from(["all", "normal"]))
def test_strict_order_laws(params, mode):
    lat = build_lattice(params, mode)
    below = lat.strictly_below
    for i, ups in enumerate(below):
        assert i not in ups
        for j in ups:
            assert i not in below[j]
            assert below[j] <= ups  # transitivity, given antisymmetry


def test_everything_sits_below_top():
    for n in (1, 2, 5, 12):
        lat = build_lattice(GroupParams(n), "all")
        for i in range(len(lat.nodes)):
            assert i == lat.top_index or lat.top_index in lat.strictly_below[i]


def test_height_examples():
    assert height(build_lattice(GroupParams(1), "all")) == 2
    assert height(build_lattice(GroupParams(2), "all")) == 3
    assert height(build_lattice(GroupParams(1), "normal")) == 2


def test_hasse_n1():
    lat = build_lattice(GroupParams(1), "all")
    edges = hasse_edges(lat)
    assert len(edges) == 4
    assert all(j == lat.top_index for _, j in edges)


def test_hasse_n2_normal():
    lat = build_lattice(GroupParams(2), "normal")
    names = {i: str(d) for i, d in enumerate(lat.nodes)}
    got = {(names[i], names[j]) for i, j in hasse_edges(lat)}
    assert got == {("C(2)", "F(2)"), ("F(4)", "F(2)"), ("F(2)", "F(1)")}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12])
@pytest.mark.parametrize("mode", ["all", "normal"])
def test_hasse_closure_recovers_strict_order(n, mode):
    lat = build_lattice(GroupParams(n), mode)
    closure = [set() for _ in lat.nodes]
    for i, j in hasse_edges(lat):
        closure[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(len(lat.nodes)):
            extra = set().union(*(closure[j] for j in closure[i])) - closure[i]
            if extra:
                closure[i] |= extra
                changed = True
    assert [set(s) for s in lat.strictly_below] == closure


def test_dot_export():
    lat = build_lattice(GroupParams(1), "all")
    dot = export_dot(lat)
    assert dot == export_dot(lat)  # deterministic
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert dot.count("[label=") == 5
    assert dot.count("->") == 4
    assert 'n1 [label="F(1) (order 6)"];' in dot


def test_json_export_schema():
    lat = build_lattice(GroupParams(2), "normal")
    payload = export_json(lat)
    assert json.dumps(payload)  # serializable
    assert payload["n"] == 2
    assert payload["mode"] == "normal"
    assert [node["desc"] for node in payload["nodes"]] == [
        "C(2)", "F(1)", "F(2)", "F(4)",
    ]
    assert all(
        node["order"] == subgroup_order(lat.params, lat.nodes[node["id"]])
        for node in payload["nodes"]
    )
    ids = {node["id"] for node in payload["nodes"]}
    assert all(i in ids and j in ids for i, j in payload["edges_strict"])
    strict = {(i, j) for i, j in payload["edges_strict"]}
    assert {(i, j) for i, j in payload["edges_hasse"]} <= strict


def test_strict_edges_helper_is_pure():
    lat = build_lattice(GroupParams(4), "all")
    again = _strict_order_edges(lat.nodes)
    assert [frozenset(s) for s in again] == list(lat.strictly_below)
