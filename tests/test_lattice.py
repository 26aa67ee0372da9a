"""Containment lattice construction, Hasse reduction, and exports."""

import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from u6n import (
    GroupParams,
    build_lattice,
    chain_counts,
    compute_chain_table,
    count_chains,
    export_dot,
    export_json,
    factorize,
    full,
    hasse_edges,
    height,
    subgroup_leq,
    subgroup_order,
)
from u6n.chains import factorization_shape
from u6n.cli import main
from u6n.group import DEFAULT_ORACLE_LIMIT
from u6n.lattice import (
    MODES,
    Lattice,
    _strict_order_edges,
    dot_text,
    write_json,
)
from u6n.oracle import GroupOracle, oracle_count_chains, transitive_reduction
from u6n.verify import catalog_sets, run_verification


def _rows(lat):
    return [lat.row(i) for i in range(len(lat.nodes))]


def _row_sets(lat):
    return [set(lat.row(i)) for i in range(len(lat.nodes))]


def _strict_pairs(lat):
    return {
        (str(lat.nodes[i]), str(lat.nodes[j]))
        for i, ups in enumerate(_rows(lat))
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
            assert lat.orders == tuple(subgroup_order(lat.params, d) for d in lat.nodes)
            assert min(lat.orders) > 1


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
            if i != j and subgroup_leq(d1, d2)
        )
        for i, d1 in enumerate(lat.nodes)
    ]
    assert _row_sets(lat) == naive


def _shape_firsts():
    """The first n of each factorization shape of 2n with 6n within the
    oracle limit."""
    firsts = {}
    for n in range(1, DEFAULT_ORACLE_LIMIT // 6 + 1):
        firsts.setdefault(factorization_shape(2 * n), n)
    return list(firsts.values())


@pytest.mark.parametrize("n", _shape_firsts())
@pytest.mark.parametrize("mode", MODES)
def test_strict_order_is_the_oracles_proper_inclusion(n, mode):
    # the lattice against the oracle's element sets, not against subgroup_leq
    params = GroupParams(n)
    lat = build_lattice(params, mode)
    sets = catalog_sets(GroupOracle(params))
    node_sets = [sets[d] for d in lat.nodes]
    for i, h in enumerate(node_sets):
        assert set(lat.row(i)) == {
            j for j, k in enumerate(node_sets) if h < k
        }, lat.nodes[i]


@pytest.mark.parametrize("n", [*_shape_firsts(), 2 * 5 * 7 * 11 * 13])
@pytest.mark.parametrize("mode", MODES)
def test_rows_and_covers_from_coordinates(n, mode):
    lat = build_lattice(GroupParams(n), mode)
    for row in _rows(lat):
        assert len(row) == len(set(row))  # no repeats to write
    # the covers come sorted, each once: the exports print them as listed
    assert hasse_edges(lat) == sorted(transitive_reduction(lat))


@settings(max_examples=25)
@given(st.integers(1, 20).map(GroupParams), st.sampled_from(["all", "normal"]))
def test_strict_order_laws(params, mode):
    lat = build_lattice(params, mode)
    below = _row_sets(lat)
    for i, ups in enumerate(below):
        assert i not in ups
        for j in ups:
            assert i not in below[j]
            assert below[j] <= ups  # transitivity, given antisymmetry


def test_everything_sits_below_top():
    for n in (1, 2, 5, 12):
        lat = build_lattice(GroupParams(n), "all")
        for i in range(len(lat.nodes)):
            assert i == lat.top_index or lat.top_index in lat.row(i)


def test_height_examples():
    assert height(build_lattice(GroupParams(1), "all")) == 2
    assert height(build_lattice(GroupParams(2), "all")) == 3
    assert height(build_lattice(GroupParams(1), "normal")) == 2


@pytest.mark.parametrize("n", range(1, 61))
@pytest.mark.parametrize("mode", ["all", "normal"])
def test_height_is_omega_of_6n(n, mode):
    # U_6n is supersolvable: every maximal chain, of subgroups and of normal
    # subgroups alike, has prime steps, so Omega(6n) nodes above the trivial one
    omega = sum(e for _, e in factorize(6 * n))
    assert height(build_lattice(GroupParams(n), mode)) == omega


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
    assert _row_sets(lat) == closure


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


def _written(lat):
    chunks = []
    write_json(lat, hasse_edges(lat), list(map(str, lat.nodes)), chunks.append)
    return chunks


def _first_difference(a, b):
    """None if a == b, else the first index where they differ: pytest's own
    diff of two megabyte strings runs for minutes."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def test_write_json_one_node_lattice_writes_empty_pair_lists():
    # F(1) alone: both pair lists are empty and take the "[]" branch
    lat = Lattice(params=GroupParams(1), mode="all",
                  nodes=(full(1),), orders=(6,), top_index=0, coords=((0, 1),),
                  core_above=((),), column={1: [(0,)]})
    text = "".join(_written(lat))
    assert text == json.dumps(export_json(lat), indent=2) + "\n"
    assert '"edges_strict": [],' in text and '"edges_hasse": []\n}' in text


@pytest.mark.parametrize("mode", MODES)
def test_write_json_streams_one_row_per_write(mode):
    lat = build_lattice(GroupParams(360360), mode)
    covers = hasse_edges(lat)
    chunks = _written(lat)
    reference = json.dumps(export_json(lat), indent=2) + "\n"
    assert _first_difference("".join(chunks), reference) is None
    # node block, one write per nonempty row of each pair list, and the
    # two closing writes
    rows = sum(1 for ups in _rows(lat) if ups) + len({i for i, _ in covers})
    assert len(chunks) == rows + 3
    assert chunks[0].endswith('  ],\n  "edges_strict": ')
    # a row of pairs [i, j] is written with the 2-character separator
    # before each pair text, its own first one included
    longest = max(
        sum(len(f"    [\n      {i},\n      {j}\n    ]") + 2 for j in ups)
        for i, ups in enumerate(_rows(lat))
    )
    assert max(map(len, chunks[1:])) <= longest < len("".join(chunks)) // 10


@pytest.mark.parametrize("mode", MODES)
def test_export_json_reads_rows_not_the_relation(mode):
    lat = build_lattice(GroupParams(5040), mode)
    payload = export_json(lat)
    assert payload["edges_strict"] == sorted(
        [i, j] for i, ups in enumerate(_rows(lat)) for j in ups
    )


@pytest.mark.parametrize("n", [1, 30, 360360])
@pytest.mark.parametrize("mode", MODES)
def test_exports_share_one_node_text_list(n, mode):
    # the lattice command makes each node's text once for both exports
    lat = build_lattice(GroupParams(n), mode)
    covers, texts = hasse_edges(lat), list(map(str, lat.nodes))
    assert all(text.isascii() and '"' not in text and "\\" not in text
               for text in texts)
    assert dot_text(lat, covers, texts) == export_dot(lat)
    chunks = []
    write_json(lat, covers, texts, chunks.append)
    reference = json.dumps(export_json(lat), indent=2) + "\n"
    assert _first_difference("".join(chunks), reference) is None


def test_strict_edges_helper_is_pure():
    lat = build_lattice(GroupParams(4), "all")
    again = _strict_order_edges(lat.nodes)
    assert again == _row_sets(lat)


@st.composite
def _shapes(draw):
    """n with 2n = 2^e2 * 3^e3 * prod p^a, e2 <= 6, e3 <= 4, a <= 3."""
    e2 = draw(st.integers(1, 6))
    e3 = draw(st.integers(0, 4))
    primes = draw(st.lists(st.sampled_from([5, 7, 11, 13, 17, 19, 23]),
                           max_size=3, unique=True))
    n = 2 ** (e2 - 1) * 3**e3
    divisor_count = (e2 + 1) * (e3 + 1)
    for p in primes:
        a = draw(st.integers(1, 3))
        n *= p**a
        divisor_count *= a + 1
    # at most 4 nodes per divisor: keep the pairwise reference near 400 nodes
    assume(divisor_count <= 100)
    return n


def _assert_product_lattice_matches_references(n, mode):
    lat = build_lattice(GroupParams(n), mode)
    assert _row_sets(lat) == _strict_order_edges(lat.nodes)
    assert hasse_edges(lat) == sorted(transitive_reduction(lat))


@settings(max_examples=100, deadline=None)
@given(_shapes(), st.sampled_from(["all", "normal"]))
def test_product_lattice_matches_pairwise_order_and_reduction(n, mode):
    _assert_product_lattice_matches_references(n, mode)


@pytest.mark.parametrize("n", [30, 2592, 5040])
@pytest.mark.parametrize("mode", ["all", "normal"])
def test_product_lattice_fixed_cases(n, mode):
    # 2n = 60 and 10080 carry p = 5, which is 2 mod 3; 2n = 2^6 * 3^4 is all core
    _assert_product_lattice_matches_references(n, mode)


def test_even_t_relabels_s_through_p():
    # (a^2 b)^5 = a^10 b^2: T(10,2) lies in T(2,1), and T(10,1) in T(2,2)
    lat = build_lattice(GroupParams(30), "all")
    pairs = _strict_pairs(lat)
    assert ("T(10,2)", "T(2,1)") in pairs and ("T(10,1)", "T(2,2)") in pairs
    assert ("T(10,1)", "T(2,1)") not in pairs
    names = {i: str(d) for i, d in enumerate(lat.nodes)}
    covers = {(names[i], names[j]) for i, j in hasse_edges(lat)}
    assert ("T(10,1)", "T(2,2)") in covers


@pytest.mark.parametrize("n", [1, 35, 360360])
@pytest.mark.parametrize("mode", MODES)
def test_strictly_below_is_each_row_as_a_set(n, mode):
    # no u6n code reads it; the benchmark counts the strict pairs through it
    lat = build_lattice(GroupParams(n), mode)
    below = lat.strictly_below
    assert len(below) == len(lat.nodes)
    assert all(below[i] == frozenset(lat.row(i)) for i in range(len(lat.nodes)))
    assert not hasattr(lat, "__dict__")  # slotted: nothing can be kept


def _forbid_strictly_below(monkeypatch):
    def forbidden(lat):
        raise AssertionError("Lattice.strictly_below was read")

    monkeypatch.setattr(Lattice, "strictly_below", property(forbidden))


@pytest.mark.parametrize("n", [35, 360360])
@pytest.mark.parametrize("mode", MODES)
def test_package_reads_rows_not_strictly_below(monkeypatch, capsys, n, mode):
    params = GroupParams(n)
    lat = build_lattice(params, mode)
    _forbid_strictly_below(monkeypatch)
    counts = chain_counts(compute_chain_table(lat))
    assert counts == count_chains(params, mode)
    assert height(lat) == sum(e for _, e in factorize(6 * n))
    covers = hasse_edges(lat)
    assert covers == sorted(transitive_reduction(lat))
    if n == 35:  # at 360360 the DFS would list tens of millions of chains
        assert oracle_count_chains(lat) == list(counts.per_length)
    reference = json.dumps(export_json(lat), indent=2) + "\n"
    chunks = []
    write_json(lat, covers, list(map(str, lat.nodes)), chunks.append)
    assert _first_difference("".join(chunks), reference) is None
    assert export_dot(lat).count(" -> ") == len(covers)
    assert main(["lattice", "--n", str(n), "--mode", mode]) == 0
    assert _first_difference(capsys.readouterr().out, reference) is None


def test_verify_reads_rows_not_strictly_below(monkeypatch, capsys):
    _forbid_strictly_below(monkeypatch)
    assert all(result.passed for result in run_verification(12))
    assert main(["verify", "--n-max", "8"]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_no_package_or_script_source_reads_strictly_below():
    root = Path(__file__).resolve().parent.parent
    sources = [*(root / "src" / "u6n").glob("*.py"), *(root / "scripts").glob("*.py")]
    assert len(sources) > 2
    for path in sources:
        assert ".strictly_below" not in path.read_text(), path.name
    assert "cached_property" not in (root / "src" / "u6n" / "lattice.py").read_text()
