"""Chain-counting DP and the derived fuzzy-subgroup counts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u6n import (
    ChainCounts,
    GroupParams,
    Lattice,
    build_lattice,
    chain_counts,
    compute_chain_table,
    count_chains,
    full,
    height,
)
from u6n.oracle import oracle_count_chains

# frozen anchor values, confirmed by the exhaustive DFS oracle
ANCHORS = {
    (1, "all"): ([1, 4], 10),
    (1, "normal"): ([1, 1], 4),
    (2, "all"): ([1, 6, 5], 24),
    (2, "normal"): ([1, 3, 2], 12),
}


@pytest.mark.parametrize("n, mode", sorted(ANCHORS))
def test_anchor_counts(n, mode):
    per_length, fuzzy = ANCHORS[(n, mode)]
    counts = count_chains(GroupParams(n), mode)
    assert list(counts.per_length) == per_length
    assert counts.fuzzy_count == fuzzy
    assert counts.total == sum(per_length)


def test_murali_makamba_examples():
    assert count_chains(GroupParams(1), "all").mm_count == 19
    assert count_chains(GroupParams(1), "normal").mm_count == 7


def test_level_table_boundary():
    lat = build_lattice(GroupParams(2), "all")
    table = compute_chain_table(lat)
    first = table.levels[0]
    assert first[lat.top_index] == 1
    assert sum(first) == 1
    assert all(level[lat.top_index] == 0 for level in table.levels[1:])
    assert len(table.levels) <= height(lat)
    assert all(any(level) for level in table.levels)


def test_single_node_lattice():
    lat = Lattice(
        params=GroupParams(1),
        mode="all",
        nodes=(full(1),),
        top_index=0,
        strictly_below=(frozenset(),),
    )
    table = compute_chain_table(lat)
    assert [list(level) for level in table.levels] == [[1]]
    counts = chain_counts(table)
    assert list(counts.per_length) == [1]
    assert counts.fuzzy_count == 2
    assert counts.mm_count == 3


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("mode", ["all", "normal"])
def test_dp_equals_dfs(n, mode):
    lat = build_lattice(GroupParams(n), mode)
    counts = chain_counts(compute_chain_table(lat))
    assert list(counts.per_length) == oracle_count_chains(lat)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60).map(GroupParams), st.sampled_from(["all", "normal"]))
def test_count_invariants(params, mode):
    counts = count_chains(params, mode)
    assert counts.per_length[0] == 1
    assert counts.per_length[-1] > 0
    assert counts.fuzzy_count == 2 * counts.total
    assert counts.fuzzy_count % 2 == 0
    assert counts.mm_count == 2 * counts.fuzzy_count - 1


@given(st.integers(1, 60).map(GroupParams))
def test_normal_count_never_exceeds_all(params):
    assert (
        count_chains(params, "normal").fuzzy_count
        <= count_chains(params, "all").fuzzy_count
    )


def test_counts_depend_only_on_divisor_shape():
    # 2n = 2*5 vs 2*7, 2^2*5 vs 2^2*7, 2*3*5 vs 2*3*7
    for n_left, n_right in [(5, 7), (10, 14), (15, 21)]:
        for mode in ("all", "normal"):
            left = count_chains(GroupParams(n_left), mode)
            right = count_chains(GroupParams(n_right), mode)
            assert list(left.per_length) == list(right.per_length)


def test_counts_validation():
    with pytest.raises(ValueError):
        ChainCounts(n=1, mode="all", per_length=())
    with pytest.raises(ValueError):
        ChainCounts(n=1, mode="all", per_length=(2, 1))
    with pytest.raises(ValueError):
        ChainCounts(n=1, mode="all", per_length=(1, 0))
    with pytest.raises(ValueError):
        ChainCounts(n=1, mode="all", per_length=(1, -2, 1))


def test_json_round_trip():
    counts = count_chains(GroupParams(6), "all")
    payload = counts.to_json_dict()
    assert all(isinstance(c, str) for c in payload["per_length"])
    assert payload["total"] == str(counts.total)

