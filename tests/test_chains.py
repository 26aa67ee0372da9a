"""Chain-counting DP and the derived fuzzy-subgroup counts."""

from itertools import accumulate
from math import prod
from operator import add, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import u6n
import u6n.chains
import u6n.lattice
import u6n.subgroups
from u6n import (
    ChainCounts,
    GroupParams,
    Lattice,
    build_lattice,
    chain_counts,
    compute_chain_table,
    count_chains,
    factorize,
    full,
)
from u6n.chains import (
    MAX_HEIGHT,
    HeightLimitExceeded,
    factorization_shape,
    shape_chain_counts,
)
from u6n.group import DEFAULT_ORACLE_LIMIT
from u6n.oracle import oracle_count_chains, oracle_count_set_chains

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
    assert len(table.levels) <= len(oracle_count_chains(lat))  # the longest chain
    assert all(any(level) for level in table.levels)


def test_single_node_lattice():
    lat = Lattice(
        params=GroupParams(1),
        mode="all",
        nodes=(full(1),),
        orders=(6,),
        top_index=0,
        coords=((0, 1),),
        core_above=((),),
        column={1: [(0,)]},
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


def _lattice_counts(n, mode):
    """The full-lattice path, independent of count_chains."""
    return chain_counts(compute_chain_table(build_lattice(GroupParams(n), mode)))


def test_counts_depend_only_on_divisor_shape():
    # 2n = 2*5 vs 2*7, 2^2*5 vs 2^2*7, 2*3*5 vs 2*3*7
    for n_left, n_right in [(5, 7), (10, 14), (15, 21)]:
        for mode in ("all", "normal"):
            left = _lattice_counts(n_left, mode)
            right = _lattice_counts(n_right, mode)
            assert list(left.per_length) == list(right.per_length)


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
    # the full-lattice side materializes every strict pair; keep it small
    assume(divisor_count <= 360)
    return n


@settings(max_examples=30, deadline=None)
@given(_shapes(), st.sampled_from(["all", "normal"]))
def test_shape_count_equals_full_lattice(n, mode):
    assert count_chains(GroupParams(n), mode) == _lattice_counts(n, mode)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 6), st.sampled_from(["all", "normal"]))
def test_core_grid_dp_equals_full_lattice(e2, e3, mode):
    # 2n = 2^e2 * 3^e3: count_chains is the core closed form alone
    n = 2 ** (e2 - 1) * 3**e3
    assert count_chains(GroupParams(n), mode) == _lattice_counts(n, mode)


def _prefix_sums(grid: list[list[int]]) -> list[list[int]]:
    """out[i][j] = sum of grid[i'][j'] over i' <= i and j' <= j."""
    out, acc = [], [0] * len(grid[0])
    for row in grid:
        acc = list(map(add, acc, accumulate(row)))
        out.append(acc)
    return out


def _core_chain_counts(e2: int, e3: int, mode: str) -> list[int]:
    """c_1, c_2, ... of the core lattice of 2n' = 2^e2 * 3^e3, on its grid.

    The reference for the closed form: a level DP that applies the grid
    rules of the u6n.chains docstring directly.  Level k holds, for every
    nontrivial subgroup H, the number of strictly ascending chains of k+1
    subgroups from H up to G, and c_(k+1) is its sum.  f, c and g hold one
    level for F(t), C(t) and T(t, 1) = T(t, 2) at t = 2^i * 3^j, as rows i
    of columns j; both twisted nodes at a point carry the same value, since
    b -> b^-1, a -> a swaps them and fixes every other node.
    """
    zero = [0] * (e3 + 1)
    f = [[1] + zero[1:]] + [zero] * e2
    c = g = [zero] * (e2 + 1)
    counts = []
    while total := sum(map(sum, f)) + sum(map(sum, c)) + 2 * sum(map(sum, g)):
        counts.append(total)
        pf, pc = _prefix_sums(f), _prefix_sums(c)
        f = [list(map(sub, p, row)) for p, row in zip(pf, f)]
        c = [list(map(sub, map(add, p, q), row)) for p, q, row in zip(pf, pc, c)]
        if mode == "all":
            pg = _prefix_sums(g)
            # C at i >= 1 lies below both T at (0, j) and every T at j' < j
            c[1:] = [
                [x + 2 * (y + z) for x, y, z in zip(row, g[0], [0] + p[:-1])]
                for row, p in zip(c[1:], pg[1:])
            ]
            # T at i = 0: the odd column above it; T at i >= 1: the column
            # i' < i above it, which exists only where j < e3
            new_g = [list(map(add, pf[0], [0] + pg[0][:-1]))]
            column = zero
            for p, row in zip(pf[1:], g[1:]):
                new_g.append(list(map(add, p, column))[:e3] + [0])
                column = list(map(add, column, row))
            g = new_g
        else:
            c[0] = zero
        c[e2] = c[e2][:e3] + [0]
    return counts


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 40), st.sampled_from(["all", "normal"]))
def test_core_closed_form_equals_grid_dp(e2, e3, mode):
    assert list(shape_chain_counts(e2, e3, [], mode)) == _core_chain_counts(
        e2, e3, mode)


# the first n of every factorization shape of 2n within the oracle limit
SHAPE_FIRSTS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27,
                30, 32, 35, 36, 40, 45, 48, 50]


def test_shape_firsts_cover_every_shape():
    firsts = {}
    for n in range(1, DEFAULT_ORACLE_LIMIT // 6 + 1):
        firsts.setdefault(factorization_shape(2 * n), n)
    assert sorted(firsts.values()) == SHAPE_FIRSTS


@pytest.mark.parametrize("n", SHAPE_FIRSTS)
def test_count_chains_equals_oracle_on_every_shape(n):
    params = GroupParams(n)
    for mode in ("all", "normal"):
        assert list(count_chains(params, mode).per_length) == oracle_count_set_chains(
            params, normal_only=mode == "normal", include_trivial=False), mode


def test_height_at_the_limit_answers_and_above_it_raises():
    # 2n = 2 * 5^a has height a + 2
    per_length = shape_chain_counts(1, 0, [MAX_HEIGHT - 2], "normal")
    assert len(per_length) == MAX_HEIGHT and per_length[-1] > 0
    with pytest.raises(HeightLimitExceeded, match=f"height {MAX_HEIGHT + 1} "):
        shape_chain_counts(1, 0, [MAX_HEIGHT - 1], "normal")


def test_count_chains_builds_no_lattice(monkeypatch):
    expected = {mode: _lattice_counts(2**5 * 3**3 * 5 * 7, mode)
                for mode in ("all", "normal")}

    def forbidden(*args, **kwargs):
        raise AssertionError("the count path built a lattice")

    for module in (u6n, u6n.chains, u6n.lattice, u6n.subgroups):
        for name in ("build_lattice", "_strict_order_edges", "enumerate_subgroups",
                     "enumerate_normal_subgroups", "compute_chain_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for mode, counts in expected.items():
        assert count_chains(GroupParams(2**5 * 3**3 * 5 * 7), mode) == counts


def test_count_chains_rejects_bad_input():
    with pytest.raises(ValueError, match="mode must be one of"):
        count_chains(GroupParams(6), "odd")
    for e2, e3 in ((0, 0), (0, 1), (0, 2), (-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="^shape needs e2 >= 1 and e3 >= 0, got "):
            shape_chain_counts(e2, e3, [], "all")
    assert shape_chain_counts(1, 1, [1], "all") == count_chains(
        GroupParams(15), "all").per_length


# primes from 5 up to about 1e9; a composite here would fail the test below
LARGE_PRIMES = [5, 7, 11, 13, 17, 97, 101, 7919, 65537, 104729, 1299709,
                15485863, 32452843, 179424673, 982451653, 999999893,
                999999929, 999999937, 1000000007, 1000000009]


@st.composite
def _large_factorizations(draw):
    """A factorization of 2n: 2^e2 3^e3 times up to three drawn primes."""
    e2 = draw(st.integers(1, 6))
    e3 = draw(st.integers(0, 4))
    primes = draw(st.lists(st.sampled_from(LARGE_PRIMES), max_size=3, unique=True))
    factors = [(2, e2)] + ([(3, e3)] if e3 else [])
    return factors + [(p, draw(st.integers(1, 3))) for p in sorted(primes)]


@settings(max_examples=40, deadline=None)
@given(_large_factorizations())
def test_shape_invariance_on_large_n(factorization):
    two_n = prod(p**a for p, a in factorization)
    assert factorize(two_n) == factorization
    # the smallest n of the same shape puts the largest exponent on 5
    core = prod(p**a for p, a in factorization if p <= 3)
    exponents = sorted((a for p, a in factorization if p > 3), reverse=True)
    smallest = core * prod(p**a for p, a in zip((5, 7, 11), exponents))
    for mode in ("all", "normal"):
        big = count_chains(GroupParams(two_n // 2), mode)
        small = count_chains(GroupParams(smallest // 2), mode)
        assert big.per_length == small.per_length


@pytest.mark.parametrize(
    "mode, fuzzy",
    [("all", 32290146781568), ("normal", 11130418165376)],
)
def test_large_n_counts(mode, fuzzy):
    # 2n = 2^5 3^3 5^2 7 11 13 17; frozen after both paths agreed
    counts = count_chains(GroupParams(3491888400), mode)
    assert counts.fuzzy_count == fuzzy
    assert len(counts.per_length) == 16


def test_counts_validation():
    start = r"^chain counts must start with the single chain \(G\)$"
    tail = "^chain counts must be nonnegative with nonzero tail$"
    with pytest.raises(ValueError, match=start):
        ChainCounts(n=1, mode="all", per_length=())
    with pytest.raises(ValueError, match=start):
        ChainCounts(n=1, mode="all", per_length=(2, 1))
    with pytest.raises(ValueError, match=tail):
        ChainCounts(n=1, mode="all", per_length=(1, 0))
    with pytest.raises(ValueError, match=tail):
        ChainCounts(n=1, mode="all", per_length=(1, -2, 1))


def test_json_round_trip():
    counts = count_chains(GroupParams(6), "all")
    payload = counts.to_json_dict()
    assert all(isinstance(c, str) for c in payload["per_length"])
    assert payload["total"] == str(counts.total)

