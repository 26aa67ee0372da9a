"""Brute-force oracle: closure discovery, normality, fuzzy materialization."""

import ast
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u6n import (
    Element,
    GroupParams,
    OracleLimitExceeded,
    SubgroupDescriptor,
    all_elements,
    build_lattice,
    count_chains,
    enumerate_subgroups,
    inverse,
    multiply,
    subgroup_elements,
)
from u6n.chains import factorization_shape
from u6n.group import MODES
from u6n.oracle import (
    FuzzyMap,
    GroupOracle,
    _chain_map,
    comparison_pattern,
    lattice_chains,
    oracle_count_chains,
    oracle_count_set_chains,
    representative_from_sets,
)
from u6n.verify import catalog_sets, check_fuzzy_axioms, run_verification

D = SubgroupDescriptor


def _rep(params, chain, levels=None):
    """The representative of a descriptor chain, through verify's bridge."""
    sets = catalog_sets(GroupOracle(params), enumerate_subgroups(params, "all"))
    return representative_from_sets(params, [sets[d] for d in chain], levels)


def test_oracle_subgroup_counts():
    assert len(GroupOracle(GroupParams(1)).subgroups) == 6
    assert len(GroupOracle(GroupParams(2)).subgroups) == 8


def test_oracle_contains_trivial_and_whole():
    for n in (1, 2, 3, 4):
        params = GroupParams(n)
        oracle = GroupOracle(params)
        family = {oracle.element_set(h) for h in oracle.subgroups}
        assert frozenset({Element(0, 0)}) in family
        assert frozenset(all_elements(params)) in family


def test_oracle_matches_catalog():
    for n in range(1, 9):
        params = GroupParams(n)
        catalog = {
            subgroup_elements(params, d) for d in enumerate_subgroups(params, "all")
        }
        oracle = GroupOracle(params)
        assert {oracle.element_set(h) for h in oracle.subgroups} == catalog


def test_oracle_limit():
    params = GroupParams(51)  # order 306
    with pytest.raises(OracleLimitExceeded):
        GroupOracle(params)
    with pytest.raises(OracleLimitExceeded):
        GroupOracle(params, limit=305)
    assert len(GroupOracle(params, limit=306).elements) == 306


def test_normality_examples():
    params = GroupParams(1)
    oracle = GroupOracle(params)

    def is_normal(h_set):
        return oracle.is_normal(oracle.index_set(h_set))

    assert not is_normal(subgroup_elements(params, D("T", 1, 1)))
    assert is_normal(frozenset({Element(0, 0), Element(0, 1), Element(0, 2)}))
    assert is_normal(frozenset(all_elements(params)))
    # <a> has index 3 in U_6 and is not normal there
    assert not is_normal(subgroup_elements(params, D("C", 1)))


def test_oracle_normal_matches_catalog():
    for n in range(1, 9):
        params = GroupParams(n)
        catalog = {
            subgroup_elements(params, d)
            for d in enumerate_subgroups(params, "normal")
        }
        oracle = GroupOracle(params)
        assert {oracle.element_set(h) for h in oracle.normal_subgroups} == catalog


@pytest.mark.parametrize("n", range(1, 51))
def test_group_oracle_families_equal_the_catalog(n):
    # every n up to the order limit 300: guards discovery as the closure of
    # the cyclic subgroups under joins, and normality by conjugation on
    # the table
    params = GroupParams(n)
    oracle = GroupOracle(params)

    def index_sets(descs):
        return {oracle.index_set(subgroup_elements(params, d)) for d in descs}

    assert len(set(oracle.subgroups)) == len(oracle.subgroups)
    assert set(oracle.subgroups) == index_sets(enumerate_subgroups(params, "all"))
    normal = enumerate_subgroups(params, "normal")
    assert set(oracle.normal_subgroups) == index_sets(normal)


@pytest.mark.parametrize("n", range(1, 13))
def test_covers_are_exactly_the_inclusions_of_prime_index(n):
    # the premise of lattice.hasse_edges, on the brute-force families alone:
    # U_6n is supersolvable, so H < K has nothing strictly between iff
    # |K|/|H| is prime, among all subgroups and among the normal ones
    oracle = GroupOracle(GroupParams(n))
    for family in (oracle.subgroups, oracle.normal_subgroups):
        above = [{k for k, big in enumerate(family) if small < big}
                 for small in family]
        for h, ups in enumerate(above):
            covers = ups.difference(*(above[k] for k in ups))
            for k in ups:
                index = len(family[k]) // len(family[h])
                prime = all(index % d for d in range(2, index))
                assert (k in covers) == prime, (n, sorted(family[h]), sorted(family[k]))


@pytest.mark.parametrize("n", range(1, 51))
def test_cayley_table_is_the_literal_product_table(n):
    # the oracle calls multiply for the rows of b^0, b^1, b^2 only; every
    # n up to the order limit 300
    params = GroupParams(n)
    elems = all_elements(params)
    index = {x: i for i, x in enumerate(elems)}
    assert GroupOracle(params).mult == [
        [index[multiply(params, x, y)] for y in elems] for x in elems
    ]


def _conjugate(params, x, g):
    """g^-1 x g from multiply and inverse, not from the oracle's table."""
    return multiply(params, multiply(params, inverse(params, g), x), g)


@pytest.mark.parametrize("n", range(1, 13))
def test_is_normal_is_conjugation_by_every_element(n):
    params = GroupParams(n)
    oracle = GroupOracle(params)
    elems = oracle.elements
    for h in oracle.subgroups:
        members = oracle.element_set(h)
        assert oracle.is_normal(h) == all(
            _conjugate(params, x, g) in members for g in elems for x in members
        )


def _small_generators(oracle, h):
    """A generating tuple of h, built greedily in index order."""
    gens = ()
    for x in sorted(h):
        if x not in oracle.generated(gens):
            gens += (x,)
    return gens


@pytest.mark.parametrize("n", range(1, 13))
def test_coset_join_is_the_generated_subgroup(n):
    oracle = GroupOracle(GroupParams(n))
    for h in oracle.subgroups:
        gens = _small_generators(oracle, h)
        assert oracle.generated(gens) == h
        for g in range(len(oracle.elements)):
            assert oracle._join(h, gens + (g,)) == oracle.generated(gens + (g,))


@pytest.mark.parametrize("n", range(1, 13))
def test_power_walk_seeds_are_the_cyclic_subgroups(n):
    oracle = GroupOracle(GroupParams(n))
    order = len(oracle.elements)
    seeds = oracle.cyclic_subgroups
    assert set(seeds) == {oracle.generated((g,)) for g in range(order)}
    # each kept generator generates its subgroup and is its least generator
    for c, g in seeds.items():
        assert oracle.generated((g,)) == c
        assert g == min(x for x in range(order) if oracle.generated((x,)) == c)


@pytest.mark.parametrize("n", range(1, 13))
def test_classes_are_read_from_every_conjugation_row(n):
    # classes[x] holds the conjugates of x by every g, each read off row g
    params = GroupParams(n)
    oracle = GroupOracle(params)
    elems = oracle.elements
    assert [oracle.element_set(c) for c in oracle.classes] == [
        frozenset(_conjugate(params, x, g) for g in elems) for x in elems
    ]


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="reads the peak RSS from /proc")
def test_oracle_keeps_one_table_of_shared_ints():
    # mult is the only order x order structure, and its entries are one
    # int object per index: at order 1200 the subgroup and normal families
    # peak near 27 MB, where a table of fresh ints with its transpose and
    # conjugation rows peaked at 83 MB.  The peak is VmHWM, the child's own
    # high-water mark: ru_maxrss would carry over the peak of the process
    # that spawned it
    oracle = GroupOracle(GroupParams(50))  # ints above 256 are not cached
    assert not hasattr(oracle, "columns") and not hasattr(oracle, "conj")
    # every row but those of b^0, b^1, b^2, which keep multiply's own ints
    # so that group-laws still sees an index off the table
    assert len({id(x) for row in oracle.mult[3:] for x in row}) == len(oracle.elements)
    code = (
        "from u6n.group import GroupParams\n"
        "from u6n.oracle import GroupOracle\n"
        "oracle = GroupOracle(GroupParams(200), limit=1200)\n"
        "oracle.subgroups, oracle.normal_subgroups\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(l.split()[1] for l in status if l.startswith('VmHWM:')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 48 * 1024  # kB


def test_group_oracle_indices_follow_all_elements():
    params = GroupParams(4)
    oracle = GroupOracle(params)
    elems = all_elements(params)
    assert oracle.elements == elems
    assert oracle.index_set(elems) == frozenset(range(params.order))
    some = frozenset(elems[::5])
    assert oracle.element_set(oracle.index_set(some)) == some


def test_dfs_chain_counts():
    assert oracle_count_chains(build_lattice(GroupParams(1), "all")) == [1, 4]
    assert oracle_count_chains(build_lattice(GroupParams(2), "all")) == [1, 6, 5]
    for n in (1, 2, 3):
        for mode in ("all", "normal"):
            counts = oracle_count_chains(build_lattice(GroupParams(n), mode))
            assert counts[0] == 1


def test_set_chain_factor_two():
    for n in (1, 2, 3, 4):
        params = GroupParams(n)
        oracle = GroupOracle(params)
        whole = frozenset(range(params.order))
        for mode in ("all", "normal"):
            for chain in oracle.set_chains(mode):
                assert chain[-1] == whole
                assert all(small < big for small, big in zip(chain, chain[1:]))
            normal_only = mode == "normal"
            with_e = oracle_count_set_chains(params, normal_only=normal_only)
            without_e = oracle_count_set_chains(
                params, normal_only=normal_only, include_trivial=False
            )
            assert sum(with_e) == 2 * sum(without_e)
            counts = count_chains(params, mode)
            assert without_e == list(counts.per_length)
            assert sum(with_e) == counts.fuzzy_count


def test_set_chains_walk_the_family_of_the_mode():
    # U_6 has six subgroups, four of them normal: 10 chains end at G in
    # the whole family, {e} included, and 4 in the normal one
    oracle = GroupOracle(GroupParams(1))
    assert sum(1 for _ in oracle.set_chains("all")) == 10
    assert sum(1 for _ in oracle.set_chains("normal")) == 4
    normal = set(oracle.normal_subgroups)
    assert all(set(chain) <= normal for chain in oracle.set_chains("normal"))


@pytest.mark.parametrize("n", range(1, 17))
def test_normal_subgroups_and_set_chains_match_their_definitions(n):
    # normal_subgroups tests the oracle's own sets unchecked, and
    # set_chains looks for proper subsets only among the smaller sets
    # before each one: both answer as the public is_normal and the
    # all-pairs below lists do
    oracle = GroupOracle(GroupParams(n))
    normal = [h for h in oracle.subgroups if oracle.is_normal(h)]
    assert oracle.normal_subgroups == normal
    for mode, family in zip(MODES, (oracle.subgroups, oracle.normal_subgroups)):
        below = [[j for j, t in enumerate(family) if t < s] for s in family]

        def lengths(at, length):
            yield length
            for j in below[at]:
                yield from lengths(j, length + 1)

        want = Counter(lengths(len(family) - 1, 1))
        assert Counter(map(len, oracle.set_chains(mode))) == want


def test_the_oracle_does_not_recheck_its_own_sets(monkeypatch):
    # subgroups and normal_subgroups join and test sets the oracle made;
    # the public generated and is_normal still check what they are given
    import u6n.oracle as oracle_module

    calls = []
    real = oracle_module._check_ids
    monkeypatch.setattr(oracle_module, "_check_ids",
                        lambda *args: calls.append(args) or real(*args))
    oracle = GroupOracle(GroupParams(4))
    assert len(oracle.subgroups) > len(oracle.normal_subgroups) > 1
    assert calls == []
    oracle.generated((3,))
    oracle.is_normal(frozenset({0}))
    assert len(calls) == 2


@pytest.mark.parametrize("mode", [True, False, None, "bogus", "All", 0])
def test_set_chains_refuse_anything_but_a_mode(mode):
    # refused on the call, not on the first chain drawn
    with pytest.raises(ValueError, match="^mode must be one of"):
        GroupOracle(GroupParams(1)).set_chains(mode)


# (n, mode) -> oracle_count_set_chains(GroupParams(n), mode == "normal",
# include_trivial) for include_trivial False and True, frozen
_SET_CHAIN_COUNTS = {
    (1, "all"): ([1, 4], [1, 5, 4]),
    (1, "normal"): ([1, 1], [1, 2, 1]),
    (2, "all"): ([1, 6, 5], [1, 7, 11, 5]),
    (2, "normal"): ([1, 3, 2], [1, 4, 5, 2]),
    (3, "all"): ([1, 12, 14], [1, 13, 26, 14]),
    (3, "normal"): ([1, 4, 3], [1, 5, 7, 3]),
    (4, "all"): ([1, 8, 13, 6], [1, 9, 21, 19, 6]),
    (4, "normal"): ([1, 5, 7, 3], [1, 6, 12, 10, 3]),
    (5, "all"): ([1, 10, 12], [1, 11, 22, 12]),
    (5, "normal"): ([1, 4, 3], [1, 5, 7, 3]),
    (6, "all"): ([1, 18, 43, 26], [1, 19, 61, 69, 26]),
    (6, "normal"): ([1, 8, 15, 8], [1, 9, 23, 23, 8]),
    (7, "all"): ([1, 10, 12], [1, 11, 22, 12]),
    (7, "normal"): ([1, 4, 3], [1, 5, 7, 3]),
    (8, "all"): ([1, 10, 24, 22, 7], [1, 11, 34, 46, 29, 7]),
    (8, "normal"): ([1, 7, 15, 13, 4], [1, 8, 22, 28, 17, 4]),
    (9, "all"): ([1, 20, 49, 30], [1, 21, 69, 79, 30]),
    (9, "normal"): ([1, 7, 12, 6], [1, 8, 19, 18, 6]),
    (10, "all"): ([1, 14, 33, 20], [1, 15, 47, 53, 20]),
    (10, "normal"): ([1, 8, 15, 8], [1, 9, 23, 23, 8]),
    (11, "all"): ([1, 10, 12], [1, 11, 22, 12]),
    (11, "normal"): ([1, 4, 3], [1, 5, 7, 3]),
    (12, "all"): ([1, 24, 87, 106, 42], [1, 25, 111, 193, 148, 42]),
    (12, "normal"): ([1, 12, 36, 40, 15], [1, 13, 48, 76, 55, 15]),
}


@pytest.mark.parametrize("n, mode", sorted(_SET_CHAIN_COUNTS))
def test_oracle_count_set_chains_keeps_its_counts(n, mode):
    without_e, with_e = _SET_CHAIN_COUNTS[n, mode]
    params, normal_only = GroupParams(n), mode == "normal"
    assert oracle_count_set_chains(params, normal_only=normal_only) == with_e
    assert oracle_count_set_chains(
        params, normal_only=normal_only, include_trivial=False) == without_e


@pytest.mark.parametrize("n", range(1, 7))
def test_normalizer_is_conjugation_by_every_element(n):
    params = GroupParams(n)
    oracle = GroupOracle(params)
    elems = oracle.elements
    for h in oracle.subgroups:
        members = oracle.element_set(h)
        # the normalizer {g : g x g^-1 in h for all x in h}, from multiply
        # and inverse: h is normal exactly when it is the whole group
        want = oracle.index_set(
            g for g in elems
            if all(multiply(params, multiply(params, g, x), inverse(params, g))
                   in members for x in members)
        )
        assert (want == set(range(params.order))) == oracle.is_normal(h)


def test_fuzzy_map_validation():
    params = GroupParams(1)
    base = (Fraction(1),) * params.order
    assert FuzzyMap(params, base)[Element(1, 0)] == 1

    def with_a(grade):  # base with the grade of a, at index 3
        return base[:3] + (grade,) + base[4:]

    with pytest.raises(ValueError):
        FuzzyMap(params, base[:-1])  # one element without a grade
    with pytest.raises(ValueError):
        FuzzyMap(params, base + (Fraction(1),))

    with pytest.raises(ValueError):
        FuzzyMap(params, with_a(Fraction(3, 2)))
    with pytest.raises(ValueError):
        FuzzyMap(params, with_a(Fraction(-1, 2)))
    with pytest.raises(ValueError):
        FuzzyMap(params, with_a(0.5))
    with pytest.raises(ValueError, match="^grade True is not an exact rational$"):
        FuzzyMap(params, [True] * params.order)


def test_fuzzy_map_refuses_a_non_canonical_element():
    # at n = 2, b^3 is e and a^4 is e: read as 3u + v, Element(0, 3) would
    # be a's index and Element(4, 0) past the last one
    params = GroupParams(2)
    mu = representative_from_sets(
        params, [frozenset({0}), frozenset(range(params.order))]
    )
    assert mu[Element(1, 0)] == Fraction(1, 2)
    for x in (Element(0, 3), Element(4, 0), Element(-1, 0)):
        with pytest.raises(ValueError, match=r"is not a canonical element of U_12$"):
            mu[x]


def test_index_set_refuses_a_non_canonical_element():
    # Element(0, 3) and Element(-1, 0) would be the indices 3 and -3
    oracle = GroupOracle(GroupParams(2))
    assert oracle.index_set([Element(0, 1), Element(1, 0)]) == {1, 3}
    for x in (Element(0, 3), Element(-1, 0), Element(1.0, 0), (1, 0)):
        with pytest.raises(ValueError, match=r"is not a canonical element of U_12$"):
            oracle.index_set([Element(0, 0), x])


def test_element_set_refuses_an_index_outside_the_group():
    # -1 would read the last element, a^3 b^2
    oracle = GroupOracle(GroupParams(2))
    assert oracle.element_set([0, 11]) == {Element(0, 0), Element(3, 2)}
    for i in (-1, 12, True, 1.0):
        with pytest.raises(ValueError, match=f"^{i!r} is not an element index of U_12$"):
            oracle.element_set([0, i])


# -1 would read the last element and 12 is past the table; True and 1.0
# equal the index 1.  Before these methods refused them, generated((-1,))
# was {0, 5, 6, 11}, is_normal({12}) raised a bare IndexError,
# generated((True,)) answered {0, 1, 2} as for index 1 and
# generated((1.0,)) raised a bare TypeError
_BAD_ID = r"is not an element index of U_12$"
_BAD_IDS = [-1, 12, True, 1.0]


@pytest.mark.parametrize("i", _BAD_IDS)
def test_generated_refuses_an_index_outside_the_group(i):
    oracle = GroupOracle(GroupParams(2))
    assert oracle.generated((3,)) == {0, 3, 6, 9}
    with pytest.raises(ValueError, match=f"^{i!r} {_BAD_ID}"):
        oracle.generated((i,))


@pytest.mark.parametrize("i", _BAD_IDS)
def test_is_normal_refuses_an_index_outside_the_group(i):
    oracle = GroupOracle(GroupParams(2))
    assert oracle.is_normal(frozenset({0}))
    with pytest.raises(ValueError, match=f"^{i!r} {_BAD_ID}"):
        oracle.is_normal(frozenset({i}))


@pytest.mark.parametrize("i", [-1, 6, True, 3.0])
def test_representative_from_sets_refuses_what_element_set_refuses(i):
    # grades[True] would grade index 1 and grades[3.0] raise a bare TypeError
    params = GroupParams(1)
    whole = frozenset(range(params.order))
    assert representative_from_sets(params, [frozenset({0}), whole]).ranks == (
        1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=f"^{i!r} is not an element index of U_6$"):
        representative_from_sets(params, [frozenset({0, i}), whole])


def test_fuzzy_map_grades_are_read_only():
    # a grade changed after validation would leave ranks stale
    params = GroupParams(1)
    mu = FuzzyMap(params, (Fraction(1),) * params.order)
    with pytest.raises(TypeError):
        mu.grades[3] = Fraction(5)
    assert mu[Element(1, 0)] == 1
    assert GroupOracle(params).is_fuzzy_subgroup(mu)


def test_representative_construction():
    params = GroupParams(1)
    mu = _rep(params, [D("F", 2), D("F", 1)])
    for x in all_elements(params):
        expected = Fraction(1) if x.a_exp == 0 else Fraction(1, 2)
        assert mu[x] == expected
    assert len(set(mu.grades)) == 2

    constant = _rep(params, [D("F", 1)])
    assert set(constant.grades) == {Fraction(1)}
    assert GroupOracle(params).is_fuzzy_subgroup(constant)


def test_representative_validation():
    params = GroupParams(1)
    with pytest.raises(ValueError):
        _rep(params, [])
    with pytest.raises(ValueError):
        _rep(params, [D("F", 2)])  # must end at F(1)
    with pytest.raises(ValueError):
        _rep(params, [D("F", 1), D("F", 2)])
    with pytest.raises(ValueError):
        _rep(params, [D("F", 2), D("F", 1)], [Fraction(1)])
    with pytest.raises(ValueError):
        _rep(
            params, [D("F", 2), D("F", 1)], [Fraction(1, 2), Fraction(1, 2)]
        )
    with pytest.raises(ValueError):
        _rep(params, [D("F", 2), D("F", 1)], [1.0, 0.5])
    with pytest.raises(ValueError):
        _rep(params, [D("F", 2), D("F", 1)], [Fraction(3, 2), 1])
    with pytest.raises(ValueError):
        _rep(params, [D("F", 2), D("F", 1)], [1, Fraction(-1, 2)])
    with pytest.raises(ValueError, match="^grade True is not an exact rational$"):
        _rep(params, [D("F", 1)], [True])


def test_levels_need_not_start_at_one():
    params = GroupParams(1)
    mu = _rep(
        params, [D("F", 2), D("F", 1)], [Fraction(1, 3), Fraction(1, 7)]
    )
    assert GroupOracle(params).is_fuzzy_subgroup(mu)
    assert mu.ranks == _rep(params, [D("F", 2), D("F", 1)]).ranks


def test_fuzzy_axiom_checks():
    params = GroupParams(1)
    oracle = GroupOracle(params)
    grades = tuple(
        Fraction(1) if x.b_exp == 0 else Fraction(1, 2)
        for x in all_elements(params)
    )
    assert oracle.is_fuzzy_subgroup(FuzzyMap(params, grades))  # level set <a>

    spike = tuple(
        Fraction(1) if x == Element(1, 1) else Fraction(1, 2)
        for x in all_elements(params)
    )
    assert not oracle.is_fuzzy_subgroup(FuzzyMap(params, spike))  # {ab} not a subgroup


def test_fg1_violation_by_a_tiny_margin_is_rejected():
    params = GroupParams(1)
    oracle = GroupOracle(params)
    elems = all_elements(params)
    grades = [Fraction(1) if x.b_exp == 0 else Fraction(1, 2) for x in elems]
    assert oracle.is_fuzzy_subgroup(FuzzyMap(params, tuple(grades)))
    # b = a * (a b), where mu(a) = 1 and mu(a b) = 1/2
    grades[elems.index(Element(0, 1))] = Fraction(1, 2) - Fraction(1, 10**9)
    assert not oracle.is_fuzzy_subgroup(FuzzyMap(params, tuple(grades)))


def test_normal_fuzzy_with_close_levels():
    # the rank relabel keeps equal grades equal and close ones apart
    params = GroupParams(1)
    oracle = GroupOracle(params)
    levels = [Fraction(1, 2) + Fraction(1, 10**9), Fraction(1, 2)]
    assert oracle.is_normal_fuzzy(
        _rep(params, [D("F", 2), D("F", 1)], levels)
    )
    assert not oracle.is_normal_fuzzy(
        _rep(params, [D("C", 1), D("F", 1)], levels)
    )


def test_normal_fuzzy_examples():
    params = GroupParams(1)
    oracle = GroupOracle(params)
    assert oracle.is_normal_fuzzy(_rep(params, [D("F", 2), D("F", 1)]))
    assert not oracle.is_normal_fuzzy(
        _rep(params, [D("C", 1), D("F", 1)])
    )


def test_oracle_fuzzy_checks_run_on_its_own_tables():
    params = GroupParams(3)
    oracle = GroupOracle(params)
    elems = all_elements(params)
    for mode in ("all", "normal"):
        lat = build_lattice(params, mode)
        for chain in lattice_chains(lat):
            mu = _rep(params, [lat.nodes[i] for i in chain])
            # FG1/FG2 and mu(xy) = mu(yx) literally, on Elements and Fractions
            assert oracle.is_fuzzy_subgroup(mu) and all(
                mu[multiply(params, x, y)] >= min(mu[x], mu[y])
                and mu[inverse(params, x)] >= mu[x]
                for x in elems for y in elems
            )
            assert oracle.is_normal_fuzzy(mu) == all(
                mu[multiply(params, x, y)] == mu[multiply(params, y, x)]
                for x in elems for y in elems
            )
            if mode == "normal":
                assert oracle.is_normal_fuzzy(mu)
    spike = tuple(
        Fraction(1) if x == Element(1, 1) else Fraction(1, 2) for x in elems
    )
    assert not oracle.is_fuzzy_subgroup(FuzzyMap(params, spike))
    with pytest.raises(ValueError):
        GroupOracle(GroupParams(1)).is_fuzzy_subgroup(mu)


def test_equivalence_examples():
    params = GroupParams(1)
    mu = _rep(params, [D("F", 2), D("F", 1)])
    nu = _rep(
        params, [D("F", 2), D("F", 1)], [Fraction(1), Fraction(1, 3)]
    )
    assert mu.ranks == nu.ranks
    assert comparison_pattern(mu) == comparison_pattern(nu)
    other = _rep(params, [D("C", 1), D("F", 1)])
    assert mu.ranks != other.ranks
    assert comparison_pattern(mu) != comparison_pattern(other)


def test_comparison_pattern_is_the_strict_order_on_grades():
    params = GroupParams(1)
    mu = _rep(params, [D("F", 2), D("F", 1)])
    pattern = comparison_pattern(mu)
    order = params.order
    assert len(pattern) == order * order
    # F(2) = <b> holds e, b, b^2 at indices 0, 1, 2 with the top grade
    assert [i for i, p in enumerate(pattern) if p] == [
        x * order + y for x in range(3) for y in range(3, order)
    ]


def test_ranks_are_dense():
    params = GroupParams(2)
    mu = _rep(params, [D("C", 2), D("F", 2), D("F", 1)])
    assert set(mu.ranks) == {0, 1, 2}
    assert len(mu.ranks) == len(all_elements(params))


def test_signature_agrees_with_pairwise():
    params = GroupParams(1)
    lat = build_lattice(params, "all")
    reps = []
    for i in range(len(lat.nodes)):
        if lat.top_index in lat.row(i):
            reps.append(_rep(params, [lat.nodes[i], D("F", 1)]))
    for mu in reps:
        for nu in reps:
            assert (mu.ranks == nu.ranks) == (
                comparison_pattern(mu) == comparison_pattern(nu)
            )


# ties, and two grades a hair apart
_GRADE_POOL = (
    Fraction(0),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1, 2) + Fraction(1, 10**9),
    Fraction(1),
)


@st.composite
def _grade_maps(draw):
    params = draw(st.sampled_from([GroupParams(1), GroupParams(2)]))
    elems = all_elements(params)
    pick = st.sampled_from(_GRADE_POOL)
    mu = FuzzyMap(params, tuple(draw(pick) for _ in elems))
    if draw(st.booleans()):  # halving keeps the order pattern
        nu = FuzzyMap(params, tuple(g / 2 for g in mu.grades))
    else:
        nu = FuzzyMap(params, tuple(draw(pick) for _ in elems))
    return params, mu, nu


@settings(max_examples=200, deadline=None)
@given(_grade_maps())
def test_ranks_and_axioms_on_arbitrary_grade_maps(maps):
    params, mu, nu = maps
    oracle = GroupOracle(params)
    elems = all_elements(params)
    pairs = [(i, j) for i in range(len(elems)) for j in range(len(elems))]
    assert all(
        (mu.ranks[i] < mu.ranks[j]) == (mu[elems[i]] < mu[elems[j]])
        for i, j in pairs
    )
    assert (mu.ranks == nu.ranks) == (comparison_pattern(mu) == comparison_pattern(nu))
    # FG1/FG2 and mu(xy) = mu(yx) literally, on Elements and Fractions
    assert oracle.is_fuzzy_subgroup(mu) == all(
        mu[multiply(params, x, y)] >= min(mu[x], mu[y])
        and mu[inverse(params, x)] >= mu[x]
        for x in elems for y in elems
    )
    assert oracle.is_normal_fuzzy(mu) == all(
        mu[multiply(params, x, y)] == mu[multiply(params, y, x)]
        for x in elems for y in elems
    )


# p/q in [0, 1] for small q, so distinct pairs often name one grade
_GRADES = st.integers(1, 60).flatmap(
    lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))
)


@st.composite
def _tables_and_maps(draw):
    """A fresh oracle at n <= 3 whose mult and inv are overwritten with
    arbitrary entries in range(order), no group law kept, and a map of
    arbitrary grades.  The grades are drawn from a few values, so that
    maps of two grades, whose raised elements all have rank 1, are
    common, and inv is often x -> x, so that FG2 often holds."""
    oracle = GroupOracle(GroupParams(draw(st.integers(1, 3))))
    order = len(oracle.elements)
    entry = st.integers(0, order - 1)
    oracle.mult = draw(st.lists(st.lists(entry, min_size=order, max_size=order),
                                min_size=order, max_size=order))
    oracle.inv = draw(st.one_of(st.just(list(range(order))),
                                st.lists(entry, min_size=order, max_size=order)))
    pool = draw(st.lists(st.one_of(st.sampled_from(_GRADE_POOL), _GRADES),
                         min_size=1, max_size=4))
    grades = draw(st.lists(st.sampled_from(pool), min_size=order, max_size=order))
    return oracle, FuzzyMap(oracle.params, grades)


@settings(max_examples=200, deadline=None)
@given(_tables_and_maps())
def test_fg1_over_raised_elements_and_classes_on_any_table(drawn):
    # FG1 read over pairs of raised elements only, and the classes read
    # element by element, against the literal definitions on tables that
    # need not be a group's
    oracle, mu = drawn
    mult, inv, grades = oracle.mult, oracle.inv, mu.grades
    order = len(mult)
    assert oracle.is_fuzzy_subgroup(mu) == all(
        grades[mult[x][y]] >= min(grades[x], grades[y]) and grades[inv[x]] >= grades[x]
        for x in range(order) for y in range(order)
    )
    assert oracle.classes == [
        {inv[row[inv[row[x]]]] for row in mult} for x in range(order)
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(_GRADES, min_size=6, max_size=6))
def test_integer_grade_comparisons_match_fractions(grades):
    mu = FuzzyMap(GroupParams(1), tuple(grades))
    assert comparison_pattern(mu) == tuple(a > b for a in grades for b in grades)
    # the reference ranking: each grade's position among the sorted
    # distinct Fractions
    distinct = sorted(set(grades))
    assert mu.ranks == tuple(distinct.index(g) for g in grades)


def _oracle_source():
    import u6n.oracle as oracle_module

    return ast.parse(Path(oracle_module.__file__).read_text())


def _imported_names(tree):
    """Each module an import names, as a dotted u6n path where relative, and
    each module.name it imports from."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a relative import names a u6n module
                module = "u6n." + module if module else "u6n"
            imported.add(module)
            imported.update(f"{module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    return imported


def test_oracle_imports_nothing_from_the_paths_it_checks():
    imported = _imported_names(_oracle_source())
    for checked in ("u6n.chains", "u6n.verify"):
        assert not any(
            m == checked or m.startswith(checked + ".") for m in imported
        ), checked


def test_oracle_is_independent_of_the_catalog():
    # descriptors meet the oracle only in verify.catalog_sets
    tree = _oracle_source()
    imported = _imported_names(tree)
    assert not any(
        m == checked or m.startswith(checked + ".")
        for checked in ("u6n.subgroups", "subgroups") for m in imported
    ), imported
    names = {
        getattr(node, "name", None) or getattr(node, "id", None)
        or getattr(node, "attr", None)
        for node in ast.walk(tree)
    }
    assert "representative_from_sets" in names
    for gone in ("chain_to_representative", "equivalent", "equivalent_by_pairs"):
        assert gone not in names, gone


def test_representative_from_sets_checks_ascent():
    params = GroupParams(1)
    whole = frozenset(range(params.order))
    sub = GroupOracle(params).index_set(subgroup_elements(params, D("F", 2)))
    with pytest.raises(ValueError):
        representative_from_sets(params, [whole, sub])
    with pytest.raises(ValueError):
        representative_from_sets(params, [sub, sub])
    with pytest.raises(ValueError):
        representative_from_sets(params, [sub])  # does not reach the whole group
    with pytest.raises(ValueError):  # a level no element takes is still checked
        representative_from_sets(params, [frozenset(), whole], [2, 1])


@pytest.mark.parametrize("n", range(1, 5))
def test_default_levels_are_one_over_the_position(n):
    # the default levels are not checked, as they are valid by construction
    params = GroupParams(n)
    for chain in GroupOracle(params).set_chains("all"):
        levels = [Fraction(1, i) for i in range(1, len(chain) + 1)]
        assert representative_from_sets(params, chain) == representative_from_sets(
            params, chain, levels)


@pytest.mark.parametrize(
    "n", sorted({factorization_shape(2 * n): n for n in range(8, 0, -1)}.values()))
def test_unchecked_chain_map_is_representative_from_sets(n):
    # the fuzzy walk maps the oracle's own chains through _chain_map,
    # unchecked, with the default levels and the re-levels 2/(2i+1)
    params = GroupParams(n)
    for chain in GroupOracle(params).set_chains("all"):
        k = len(chain)
        for levels in ([Fraction(1, i) for i in range(1, k + 1)],
                       [Fraction(2, 2 * i + 1) for i in range(1, k + 1)]):
            fast = _chain_map(params, chain, levels)
            checked = representative_from_sets(params, chain, levels)
            assert (fast.grades, fast.ranks) == (checked.grades, checked.ranks)


@pytest.mark.parametrize("levels, message", [
    ([1, 1], "levels must be strictly decreasing"),
    ([Fraction(1, 2), 1], "levels must be strictly decreasing"),
    ([2, 1], r"levels must lie in \[0, 1\]"),
    ([1, -1], r"levels must lie in \[0, 1\]"),
    ([1], "expected 2 levels, got 1"),
])
def test_levels_the_caller_passes_are_checked(levels, message):
    params = GroupParams(1)
    oracle = GroupOracle(params)
    chain = (frozenset({oracle.identity}), frozenset(range(params.order)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        representative_from_sets(params, chain, levels)


def test_index_sets_and_descriptors_build_the_same_map():
    # a descriptor chain's map through catalog_sets grades each Element by
    # the first descriptor whose element set holds it, {e} included, laid
    # out in all_elements order
    for n in (1, 2, 3):
        params = GroupParams(n)
        lat = build_lattice(params, "all")
        for chain in lattice_chains(lat):
            descs = [lat.nodes[i] for i in chain]
            for descs in (descs, [D("C", params.two_n)] + descs):
                mu = _rep(params, descs)
                members = [subgroup_elements(params, d) for d in descs]
                assert all(
                    mu[x] == mu.grades[3 * x.a_exp + x.b_exp]
                    == Fraction(1, 1 + next(
                        i for i, h in enumerate(members) if x in h
                    ))
                    for x in all_elements(params)
                )


def test_equivalence_class_counts():
    # the equivalence-classes result passes iff the set chains give pairwise
    # distinct classes and as many as count_chains' doubled total
    labels = [(r.n, r.check) for r in run_verification(4)
              if r.check in ("fuzzy-axioms", "equivalence-classes")]
    assert labels == [
        (n, check) for n in (1, 2, 3, 4)
        for check in ("fuzzy-axioms", "equivalence-classes")
    ]
    got = {}
    for n in (1, 2, 3, 4):
        params = GroupParams(n)
        oracle = GroupOracle(params)
        fuzzy, classes = check_fuzzy_axioms(oracle, count_chains(params, "all"))
        assert fuzzy is None and classes is None
        got[n] = sum(1 for _ in oracle.set_chains("all"))
        assert got[n] % 2 == 0
        assert got[n] == count_chains(params, "all").fuzzy_count
    assert (got[1], got[2]) == (10, 24)
