"""Brute-force oracle: closure discovery, normality, fuzzy materialization."""

from fractions import Fraction

import pytest

from u6n import (
    Element,
    GroupParams,
    OracleLimitExceeded,
    all_elements,
    build_lattice,
    count_chains,
    cyclic,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    full,
    subgroup_elements,
    twisted,
)
from u6n.oracle import (
    FuzzyMap,
    chain_to_representative,
    equivalent,
    equivalent_by_pairs,
    is_fuzzy_subgroup,
    is_normal_fuzzy,
    oracle_all_subgroups,
    oracle_count_chains,
    oracle_count_equivalence_classes,
    oracle_count_set_chains,
    oracle_is_normal,
    oracle_normal_subgroups,
    rank_signature,
    representative_from_sets,
)


def test_oracle_subgroup_counts():
    assert len(oracle_all_subgroups(GroupParams(1))) == 6
    assert len(oracle_all_subgroups(GroupParams(2))) == 8


def test_oracle_contains_trivial_and_whole():
    for n in (1, 2, 3, 4):
        params = GroupParams(n)
        family = oracle_all_subgroups(params)
        assert frozenset({Element(0, 0)}) in family
        assert frozenset(all_elements(params)) in family


def test_oracle_matches_catalog():
    for n in range(1, 9):
        params = GroupParams(n)
        catalog = {
            subgroup_elements(params, d) for d in enumerate_subgroups(params)
        }
        assert oracle_all_subgroups(params) == catalog


def test_oracle_limit():
    params = GroupParams(51)  # order 306
    with pytest.raises(OracleLimitExceeded):
        oracle_all_subgroups(params)
    with pytest.raises(OracleLimitExceeded):
        oracle_is_normal(params, frozenset({Element(0, 0)}))


def test_normality_examples():
    params = GroupParams(1)
    assert not oracle_is_normal(params, subgroup_elements(params, twisted(1, 1)))
    assert oracle_is_normal(params, frozenset({Element(0, 0), Element(0, 1), Element(0, 2)}))
    assert oracle_is_normal(params, frozenset(all_elements(params)))
    # <a> has index 3 in U_6 and is not normal there
    assert not oracle_is_normal(params, subgroup_elements(params, cyclic(1)))


def test_oracle_normal_matches_catalog():
    for n in range(1, 9):
        params = GroupParams(n)
        catalog = {
            subgroup_elements(params, d)
            for d in enumerate_normal_subgroups(params)
        }
        assert oracle_normal_subgroups(params) == catalog


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
        for normal_only in (False, True):
            with_e = oracle_count_set_chains(params, normal_only=normal_only)
            without_e = oracle_count_set_chains(
                params, normal_only=normal_only, include_trivial=False
            )
            assert sum(with_e) == 2 * sum(without_e)
            counts = count_chains(params, "normal" if normal_only else "all")
            assert without_e == list(counts.per_length)
            assert sum(with_e) == counts.fuzzy_count


def test_fuzzy_map_validation():
    params = GroupParams(1)
    base = {x: Fraction(1) for x in all_elements(params)}
    assert FuzzyMap(params, base)[Element(1, 0)] == 1

    missing = dict(base)
    del missing[Element(1, 0)]
    with pytest.raises(ValueError):
        FuzzyMap(params, missing)

    with pytest.raises(ValueError):
        FuzzyMap(params, {**base, Element(1, 0): Fraction(3, 2)})
    with pytest.raises(ValueError):
        FuzzyMap(params, {**base, Element(1, 0): Fraction(-1, 2)})
    with pytest.raises(ValueError):
        FuzzyMap(params, {**base, Element(1, 0): 0.5})


def test_representative_construction():
    params = GroupParams(1)
    mu = chain_to_representative(params, [full(2), full(1)])
    for x in all_elements(params):
        expected = Fraction(1) if x.a_exp == 0 else Fraction(1, 2)
        assert mu[x] == expected
    assert len(set(mu.grades.values())) == 2

    constant = chain_to_representative(params, [full(1)])
    assert set(constant.grades.values()) == {Fraction(1)}
    assert is_fuzzy_subgroup(constant)


def test_representative_validation():
    params = GroupParams(1)
    with pytest.raises(ValueError):
        chain_to_representative(params, [])
    with pytest.raises(ValueError):
        chain_to_representative(params, [full(2)])  # must end at F(1)
    with pytest.raises(ValueError):
        chain_to_representative(params, [full(1), full(2)])
    with pytest.raises(ValueError):
        chain_to_representative(params, [full(2), full(1)], [Fraction(1)])
    with pytest.raises(ValueError):
        chain_to_representative(
            params, [full(2), full(1)], [Fraction(1, 2), Fraction(1, 2)]
        )
    with pytest.raises(ValueError):
        chain_to_representative(params, [full(2), full(1)], [1.0, 0.5])


def test_levels_need_not_start_at_one():
    params = GroupParams(1)
    mu = chain_to_representative(
        params, [full(2), full(1)], [Fraction(1, 3), Fraction(1, 7)]
    )
    assert is_fuzzy_subgroup(mu)
    assert equivalent(mu, chain_to_representative(params, [full(2), full(1)]))


def test_fuzzy_axiom_checks():
    params = GroupParams(1)
    grades = {
        x: Fraction(1) if x.b_exp == 0 else Fraction(1, 2)
        for x in all_elements(params)
    }
    assert is_fuzzy_subgroup(FuzzyMap(params, grades))  # level set <a>

    spike = {
        x: Fraction(1) if x == Element(1, 1) else Fraction(1, 2)
        for x in all_elements(params)
    }
    assert not is_fuzzy_subgroup(FuzzyMap(params, spike))  # {ab} not a subgroup


def test_normal_fuzzy_examples():
    params = GroupParams(1)
    assert is_normal_fuzzy(chain_to_representative(params, [full(2), full(1)]))
    assert not is_normal_fuzzy(chain_to_representative(params, [cyclic(1), full(1)]))


def test_equivalence_examples():
    params = GroupParams(1)
    mu = chain_to_representative(params, [full(2), full(1)])
    assert equivalent(mu, mu)
    nu = chain_to_representative(
        params, [full(2), full(1)], [Fraction(1), Fraction(1, 3)]
    )
    assert equivalent(mu, nu)
    assert equivalent_by_pairs(mu, nu)
    other = chain_to_representative(params, [cyclic(1), full(1)])
    assert not equivalent(mu, other)
    assert not equivalent_by_pairs(mu, other)


def test_equivalence_requires_same_group():
    mu = chain_to_representative(GroupParams(1), [full(1)])
    nu = chain_to_representative(GroupParams(2), [full(1)])
    with pytest.raises(ValueError):
        equivalent(mu, nu)


def test_rank_signature_is_dense():
    params = GroupParams(2)
    mu = chain_to_representative(params, [cyclic(2), full(2), full(1)])
    sig = rank_signature(mu)
    assert set(sig) == {0, 1, 2}
    assert len(sig) == len(all_elements(params))


def test_signature_agrees_with_pairwise():
    params = GroupParams(1)
    lat = build_lattice(params, "all")
    reps = []
    for i in range(len(lat.nodes)):
        if lat.top_index in lat.strictly_below[i]:
            reps.append(
                chain_to_representative(params, [lat.nodes[i], full(1)])
            )
    for mu in reps:
        for nu in reps:
            assert equivalent(mu, nu) == equivalent_by_pairs(mu, nu)


def test_representative_from_sets_checks_ascent():
    params = GroupParams(1)
    whole = frozenset(all_elements(params))
    sub = subgroup_elements(params, full(2))
    with pytest.raises(ValueError):
        representative_from_sets(params, [whole, sub])
    with pytest.raises(ValueError):
        representative_from_sets(params, [sub, sub])
    with pytest.raises(ValueError):
        representative_from_sets(params, [sub])  # does not reach the whole group


def test_equivalence_class_counts():
    assert oracle_count_equivalence_classes(GroupParams(1)) == 10
    assert oracle_count_equivalence_classes(GroupParams(2)) == 24
    for n in (1, 2, 3):
        params = GroupParams(n)
        got = oracle_count_equivalence_classes(params)
        assert got % 2 == 0
        assert got == count_chains(params, "all").fuzzy_count
