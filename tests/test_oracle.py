"""Brute-force oracle: closure discovery, normality, fuzzy materialization."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    inverse,
    multiply,
    subgroup_elements,
    twisted,
)
from u6n.oracle import (
    FuzzyMap,
    GroupOracle,
    comparison_pattern,
    lattice_chains,
    oracle_count_chains,
    oracle_count_set_chains,
    representative_from_sets,
)
from u6n.verify import catalog_sets, check_fuzzy_axioms


def _rep(params, chain, levels=None):
    """The representative of a descriptor chain, through verify's bridge."""
    sets = catalog_sets(GroupOracle(params))
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
            subgroup_elements(params, d) for d in enumerate_subgroups(params)
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

    assert not is_normal(subgroup_elements(params, twisted(1, 1)))
    assert is_normal(frozenset({Element(0, 0), Element(0, 1), Element(0, 2)}))
    assert is_normal(frozenset(all_elements(params)))
    # <a> has index 3 in U_6 and is not normal there
    assert not is_normal(subgroup_elements(params, cyclic(1)))


def test_oracle_normal_matches_catalog():
    for n in range(1, 9):
        params = GroupParams(n)
        catalog = {
            subgroup_elements(params, d)
            for d in enumerate_normal_subgroups(params)
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
    assert set(oracle.subgroups) == index_sets(enumerate_subgroups(params))
    assert set(oracle.normal_subgroups) == index_sets(enumerate_normal_subgroups(params))


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


@pytest.mark.parametrize("n", range(1, 13))
def test_is_normal_is_conjugation_by_every_element(n):
    params = GroupParams(n)
    oracle = GroupOracle(params)
    elems = oracle.elements
    index = {x: i for i, x in enumerate(elems)}

    def conjugate(x, g):
        return multiply(params, multiply(params, inverse(params, g), x), g)

    assert oracle.conj == [tuple(index[conjugate(x, g)] for x in elems) for g in elems]
    for h in oracle.subgroups:
        members = oracle.element_set(h)
        assert oracle.is_normal(h) == all(
            conjugate(x, g) in members for g in elems for x in members
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
            assert oracle.join(h, gens + (g,)) == oracle.generated(gens + (g,))


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
    oracle = GroupOracle(GroupParams(n))
    order = len(oracle.elements)
    assert oracle.classes == [
        frozenset(oracle.conj[g][x] for g in range(order)) for x in range(order)
    ]


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
        for normal_only in (False, True):
            for chain in oracle.set_chains(normal_only):
                assert chain[-1] == whole
                assert all(small < big for small, big in zip(chain, chain[1:]))
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
    mu = _rep(params, [full(2), full(1)])
    for x in all_elements(params):
        expected = Fraction(1) if x.a_exp == 0 else Fraction(1, 2)
        assert mu[x] == expected
    assert len(set(mu.grades)) == 2

    constant = _rep(params, [full(1)])
    assert set(constant.grades) == {Fraction(1)}
    assert GroupOracle(params).is_fuzzy_subgroup(constant)


def test_representative_validation():
    params = GroupParams(1)
    with pytest.raises(ValueError):
        _rep(params, [])
    with pytest.raises(ValueError):
        _rep(params, [full(2)])  # must end at F(1)
    with pytest.raises(ValueError):
        _rep(params, [full(1), full(2)])
    with pytest.raises(ValueError):
        _rep(params, [full(2), full(1)], [Fraction(1)])
    with pytest.raises(ValueError):
        _rep(
            params, [full(2), full(1)], [Fraction(1, 2), Fraction(1, 2)]
        )
    with pytest.raises(ValueError):
        _rep(params, [full(2), full(1)], [1.0, 0.5])
    with pytest.raises(ValueError):
        _rep(params, [full(2), full(1)], [Fraction(3, 2), 1])
    with pytest.raises(ValueError):
        _rep(params, [full(2), full(1)], [1, Fraction(-1, 2)])


def test_levels_need_not_start_at_one():
    params = GroupParams(1)
    mu = _rep(
        params, [full(2), full(1)], [Fraction(1, 3), Fraction(1, 7)]
    )
    assert GroupOracle(params).is_fuzzy_subgroup(mu)
    assert mu.ranks == _rep(params, [full(2), full(1)]).ranks


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
        _rep(params, [full(2), full(1)], levels)
    )
    assert not oracle.is_normal_fuzzy(
        _rep(params, [cyclic(1), full(1)], levels)
    )


def test_normal_fuzzy_examples():
    params = GroupParams(1)
    oracle = GroupOracle(params)
    assert oracle.is_normal_fuzzy(_rep(params, [full(2), full(1)]))
    assert not oracle.is_normal_fuzzy(
        _rep(params, [cyclic(1), full(1)])
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
    mu = _rep(params, [full(2), full(1)])
    nu = _rep(
        params, [full(2), full(1)], [Fraction(1), Fraction(1, 3)]
    )
    assert mu.ranks == nu.ranks
    assert comparison_pattern(mu) == comparison_pattern(nu)
    other = _rep(params, [cyclic(1), full(1)])
    assert mu.ranks != other.ranks
    assert comparison_pattern(mu) != comparison_pattern(other)


def test_comparison_pattern_is_the_strict_order_on_grades():
    params = GroupParams(1)
    mu = _rep(params, [full(2), full(1)])
    pattern = comparison_pattern(mu)
    order = params.order
    assert len(pattern) == order * order
    # F(2) = <b> holds e, b, b^2 at indices 0, 1, 2 with the top grade
    assert [i for i, p in enumerate(pattern) if p] == [
        x * order + y for x in range(3) for y in range(3, order)
    ]


def test_ranks_are_dense():
    params = GroupParams(2)
    mu = _rep(params, [cyclic(2), full(2), full(1)])
    assert set(mu.ranks) == {0, 1, 2}
    assert len(mu.ranks) == len(all_elements(params))


def test_signature_agrees_with_pairwise():
    params = GroupParams(1)
    lat = build_lattice(params, "all")
    reps = []
    for i in range(len(lat.nodes)):
        if lat.top_index in lat.row(i):
            reps.append(_rep(params, [lat.nodes[i], full(1)]))
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
    sub = GroupOracle(params).index_set(subgroup_elements(params, full(2)))
    with pytest.raises(ValueError):
        representative_from_sets(params, [whole, sub])
    with pytest.raises(ValueError):
        representative_from_sets(params, [sub, sub])
    with pytest.raises(ValueError):
        representative_from_sets(params, [sub])  # does not reach the whole group
    with pytest.raises(ValueError):  # a level no element takes is still checked
        representative_from_sets(params, [frozenset(), whole], [2, 1])


def test_index_sets_and_descriptors_build_the_same_map():
    # a descriptor chain's map through catalog_sets grades each Element by
    # the first descriptor whose element set holds it, {e} included, laid
    # out in all_elements order
    for n in (1, 2, 3):
        params = GroupParams(n)
        lat = build_lattice(params, "all")
        for chain in lattice_chains(lat):
            descs = [lat.nodes[i] for i in chain]
            for descs in (descs, [cyclic(params.two_n)] + descs):
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
    got = {}
    for n in (1, 2, 3, 4):
        params = GroupParams(n)
        oracle = GroupOracle(params)
        fuzzy, classes = check_fuzzy_axioms(oracle)
        assert (fuzzy.check, classes.check) == ("fuzzy-axioms", "equivalence-classes")
        assert fuzzy.passed and classes.passed
        got[n] = sum(1 for _ in oracle.set_chains())
        assert got[n] % 2 == 0
        assert got[n] == count_chains(params, "all").fuzzy_count
    assert (got[1], got[2]) == (10, 24)
