"""The verification battery itself: green on the real code, loud on bugs."""

import json
from pathlib import Path

import pytest

from u6n import ChainCounts, GroupParams, count_chains, full
from u6n.chains import chain_counts, compute_chain_table
from u6n.lattice import build_lattice
from u6n.oracle import GroupOracle
from u6n.subgroups import enumerate_subgroups
from u6n.verify import (
    CheckResult,
    catalog_sets,
    check_containment,
    check_count_formula,
    check_divisor_shape_dependence,
    check_dp_vs_dfs,
    check_fuzzy_axioms,
    check_group_laws,
    check_hasse_closure,
    check_lattice_vs_oracle,
    check_normal_family,
    check_normal_in_supergroup,
    check_shape_vs_lattice,
    check_subgroup_closure,
    check_subgroup_family,
    render_report,
    report_json,
    run_verification,
)


def _table(n, mode):
    return compute_chain_table(build_lattice(GroupParams(n), mode))


def _fuzzy_counts(n_values):
    """n -> full-lattice fuzzy_count per mode, as run_verification keeps it."""
    return {
        n: tuple(chain_counts(_table(n, m)).fuzzy_count for m in ("all", "normal"))
        for n in n_values
    }


def test_full_battery_to_8():
    results = run_verification(8)
    assert results
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    names = {r.check for r in results}
    # every family of checks ran at least once
    assert {
        "count-formula",
        "group-laws",
        "subgroups-vs-oracle",
        "normality-vs-oracle",
        "normal-restriction",
        "membership-closed-form",
        "containment-closed-form",
        "subgroup-closure",
        "normal-in-supergroup",
        "lattice-order-laws[all]",
        "lattice-order-laws[normal]",
        "hasse-closure[all]",
        "hasse-closure[normal]",
        "dp-vs-dfs[all]",
        "dp-vs-dfs[normal]",
        "shape-vs-lattice[all]",
        "shape-vs-lattice[normal]",
        "set-chains[all]",
        "set-chains[normal]",
        "lattice-vs-oracle[all]",
        "lattice-vs-oracle[normal]",
        "fuzzy-axioms",
        "equivalence-classes",
        "shape-dependence",
    } <= names


def test_individual_checks_pass():
    params = GroupParams(3)
    assert check_group_laws(GroupOracle(params)).passed
    assert check_count_formula(params).passed
    oracle = GroupOracle(params, 300)
    sets = catalog_sets(oracle)
    assert check_subgroup_family(oracle, sets).passed
    assert check_containment(oracle, sets).passed
    assert check_normal_family(oracle, sets).passed
    assert check_dp_vs_dfs(_table(3, "all")).passed
    assert check_shape_vs_lattice(_table(35, "normal")).passed
    results = check_fuzzy_axioms(GroupOracle(params))
    assert [(r.check, r.passed) for r in results] == [
        ("fuzzy-axioms", True), ("equivalence-classes", True)
    ]


def test_fuzzy_axioms_name_a_failing_chain_through_e(monkeypatch):
    # an "oracle" that rejects every map where e alone holds the top grade:
    # the walk over the set chains with {e} must report the chain, not raise
    def rejecting(self, mu):
        top = max(mu.grades)
        return [i for i, g in enumerate(mu.grades) if g == top] != [self.identity]

    monkeypatch.setattr(GroupOracle, "is_fuzzy_subgroup", rejecting)
    results = {r.check: r for r in run_verification(2) if r.n == 2}
    fuzzy = results["fuzzy-axioms"]
    assert not fuzzy.passed
    assert fuzzy.detail.startswith("FG1/FG2 fail for chain {e} < {")
    assert results["equivalence-classes"].passed


def test_fuzzy_axioms_tie_normal_fuzzy_to_level_normality(monkeypatch):
    # an is_normal_fuzzy that accepts every map: the walk must name a chain
    # through a non-normal subgroup, by its element sets
    from u6n.verify import _set_name

    monkeypatch.setattr(GroupOracle, "is_normal_fuzzy", lambda self, mu: True)
    results = {r.check: r for r in run_verification(2) if r.n == 2}
    fuzzy = results["fuzzy-axioms"]
    assert not fuzzy.passed
    prefix = "mu(xy) = mu(yx) holds for chain "
    assert fuzzy.detail.startswith(prefix)
    oracle = GroupOracle(GroupParams(2))
    non_normal = {
        _set_name(oracle.element_set(h))
        for h in oracle.subgroups if not oracle.is_normal(h)
    }
    assert non_normal & set(fuzzy.detail[len(prefix):].split(" < "))
    assert results["equivalence-classes"].passed


def test_one_fuzzy_map_per_chain_and_level_set(monkeypatch):
    # each set chain, {e} included, builds its map and one re-levelled copy
    import u6n.oracle as oracle_module

    built = []
    real = oracle_module.FuzzyMap.__new__

    def counting(cls, params, grades):
        built.append(params.n)
        return real(cls, params, grades)

    monkeypatch.setattr(oracle_module.FuzzyMap, "__new__", staticmethod(counting))
    assert all(r.passed for r in run_verification(4))
    want = sum(
        2 * count_chains(GroupParams(n), "all").fuzzy_count for n in range(1, 5)
    )
    assert len(built) == want == 288


@pytest.mark.parametrize("shift", [(4, 0), (0, 3)])
def test_group_laws_catch_a_non_canonical_product(monkeypatch, shift):
    # a^(u+2n) b^v and a^u b^(v+3) are the right element in a wrong form:
    # the first falls off the table, the second aliases the index of
    # a^(u+1) b^v
    import u6n.oracle as oracle_module
    import u6n.verify as verify_module
    from u6n.group import Element, multiply

    params = GroupParams(2)
    a, b = Element(1, 0), Element(0, 1)

    def doctored(p, x, y):
        z = multiply(p, x, y)
        if (x, y) == (a, b):
            return Element(z.a_exp + shift[0], z.b_exp + shift[1])
        return z

    monkeypatch.setattr(oracle_module, "multiply", doctored)
    monkeypatch.setattr(verify_module, "multiply", doctored)
    result = check_group_laws(GroupOracle(params))
    assert not result.passed
    assert result.check == "group-laws"
    assert result.detail == "table differs from multiply at (a, b)"


def test_subgroup_family_reports_colliding_descriptors():
    oracle = GroupOracle(GroupParams(3))
    sets = catalog_sets(oracle)
    first, second = list(sets)[:2]
    sets[second] = sets[first]
    result = check_subgroup_family(oracle, sets)
    assert not result.passed
    assert result.detail == "descriptor element sets collide"


def test_oracle_limit_gates_the_fuzzy_checks():
    # order 30 > 24: no oracle at n = 5, so no fuzzy check either
    labels = {f"n={r.n} {r.check}" for r in run_verification(
        5, fuzzy_n_max=5, oracle_limit=24)}
    assert "n=4 fuzzy-axioms" in labels
    assert "n=5 fuzzy-axioms" not in labels
    assert "n=5 equivalence-classes" not in labels
    # the same one gate holds for the Element-level checks
    element_level = (
        "group-laws",
        "membership-closed-form",
        "containment-closed-form",
        "subgroup-closure",
        "normal-in-supergroup",
    )
    results = run_verification(6, oracle_limit=24)
    assert all(r.passed for r in results)
    labels = {f"n={r.n} {r.check}" for r in results}
    for check in element_level:
        assert f"n=4 {check}" in labels
        assert f"n=5 {check}" not in labels
        assert f"n=6 {check}" not in labels


def test_set_chains_run_once_per_factorization_shape():
    # only the first n <= 16 of each shape of 2n meets the oracle: 7, 11
    # and 13 share the shape of 5, and 14 that of 10
    results = run_verification(16)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    first_of_shape = {1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16}
    ran = {r.n for r in results if r.check.startswith("set-chains[")}
    assert ran == first_of_shape
    labels = {f"n={r.n} {r.check}" for r in results}
    for n in (8, 9, 10, 12, 15, 16):
        assert f"n={n} set-chains[all]" in labels
        assert f"n={n} set-chains[normal]" in labels
    # the Element-level checks take the same gate
    for check in (
        "membership-closed-form",
        "containment-closed-form",
        "subgroup-closure",
        "normal-in-supergroup",
    ):
        assert {r.n for r in results if r.check == check} == first_of_shape
        for n in (7, 11, 13, 14):
            assert f"n={n} {check}" not in labels
    # the s relabel depends on p mod 3 as well: lattice-vs-oracle runs at
    # every n within the oracle limit
    for mode in ("all", "normal"):
        ran = {r.n for r in results if r.check == f"lattice-vs-oracle[{mode}]"}
        assert ran == set(range(1, 17))


def test_catalog_sets_once_per_n_and_one_oracle_walk_per_chain_check(monkeypatch):
    # each catalog descriptor becomes an element set once per n, and each
    # set-chains or fuzzy-axioms check walks the oracle's chains once
    import u6n.verify as verify_module

    converted = []
    real_elements = verify_module.subgroup_elements

    def counting_elements(params, d):
        converted.append(params.n)
        return real_elements(params, d)

    walks = []
    real_walk = GroupOracle.set_chains

    def counting_walk(self, *args, **kwargs):
        walks.append(self.params.n)
        return real_walk(self, *args, **kwargs)

    monkeypatch.setattr(verify_module, "subgroup_elements", counting_elements)
    monkeypatch.setattr(GroupOracle, "set_chains", counting_walk)
    results = run_verification(8)
    assert all(r.passed for r in results)
    assert {n: converted.count(n) for n in range(1, 9)} == {
        n: len(enumerate_subgroups(GroupParams(n))) for n in range(1, 9)
    }
    chain_checks = [
        r.n for r in results
        if r.check.startswith("set-chains[") or r.check == "fuzzy-axioms"
    ]
    assert sorted(walks) == sorted(chain_checks)
    # two modes at the 7 first-of-shape n <= 8, fuzzy-axioms at n <= 4
    assert len(walks) == 2 * 7 + 4


def test_a_normal_descriptor_missing_from_the_catalog_is_a_failure(monkeypatch):
    # F(2) left out of the catalog but kept in the normal list: every check
    # that looks it up reports it, and the battery still runs to the end
    import u6n.verify as verify_module

    want = [f"n={r.n} {r.check}" for r in run_verification(2)]
    monkeypatch.setattr(
        verify_module, "enumerate_subgroups",
        lambda p: [d for d in enumerate_subgroups(p) if d != full(2)],
    )
    results = run_verification(2)
    assert [f"n={r.n} {r.check}" for r in results] == want
    failed = {r.check: r.detail for r in results if r.n == 2 and not r.passed}
    assert failed["normality-vs-oracle"] == "normal F(2) is not in the catalog"
    assert failed["normal-in-supergroup"] == "normal F(2) is not in the catalog"
    assert failed["normal-restriction"] == "node mismatch at F(2)"


def test_every_benchmark_label_runs_and_passes():
    # the benchmark's verify workload counts a frozen label that is missing
    # or failing as a failed output, so a check keeps its label until a
    # change to the benchmark drops it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "frozen_table.json"
    labels = json.loads(path.read_text())["verify"]
    assert sorted(labels) == ["12", "16"] and all(labels.values())
    for n_max in (12, 16):
        got = {f"n={r.n} {r.check}": r.passed for r in run_verification(n_max)}
        missing = [lbl for lbl in labels[str(n_max)] if got.get(lbl) is not True]
        assert not missing, (n_max, missing)


def test_one_lattice_and_chain_table_per_n_and_mode(monkeypatch):
    import u6n.verify as verify_module

    calls = {"build_lattice": 0, "compute_chain_table": 0}

    def counting(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn in (verify_module.build_lattice, verify_module.compute_chain_table):
        monkeypatch.setattr(verify_module, fn.__name__, counting(fn))
    assert all(r.passed for r in run_verification(8))
    assert calls == {"build_lattice": 16, "compute_chain_table": 16}


def test_one_group_oracle_per_n_within_the_limit(monkeypatch):
    import u6n.verify as verify_module

    built = []

    class CountingOracle(GroupOracle):
        def __init__(self, params, limit):
            built.append(params.n)
            super().__init__(params, limit)

    monkeypatch.setattr(verify_module, "GroupOracle", CountingOracle)
    assert all(r.passed for r in run_verification(8))
    assert built == list(range(1, 9))
    built.clear()
    assert all(r.passed for r in run_verification(8, oracle_limit=30))
    assert built == [1, 2, 3, 4, 5]


def test_oracle_checks_name_the_missing_subgroup():
    oracle = GroupOracle(GroupParams(2), 300)
    # drop the normal subgroup F(2) = <a^2, b> from the catalog
    sets = {d: h for d, h in catalog_sets(oracle).items() if d != full(2)}
    result = check_subgroup_family(oracle, sets)
    assert not result.passed
    assert result.detail == "oracle-only subgroup {a^2, a^2 b, a^2 b^2, b, b^2, e}"


def test_closure_checks_catch_a_corrupted_catalog_set():
    from u6n.subgroups import enumerate_normal_subgroups

    params = GroupParams(2)
    oracle = GroupOracle(params)
    lat = build_lattice(params, "normal")
    sets = catalog_sets(oracle)
    assert check_subgroup_closure(oracle, sets).passed
    assert check_normal_in_supergroup(oracle, sets, lat).passed
    # drop a non-identity element from a subgroup of order >= 3: x = y (y^-1 x)
    # with both factors kept, so the set is no longer product-closed
    bad = next(d for d, h in sets.items() if len(h) >= 3)
    dropped = next(x for x in sets[bad] if x != oracle.identity)
    result = check_subgroup_closure(oracle, {**sets, bad: sets[bad] - {dropped}})
    assert not result.passed
    assert result.check == "subgroup-closure"
    assert str(bad) in result.detail
    # give a normal node the elements of a non-normal subgroup: conjugation
    # by the whole group, a node above it, moves them
    normal = set(enumerate_normal_subgroups(params))
    outsider = next(d for d in sets if d not in normal)
    node = lat.nodes[next(i for i in range(len(lat.nodes)) if lat.row(i))]
    result = check_normal_in_supergroup(oracle, {**sets, node: sets[outsider]}, lat)
    assert not result.passed
    assert result.check == "normal-in-supergroup"
    assert result.detail.startswith(f"{node} not normal in ")


@pytest.mark.parametrize("n", [1, 2])
def test_fuzzy_axioms_cross_check_catches_a_wrong_pattern(monkeypatch, n):
    # dropping the pairs (e, y) merges the maps of H < G and {e} < H < G:
    # e's grade is the top one in both, and only row e tells them apart
    import u6n.verify as verify_module
    from u6n.oracle import comparison_pattern

    oracle = GroupOracle(GroupParams(n))
    for doctored in (lambda mu: (), lambda mu: comparison_pattern(mu)[len(mu.grades):]):
        monkeypatch.setattr(verify_module, "comparison_pattern", doctored)
        fuzzy, classes = check_fuzzy_axioms(oracle)
        assert (fuzzy.check, fuzzy.passed, fuzzy.detail) == (
            "fuzzy-axioms", False, "all-pairs equivalence cross-check failed"
        )
        assert classes.passed


def test_shape_vs_lattice_catches_mismatch(monkeypatch):
    import u6n.verify as verify_module

    wrong = ChainCounts(n=5, mode="all", per_length=(1, 2))
    monkeypatch.setattr(verify_module, "count_chains", lambda params, mode: wrong)
    result = check_shape_vs_lattice(_table(5, "all"))
    assert not result.passed
    assert "shape [1, 2] != lattice" in result.detail


def test_hasse_closure_catches_a_non_cover_edge(monkeypatch):
    import u6n.verify as verify_module
    from u6n.lattice import build_lattice, hasse_edges

    params = GroupParams(2)
    lat = build_lattice(params, "all")
    covers = hasse_edges(lat)
    # a strict pair i < k with some j between: its closure adds nothing new
    skip = min(
        (i, k) for i in range(len(lat.nodes)) for k in lat.row(i)
        if (i, k) not in covers
    )
    assert check_hasse_closure(lat).passed
    monkeypatch.setattr(verify_module, "hasse_edges",
                        lambda lat: sorted(set(covers) | {skip}))
    result = check_hasse_closure(lat)
    assert not result.passed
    assert result.check == "hasse-closure[all]"
    assert "is not a cover" in result.detail


def test_hasse_closure_names_a_missing_cover(monkeypatch):
    import u6n.verify as verify_module
    from u6n.lattice import build_lattice, hasse_edges

    # a middle cover at n = 6, and the least cover at n = 2
    for n, pick in ((6, lambda covers: covers[len(covers) // 2]), (2, min)):
        lat = build_lattice(GroupParams(n), "all")
        covers = hasse_edges(lat)
        i, j = dropped = pick(covers)
        assert check_hasse_closure(lat).passed
        with monkeypatch.context() as m:
            m.setattr(verify_module, "hasse_edges",
                      lambda lat: [e for e in covers if e != dropped])
            result = check_hasse_closure(lat)
        assert not result.passed
        assert result.check == "hasse-closure[all]"
        assert result.detail == f"{lat.nodes[i]} -> {lat.nodes[j]} is a missing cover"


def test_hasse_closure_needs_each_cover_once_and_in_order(monkeypatch):
    # write_json and dot_text print the covers as hasse_edges lists them
    import u6n.verify as verify_module
    from u6n.lattice import hasse_edges

    lat = build_lattice(GroupParams(6), "all")
    covers = hasse_edges(lat)
    assert covers == sorted(set(covers))
    k = len(covers) // 2
    (i, j), (a, b) = covers[k], covers[k + 1]
    twice = [*covers[:k + 1], (i, j), *covers[k + 1:]]
    swapped = [*covers[:k], (a, b), (i, j), *covers[k + 2:]]
    for listed, detail in (
        (twice, f"{lat.nodes[i]} -> {lat.nodes[j]} listed twice"),
        (swapped, f"{lat.nodes[i]} -> {lat.nodes[j]} out of order"),
    ):
        assert set(listed) == set(covers)  # the same covers as a set
        monkeypatch.setattr(verify_module, "hasse_edges", lambda lat: listed)
        result = check_hasse_closure(lat)
        assert not result.passed
        assert result.check == "hasse-closure[all]"
        assert result.detail == detail


def _add(covers, edge):
    return sorted([*covers, edge])


def _drop(covers, edge):
    return [e for e in covers if e != edge]


def _double(covers, edge):
    k = covers.index(edge)
    return [*covers[:k + 1], edge, *covers[k + 1:]]


def _swap(covers, edge):
    k = covers.index(edge)
    return [*covers[:k], covers[k + 1], edge, *covers[k + 2:]]


@pytest.mark.parametrize("kwargs, n, fault, edge, detail", [
    ({"n_max": 6}, 6, _add, ("C(2)", "F(1)"),
     "C(2) -> F(1) is not a cover: C(1) lies between"),
    ({"n_max": 6}, 6, _drop, ("F(3)", "F(1)"), "F(3) -> F(1) is a missing cover"),
    ({"n_max": 6}, 6, _double, ("F(3)", "F(1)"), "F(3) -> F(1) listed twice"),
    ({"n_max": 6}, 6, _swap, ("F(3)", "F(1)"), "F(3) -> F(1) out of order"),
    # no oracle check runs here: 2n = 28 repeats the shape of 2n = 20,
    # and |U_36| = 36 is above the limit
    ({"n_max": 16}, 14, _double, ("F(2)", "F(1)"), "F(2) -> F(1) listed twice"),
    ({"n_max": 6, "oracle_limit": 24}, 6, _double, ("F(3)", "F(1)"),
     "F(3) -> F(1) listed twice"),
], ids=["non-cover", "dropped", "doubled", "swapped", "repeat-shape",
        "above-oracle-limit"])
def test_hasse_closure_alone_owns_the_cover_list(
    monkeypatch, kwargs, n, fault, edge, detail
):
    # the fault is in the all-mode covers at n only
    import u6n.verify as verify_module
    from u6n.lattice import hasse_edges

    def doctored(lat):
        covers = hasse_edges(lat)
        if lat.params.n != n or lat.mode != "all":
            return covers
        names = [str(d) for d in lat.nodes]
        return fault(covers, (names.index(edge[0]), names.index(edge[1])))

    monkeypatch.setattr(verify_module, "hasse_edges", doctored)
    failed = [r for r in run_verification(**kwargs) if not r.passed]
    assert [(r.n, r.check, r.detail) for r in failed] == [
        (n, "hasse-closure[all]", detail)
    ]


def _mutated_coords(relabel_odd_t):
    """lattice._product_coords with the s relabel broken: left out, or
    applied to odd t instead of even t."""
    from math import gcd

    def coords(nodes, core_two_n):
        core = tuple(d for d in nodes if core_two_n % d.t == 0)
        core_index = {d: x for x, d in enumerate(core)}
        out = []
        for d in nodes:
            g = gcd(d.t, core_two_n)
            u = d.t // g
            if relabel_odd_t and d.s is not None and d.t % 2:
                s = d.s * u % 3
            else:
                s = d.s
            out.append((core_index[d.kind, g, s], u))
        return core, out

    return coords


@pytest.mark.parametrize("relabel_odd_t", [False, True])
def test_lattice_vs_oracle_catches_a_broken_s_relabel(monkeypatch, relabel_odd_t):
    import u6n.lattice as lattice_module

    monkeypatch.setattr(
        lattice_module, "_product_coords", _mutated_coords(relabel_odd_t)
    )
    results = run_verification(16)
    failed = [r for r in results if not r.passed]
    assert failed
    assert {r.check for r in failed} == {"lattice-vs-oracle[all]"}


def test_lattice_vs_oracle_names_the_differing_pair(monkeypatch):
    oracle = GroupOracle(GroupParams(2))
    sets = catalog_sets(oracle)
    lat = build_lattice(oracle.params, "all")
    assert check_lattice_vs_oracle(oracle, sets, lat).passed
    # a lattice whose row for node i also holds a node not above it
    i = 0
    outside = min(set(range(len(lat.nodes))) - set(lat.row(i)) - {i})
    real_row = type(lat).row
    monkeypatch.setattr(
        type(lat), "row",
        lambda self, k: real_row(self, k) + ([outside] if k == i else []),
    )
    result = check_lattice_vs_oracle(oracle, sets, lat)
    assert result.check == "lattice-vs-oracle[all]"
    assert result.detail == (
        f"{lat.nodes[i]} < {lat.nodes[outside]} is in the lattice only"
    )
    missing = {d: h for d, h in sets.items() if d != lat.nodes[i]}
    result = check_lattice_vs_oracle(oracle, missing, lat)
    assert result.detail == f"{lat.nodes[i]} is not in the catalog"


def test_group_laws_name_the_first_non_associative_triple(monkeypatch):
    # swap two entries of one row, away from e and x^-1: the identity and
    # inverse laws still hold, and multiply is doctored to match the table
    import itertools

    import u6n.verify as verify_module
    from u6n.group import format_element

    params = GroupParams(2)
    oracle = GroupOracle(params)
    mult, elems = oracle.mult, oracle.elements
    x = 1
    y1, y2 = [y for y in range(len(elems))
              if y not in (oracle.identity, oracle.inv[x])][:2]
    mult[x][y1], mult[x][y2] = mult[x][y2], mult[x][y1]
    index = {z: i for i, z in enumerate(elems)}
    monkeypatch.setattr(
        verify_module, "multiply", lambda p, a, b: elems[mult[index[a]][index[b]]]
    )
    first = next(
        (a, b, c) for a, b, c in itertools.product(range(len(elems)), repeat=3)
        if mult[mult[a][b]][c] != mult[a][mult[b][c]]
    )
    result = check_group_laws(oracle)
    names = ", ".join(format_element(elems[i]) for i in first)
    assert result.detail == f"associativity fails at ({names})"


def test_shape_dependence_reports_matches():
    results = check_divisor_shape_dependence(_fuzzy_counts([5, 7]))
    assert len(results) == 1
    assert results[0].passed
    assert "matches n=5" in results[0].detail
    counts = _fuzzy_counts([5, 7])
    counts[7] = (counts[7][0] + 2, counts[7][1])
    [result] = check_divisor_shape_dependence(counts)
    assert not result.passed
    assert "differ from n=5" in result.detail


def test_shape_dependence_keys_by_core_and_exponents():
    # 2n = 10 and 50 share the core 2 and one prime above 3, not its
    # exponent; 2n = 2 and 4 share the empty m, not the core
    assert check_divisor_shape_dependence(_fuzzy_counts([5, 25])) == []
    assert check_divisor_shape_dependence(_fuzzy_counts([1, 2])) == []


def test_render_report_formats():
    results = [
        CheckResult(n=1, check="demo", passed=True),
        CheckResult(n=2, check="demo", passed=False, detail="witness"),
    ]
    text = render_report(results)
    assert "n=1 demo: ok" in text
    assert "n=2 demo: FAIL (witness)" in text
    assert "1 of 2 checks FAILED" in text

    payload = report_json(results)
    assert payload["passed"] is False
    assert payload["checks"][1]["detail"] == "witness"


def test_all_green_report():
    text = render_report([CheckResult(n=1, check="demo", passed=True)])
    assert text.endswith("all 1 checks passed")


def test_run_verification_rejects_bad_range():
    with pytest.raises(ValueError):
        run_verification(0)
    with pytest.raises(ValueError):
        run_verification(3, oracle_limit=-5)
    with pytest.raises(ValueError):
        run_verification(3, fuzzy_n_max=-1)


def test_run_verification_calls_every_check():
    # a check_* function the battery never calls would pass silently
    import ast

    import u6n.verify as verify_module

    tree = ast.parse(Path(verify_module.__file__).read_text())
    defs = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    checks = {name for name in defs if name.startswith("check_")}
    called = {
        node.func.id
        for node in ast.walk(defs["run_verification"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert checks
    assert checks - called == set()
