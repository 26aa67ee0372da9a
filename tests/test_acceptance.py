"""Acceptance battery: one test per criterion, each printing PASS or FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every numeric anchor here was first produced by the brute-force
oracle (closure discovery, DFS chain listing, exhaustive axiom checks)
and then frozen into the assertions.
"""

import time
from fractions import Fraction
from itertools import product

from u6n import (
    GroupParams,
    all_elements,
    build_lattice,
    chain_counts,
    compute_chain_table,
    count_chains,
    divisors,
    enumerate_subgroups,
    identity,
    inverse,
    multiply,
    subgroup_elements,
    twisted_exists,
)
from u6n.oracle import (
    GroupOracle,
    lattice_chains,
    oracle_count_chains,
    oracle_count_set_chains,
    representative_from_sets,
)
from u6n.verify import catalog_sets, check_fuzzy_axioms, run_verification


def _report(num: int, slug: str, ok: bool) -> bool:
    print(f"[acceptance] criterion {num} ({slug}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_subgroup_enumeration_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(1, 13):
        params = GroupParams(n)
        catalog = {
            subgroup_elements(params, d) for d in enumerate_subgroups(params, "all")
        }
        oracle = GroupOracle(params)
        ok = ok and catalog == {oracle.element_set(h) for h in oracle.subgroups}
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _report(1, "subgroup-enumeration-equivalence", ok), (
        f"elapsed {elapsed:.2f}s"
    )


def test_criterion_2_normality_equivalence():
    ok = True
    for n in range(1, 13):
        params = GroupParams(n)
        oracle = GroupOracle(params)
        normal_descs = set(enumerate_subgroups(params, "normal"))
        for d in enumerate_subgroups(params, "all"):
            is_normal = oracle.is_normal(
                oracle.index_set(subgroup_elements(params, d))
            )
            ok = ok and is_normal == (d in normal_descs)
            if d.kind == "T":
                ok = ok and not is_normal
            if d.kind == "F":
                ok = ok and is_normal
        catalog = {subgroup_elements(params, d) for d in normal_descs}
        discovered = {
            oracle.element_set(h) for h in oracle.subgroups if oracle.is_normal(h)
        }
        ok = ok and catalog == discovered
    assert _report(2, "normality-equivalence", ok)


def test_criterion_3_dp_vs_dfs():
    anchors = {
        (1, "all"): ([1, 4], 10),
        (1, "normal"): ([1, 1], 4),
        (2, "all"): ([1, 6, 5], 24),
        (2, "normal"): ([1, 3, 2], 12),
    }
    ok = True
    for n in range(1, 13):
        for mode in ("all", "normal"):
            lat = build_lattice(GroupParams(n), mode)
            counts = chain_counts(compute_chain_table(lat))
            ok = ok and list(counts.per_length) == oracle_count_chains(lat)
            if (n, mode) in anchors:
                per_length, fuzzy = anchors[(n, mode)]
                ok = ok and list(counts.per_length) == per_length
                ok = ok and counts.fuzzy_count == fuzzy
    assert _report(3, "dp-vs-dfs", ok)


def test_criterion_4_fuzzy_axioms_end_to_end():
    ok = True
    for n in range(1, 5):
        params = GroupParams(n)
        oracle = GroupOracle(params)
        catalog = catalog_sets(oracle, enumerate_subgroups(params, "all"))
        lat = build_lattice(params, "all")
        chains = list(lattice_chains(lat))
        signatures = set()
        for chain in chains:
            sets = [catalog[lat.nodes[i]] for i in chain]
            rep = representative_from_sets(params, sets)
            ok = ok and oracle.is_fuzzy_subgroup(rep)
            relevel = [Fraction(3, 3 + i) for i in range(1, len(sets) + 1)]
            ok = ok and rep.ranks == (
                representative_from_sets(params, sets, relevel).ranks
            )
            signatures.add(rep.ranks)
        ok = ok and len(signatures) == len(chains)  # pairwise inequivalent

        lat_normal = build_lattice(params, "normal")
        for chain in lattice_chains(lat_normal):
            sets = [catalog[lat_normal.nodes[i]] for i in chain]
            rep = representative_from_sets(params, sets)
            ok = ok and oracle.is_fuzzy_subgroup(rep) and oracle.is_normal_fuzzy(rep)

        counts = count_chains(params, "all")
        all_chains_total = sum(oracle_count_set_chains(params))
        ok = ok and all_chains_total == counts.fuzzy_count
        # distinct classes from the set chains, as many as the doubled total
        fuzzy, classes = check_fuzzy_axioms(oracle, counts)
        ok = ok and fuzzy is None and classes is None
    # run_verification reports the second answer as equivalence-classes
    ok = ok and [r.n for r in run_verification(4)
                 if r.check == "equivalence-classes" and r.passed] == [1, 2, 3, 4]
    assert _report(4, "fuzzy-axioms-end-to-end", ok)


def test_criterion_5_arithmetic_laws():
    ok = True
    for n in range(1, 5):
        params = GroupParams(n)
        elems = all_elements(params)
        e = identity()
        for x in elems:
            ok = ok and multiply(params, x, e) == x == multiply(params, e, x)
            ok = ok and multiply(params, x, inverse(params, x)) == e
            ok = ok and multiply(params, inverse(params, x), x) == e
        for x, y, z in product(elems, repeat=3):
            ok = ok and multiply(params, multiply(params, x, y), z) == multiply(
                params, x, multiply(params, y, z)
            )
    assert _report(5, "arithmetic-laws", ok)


def test_criterion_6_count_formula():
    ok = True
    for n in range(1, 201):
        params = GroupParams(n)
        divs = divisors(params.two_n)
        # divisor generation double-checked by trial division
        ok = ok and divs == [
            t for t in range(1, params.two_n + 1) if params.two_n % t == 0
        ]
        eligible = sum(1 for t in divs if twisted_exists(params, t))
        expected = 2 * len(divs) + 2 * eligible
        got = len(enumerate_subgroups(params, "all"))
        ok = ok and got == expected
        if n <= 12:
            ok = ok and len(GroupOracle(params).subgroups) == expected
    assert _report(6, "count-formula", ok)


def test_criterion_7_scalability():
    n = 360360
    params = GroupParams(n)
    start = time.perf_counter()
    first_all = count_chains(params, "all")
    first_normal = count_chains(params, "normal")
    second_all = count_chains(params, "all")
    second_normal = count_chains(params, "normal")
    large = GroupParams(3491888400)
    large_all = count_chains(large, "all")
    large_normal = count_chains(large, "normal")
    elapsed = time.perf_counter() - start

    ok = elapsed < 10.0
    ok = ok and first_all.fuzzy_count % 2 == 0
    ok = ok and first_normal.fuzzy_count % 2 == 0
    ok = ok and first_all == second_all
    ok = ok and first_normal == second_normal
    ok = ok and first_normal.fuzzy_count <= first_all.fuzzy_count
    ok = ok and isinstance(first_all.fuzzy_count, int)
    ok = ok and first_all.fuzzy_count > 0
    ok = ok and large_all.fuzzy_count == 32290146781568
    ok = ok and large_normal.fuzzy_count == 11130418165376
    assert _report(7, "scalability-360360", ok), f"elapsed {elapsed:.2f}s"


def test_criterion_8_murali_makamba_identity():
    ok = True
    for n in list(range(1, 31)) + [360360]:
        params = GroupParams(n)
        for mode in ("all", "normal"):
            counts = count_chains(params, mode)
            ok = ok and counts.mm_count == 2 * counts.fuzzy_count - 1
            payload = counts.to_json_dict()
            ok = ok and int(payload["mm_count"]) == 2 * int(payload["fuzzy_count"]) - 1
    assert _report(8, "murali-makamba-identity", ok)
