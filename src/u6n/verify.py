"""Cross-checks of every fast-path claim against the brute-force oracle.

Each check compares a closed-form or DP result with an exhaustive
recomputation and reports a counterexample on mismatch.  Checks carry
their own cost gates (a maximum group order or n), so running the full
battery up to some n_max only executes what is tractable at each n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .chains import chain_counts, compute_chain_table, count_chains
from .group import (
    DEFAULT_ORACLE_LIMIT,
    GroupParams,
    all_elements,
    format_element,
    identity,
    inverse,
    multiply,
    power,
)
from .lattice import build_lattice, hasse_edges, height
from .oracle import (
    chain_to_representative,
    equivalent,
    equivalent_by_pairs,
    is_fuzzy_subgroup,
    is_normal_fuzzy,
    lattice_chains,
    oracle_all_subgroups,
    oracle_count_chains,
    oracle_count_equivalence_classes,
    oracle_count_set_chains,
    oracle_is_normal,
    rank_signature,
)
from .subgroups import (
    contains_element,
    divisors,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    factorize,
    subgroup_elements,
    subgroup_leq,
    twisted_exists,
)


@dataclass(frozen=True)
class CheckResult:
    n: int
    check: str
    passed: bool
    detail: str = ""


def _ok(n: int, check: str) -> CheckResult:
    return CheckResult(n=n, check=check, passed=True)


def _fail(n: int, check: str, detail: str) -> CheckResult:
    return CheckResult(n=n, check=check, passed=False, detail=detail)


def _set_name(s: frozenset) -> str:
    return "{" + ", ".join(sorted(format_element(x) for x in s)) + "}"


def check_group_laws(params: GroupParams) -> CheckResult:
    """Associativity, identity, inverses, and powers against iteration."""
    name = "group-laws"
    n = params.n
    elems = all_elements(params)
    e = identity(params)
    for x in elems:
        if multiply(params, x, e) != x or multiply(params, e, x) != x:
            return _fail(n, name, f"identity law fails at {format_element(x)}")
        x_inv = inverse(params, x)
        if multiply(params, x, x_inv) != e or multiply(params, x_inv, x) != e:
            return _fail(n, name, f"inverse law fails at {format_element(x)}")
    for x, y, z in itertools.product(elems, repeat=3):
        if multiply(params, multiply(params, x, y), z) != multiply(
            params, x, multiply(params, y, z)
        ):
            return _fail(
                n,
                name,
                "associativity fails at "
                f"({format_element(x)}, {format_element(y)}, {format_element(z)})",
            )
    for x in elems:
        acc = e
        for k in range(3 * params.order + 1):
            if power(params, x, k) != acc:
                return _fail(
                    n, name, f"power mismatch at {format_element(x)}^{k}"
                )
            acc = multiply(params, acc, x)
    return _ok(n, name)


def check_count_formula(params: GroupParams) -> CheckResult:
    """Subgroup totals against the divisor-sum expressions."""
    name = "count-formula"
    divs = divisors(params.two_n)
    eligible = sum(1 for t in divs if twisted_exists(params, t))
    want_all = 2 * len(divs) + 2 * eligible
    want_normal = len(divs) + sum(1 for t in divs if t % 2 == 0)
    got_all = len(enumerate_subgroups(params, check_exclusive=False))
    got_normal = len(enumerate_normal_subgroups(params))
    if got_all != want_all:
        return _fail(params.n, name, f"all: expected {want_all}, got {got_all}")
    if got_normal != want_normal:
        return _fail(
            params.n, name, f"normal: expected {want_normal}, got {got_normal}"
        )
    return _ok(params.n, name)


def check_subgroup_family(params: GroupParams, limit: int) -> CheckResult:
    """Catalog element sets == closure-discovered subgroup family."""
    name = "subgroups-vs-oracle"
    catalog = {subgroup_elements(params, d) for d in enumerate_subgroups(params)}
    discovered = oracle_all_subgroups(params, limit)
    if catalog != discovered:
        diff = next(iter(catalog.symmetric_difference(discovered)))
        side = "catalog-only" if diff in catalog else "oracle-only"
        return _fail(params.n, name, f"{side} subgroup {_set_name(diff)}")
    return _ok(params.n, name)


def check_normal_family(params: GroupParams, limit: int) -> CheckResult:
    """Normal catalog == conjugation-filtered oracle list, kind by kind."""
    name = "normality-vs-oracle"
    normal_descs = set(enumerate_normal_subgroups(params))
    for d in enumerate_subgroups(params):
        expected = d in normal_descs
        h_set = subgroup_elements(params, d)
        if oracle_is_normal(params, h_set, limit) != expected:
            verdict = "should be normal" if expected else "should not be normal"
            return _fail(params.n, name, f"{d} {verdict} per conjugation")
    catalog = {subgroup_elements(params, d) for d in normal_descs}
    discovered = {
        h for h in oracle_all_subgroups(params, limit)
        if oracle_is_normal(params, h, limit)
    }
    if catalog != discovered:
        diff = next(iter(catalog.symmetric_difference(discovered)))
        side = "catalog-only" if diff in catalog else "oracle-only"
        return _fail(params.n, name, f"{side} normal subgroup {_set_name(diff)}")
    return _ok(params.n, name)


def check_membership(params: GroupParams) -> CheckResult:
    """contains_element == literal element-set membership."""
    name = "membership-closed-form"
    for d in enumerate_subgroups(params):
        members = subgroup_elements(params, d)
        for x in all_elements(params):
            if contains_element(params, d, x) != (x in members):
                return _fail(
                    params.n, name, f"{d} disagrees at {format_element(x)}"
                )
    return _ok(params.n, name)


def check_containment(params: GroupParams) -> CheckResult:
    """subgroup_leq == element-set inclusion, and partial-order laws."""
    name = "containment-closed-form"
    descs = enumerate_subgroups(params)
    sets = {d: subgroup_elements(params, d) for d in descs}
    leq = {}
    for d1 in descs:
        for d2 in descs:
            got = subgroup_leq(params, d1, d2)
            if got != (sets[d1] <= sets[d2]):
                return _fail(params.n, name, f"leq({d1}, {d2}) = {got} is wrong")
            leq[d1, d2] = got
    for d in descs:
        if not leq[d, d]:
            return _fail(params.n, name, f"leq not reflexive at {d}")
    for d1, d2 in itertools.permutations(descs, 2):
        if leq[d1, d2] and leq[d2, d1]:
            return _fail(params.n, name, f"antisymmetry fails at {d1}, {d2}")
    for d1, d2, d3 in itertools.product(descs, repeat=3):
        if leq[d1, d2] and leq[d2, d3] and not leq[d1, d3]:
            return _fail(
                params.n, name, f"transitivity fails at {d1} <= {d2} <= {d3}"
            )
    return _ok(params.n, name)


def check_subgroup_closure(params: GroupParams) -> CheckResult:
    """Each catalog element set is closed under multiply and inverse."""
    name = "subgroup-closure"
    for d in enumerate_subgroups(params):
        members = subgroup_elements(params, d)
        for x in members:
            if inverse(params, x) not in members:
                return _fail(
                    params.n, name, f"{d} not inverse-closed at {format_element(x)}"
                )
            for y in members:
                if multiply(params, x, y) not in members:
                    return _fail(
                        params.n,
                        name,
                        f"{d} not product-closed at "
                        f"{format_element(x)} * {format_element(y)}",
                    )
    return _ok(params.n, name)


def check_lattice_order_laws(params: GroupParams, mode: str) -> CheckResult:
    """strictly_below is irreflexive, antisymmetric, and transitive."""
    name = f"lattice-order-laws[{mode}]"
    lat = build_lattice(params, mode)
    below = lat.strictly_below
    for i in range(len(lat.nodes)):
        if i in below[i]:
            return _fail(params.n, name, f"self-edge at {lat.nodes[i]}")
        for j in below[i]:
            if i in below[j]:
                return _fail(
                    params.n, name, f"2-cycle {lat.nodes[i]}, {lat.nodes[j]}"
                )
            for k in below[j]:
                if k not in below[i]:
                    return _fail(
                        params.n,
                        name,
                        f"transitivity fails: {lat.nodes[i]} < {lat.nodes[j]} "
                        f"< {lat.nodes[k]}",
                    )
    return _ok(params.n, name)


def check_normal_restriction(params: GroupParams, limit: int) -> CheckResult:
    """Normal lattice == full lattice restricted to oracle-normal nodes."""
    name = "normal-restriction"
    lat_all = build_lattice(params, "all")
    lat_normal = build_lattice(params, "normal")
    normal_sets = {
        h for h in oracle_all_subgroups(params, limit)
        if oracle_is_normal(params, h, limit) and len(h) > 1
    }
    want_nodes = {
        d for d in lat_all.nodes
        if subgroup_elements(params, d) in normal_sets
    }
    if set(lat_normal.nodes) != want_nodes:
        diff = next(iter(set(lat_normal.nodes) ^ want_nodes))
        return _fail(params.n, name, f"node mismatch at {diff}")
    index_all = {d: i for i, d in enumerate(lat_all.nodes)}
    for i, d1 in enumerate(lat_normal.nodes):
        for j, d2 in enumerate(lat_normal.nodes):
            in_normal = j in lat_normal.strictly_below[i]
            in_all = index_all[d2] in lat_all.strictly_below[index_all[d1]]
            if in_normal != in_all:
                return _fail(
                    params.n, name, f"relation differs at {d1} < {d2}"
                )
    return _ok(params.n, name)


def check_normal_in_supergroup(params: GroupParams) -> CheckResult:
    """Each normal node is normal inside every node above it, not just in G."""
    name = "normal-in-supergroup"
    lat = build_lattice(params, "normal")
    sets = [subgroup_elements(params, d) for d in lat.nodes]
    for i, ups in enumerate(lat.strictly_below):
        for j in ups:
            h, k = sets[i], sets[j]
            for g in k:
                g_inv = inverse(params, g)
                for x in h:
                    if multiply(params, multiply(params, g_inv, x), g) not in h:
                        return _fail(
                            params.n,
                            name,
                            f"{lat.nodes[i]} not normal in {lat.nodes[j]} "
                            f"(conjugation by {format_element(g)})",
                        )
    return _ok(params.n, name)


def check_hasse_closure(params: GroupParams, mode: str) -> CheckResult:
    """Transitive closure of the Hasse edges reproduces the strict order."""
    name = f"hasse-closure[{mode}]"
    lat = build_lattice(params, mode)
    count = len(lat.nodes)
    closure: list[set[int]] = [set() for _ in range(count)]
    for i, j in hasse_edges(lat):
        closure[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(count):
            extra = set().union(*(closure[j] for j in closure[i])) - closure[i]
            if extra:
                closure[i] |= extra
                changed = True
    for i in range(count):
        if closure[i] != set(lat.strictly_below[i]):
            return _fail(params.n, name, f"closure differs at {lat.nodes[i]}")
    return _ok(params.n, name)


def check_dp_vs_dfs(params: GroupParams, mode: str) -> CheckResult:
    """DP per-length chain counts == explicit DFS enumeration."""
    name = f"dp-vs-dfs[{mode}]"
    lat = build_lattice(params, mode)
    table = compute_chain_table(lat)
    counts = chain_counts(table)
    dfs = oracle_count_chains(lat)
    if list(counts.per_length) != dfs:
        return _fail(
            params.n,
            name,
            f"DP {list(counts.per_length)} != DFS {dfs}",
        )
    if len(table.levels) > height(lat):
        return _fail(params.n, name, "level table exceeds lattice height")
    if any(table.levels[k][lat.top_index] != 0 for k in range(1, len(table.levels))):
        return _fail(params.n, name, "top node recounted beyond level 0")
    return _ok(params.n, name)


def check_set_chains(params: GroupParams, mode: str, limit: int) -> CheckResult:
    """Catalog-free chain counts over oracle sets match the DP, and the
    with-trivial total is exactly twice the proper total."""
    name = f"set-chains[{mode}]"
    normal_only = mode == "normal"
    counts = count_chains(params, mode)
    proper = oracle_count_set_chains(
        params, normal_only=normal_only, include_trivial=False, limit=limit
    )
    if proper != list(counts.per_length):
        return _fail(
            params.n, name, f"set DFS {proper} != DP {list(counts.per_length)}"
        )
    with_trivial = oracle_count_set_chains(
        params, normal_only=normal_only, include_trivial=True, limit=limit
    )
    if sum(with_trivial) != counts.fuzzy_count:
        return _fail(
            params.n,
            name,
            f"all-chain total {sum(with_trivial)} != doubled proper total "
            f"{counts.fuzzy_count}",
        )
    return _ok(params.n, name)


def check_fuzzy_axioms(params: GroupParams) -> CheckResult:
    """Every chain representative is a fuzzy subgroup; normal chains give
    normal ones; distinct chains are inequivalent; re-leveling is neutral."""
    name = "fuzzy-axioms"
    lat = build_lattice(params, "all")
    seen: dict[tuple[int, ...], str] = {}
    reps = []
    for chain in lattice_chains(lat):
        descs = [lat.nodes[i] for i in chain]
        label = " < ".join(str(d) for d in descs)
        rep = chain_to_representative(params, descs)
        if not is_fuzzy_subgroup(rep):
            return _fail(params.n, name, f"FG1/FG2 fail for chain {label}")
        relevel = [Fraction(2, 2 * i + 1) for i in range(1, len(descs) + 1)]
        if not equivalent(rep, chain_to_representative(params, descs, relevel)):
            return _fail(params.n, name, f"re-leveling broke chain {label}")
        sig = rank_signature(rep)
        if sig in seen:
            return _fail(
                params.n, name, f"chains {seen[sig]} and {label} collide under ~"
            )
        seen[sig] = label
        reps.append((sig, rep))
    if params.n <= 2:
        # the rank-signature shortcut against the literal all-pairs relation
        for (s1, r1), (s2, r2) in itertools.combinations(reps, 2):
            if equivalent_by_pairs(r1, r2) != (s1 == s2):
                return _fail(
                    params.n, name, "all-pairs equivalence cross-check failed"
                )
    lat_n = build_lattice(params, "normal")
    for chain in lattice_chains(lat_n):
        descs = [lat_n.nodes[i] for i in chain]
        rep = chain_to_representative(params, descs)
        if not is_normal_fuzzy(rep):
            return _fail(
                params.n,
                name,
                "mu(xy) = mu(yx) fails for chain "
                + " < ".join(str(d) for d in descs),
            )
    return _ok(params.n, name)


def check_equivalence_count(params: GroupParams, limit: int) -> CheckResult:
    """Materialized equivalence classes == doubled DP chain total."""
    name = "equivalence-classes"
    want = count_chains(params, "all").fuzzy_count
    got = oracle_count_equivalence_classes(params, limit)
    if got != want:
        return _fail(params.n, name, f"oracle {got} != DP {want}")
    return _ok(params.n, name)


def _shape(two_n: int) -> tuple:
    """Factorization shape of 2n with the primes 2 and 3 pinned."""
    e2 = e3 = 0
    rest = []
    for p, e in factorize(two_n):
        if p == 2:
            e2 = e
        elif p == 3:
            e3 = e
        else:
            rest.append(e)
    return (e2, e3, tuple(sorted(rest)))


def check_divisor_shape_dependence(n_values: list[int]) -> list[CheckResult]:
    """Counts agree across n whose 2n share a factorization shape."""
    name = "shape-dependence"
    results = []
    seen: dict[tuple, tuple[int, int, int]] = {}
    for n in n_values:
        params = GroupParams(n)
        nf = count_chains(params, "all").fuzzy_count
        nnf = count_chains(params, "normal").fuzzy_count
        shape = _shape(params.two_n)
        if shape in seen:
            m, m_nf, m_nnf = seen[shape]
            if (nf, nnf) != (m_nf, m_nnf):
                results.append(
                    _fail(
                        n,
                        name,
                        f"n={n} counts ({nf}, {nnf}) differ from n={m} "
                        f"({m_nf}, {m_nnf}) despite equal shape",
                    )
                )
            else:
                results.append(
                    CheckResult(n, name, True, f"matches n={m}")
                )
        else:
            seen[shape] = (n, nf, nnf)
    return results


def run_verification(
    n_max: int,
    fuzzy_n_max: int = 4,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> list[CheckResult]:
    """The full battery for n = 1..n_max, each check gated by its cost."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    results: list[CheckResult] = []
    for n in range(1, n_max + 1):
        params = GroupParams(n)
        order = params.order
        results.append(check_count_formula(params))
        if n <= 4:
            results.append(check_group_laws(params))
        if order <= oracle_limit:
            results.append(check_subgroup_family(params, oracle_limit))
            results.append(check_normal_family(params, oracle_limit))
            results.append(check_normal_restriction(params, oracle_limit))
        if n <= 6:
            results.append(check_membership(params))
            results.append(check_containment(params))
            results.append(check_subgroup_closure(params))
            results.append(check_normal_in_supergroup(params))
        for mode in ("all", "normal"):
            results.append(check_lattice_order_laws(params, mode))
            results.append(check_hasse_closure(params, mode))
            results.append(check_dp_vs_dfs(params, mode))
            if n <= 6 and order <= oracle_limit:
                results.append(check_set_chains(params, mode, oracle_limit))
        if n <= fuzzy_n_max:
            results.append(check_fuzzy_axioms(params))
            if order <= oracle_limit:
                results.append(check_equivalence_count(params, oracle_limit))
    results.extend(check_divisor_shape_dependence(list(range(1, n_max + 1))))
    return results


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        suffix = f" ({r.detail})" if r.detail else ""
        lines.append(f"n={r.n} {r.check}: {status}{suffix}")
    failed = sum(1 for r in results if not r.passed)
    if failed:
        lines.append(f"{failed} of {len(results)} checks FAILED")
    else:
        lines.append(f"all {len(results)} checks passed")
    return "\n".join(lines)


def report_json(results: list[CheckResult]) -> dict:
    return {
        "checks": [
            {
                "n": r.n,
                "check": r.check,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
