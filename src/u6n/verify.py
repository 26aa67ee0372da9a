"""Cross-checks of every fast-path claim against the brute-force oracle.

Each check compares a closed-form or DP result with an exhaustive
recomputation, or the shape-based count_chains with the full-lattice
DP, and reports a counterexample on mismatch.

run_verification computes each object once per n and hands every check
the object it checks: one GroupOracle (integer Cayley table, subgroup
family, normality flags) when the group is within the oracle limit, and
one Lattice and one ChainTable per mode.  The oracle limit is the one
gate of every exhaustive check: the group laws, membership, containment,
subgroup closure, normal-in-supergroup, the oracle families and the fuzzy
checks are skipped above it, whatever fuzzy_n_max says.  Under it the
checks keep their own cost gates (n <= 4, n <= 6, fuzzy_n_max).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .chains import (
    ChainTable,
    chain_counts,
    compute_chain_table,
    count_chains,
    factorization_shape,
)
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
from .lattice import MODES, Lattice, build_lattice, hasse_edges, height
from .oracle import (
    GroupOracle,
    chain_to_representative,
    equivalent,
    equivalent_by_pairs,
    lattice_chains,
    oracle_count_chains,
    rank_signature,
)
from .subgroups import (
    contains_element,
    divisors,
    enumerate_normal_subgroups,
    enumerate_subgroups,
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
    got_all = len(enumerate_subgroups(params))
    got_normal = len(enumerate_normal_subgroups(params))
    if got_all != want_all:
        return _fail(params.n, name, f"all: expected {want_all}, got {got_all}")
    if got_normal != want_normal:
        return _fail(
            params.n, name, f"normal: expected {want_normal}, got {got_normal}"
        )
    return _ok(params.n, name)


def check_subgroup_family(oracle: GroupOracle) -> CheckResult:
    """Catalog element sets == closure-discovered subgroup family, and no
    two descriptors name the same set."""
    name = "subgroups-vs-oracle"
    params = oracle.params
    descs = enumerate_subgroups(params)
    catalog = {oracle.index_set(subgroup_elements(params, d)) for d in descs}
    if len(catalog) < len(descs):
        return _fail(params.n, name, "descriptor element sets collide")
    discovered = set(oracle.subgroups)
    if catalog != discovered:
        diff = next(iter(catalog.symmetric_difference(discovered)))
        side = "catalog-only" if diff in catalog else "oracle-only"
        return _fail(
            params.n, name, f"{side} subgroup {_set_name(oracle.element_set(diff))}"
        )
    return _ok(params.n, name)


def check_normal_family(oracle: GroupOracle) -> CheckResult:
    """Normal catalog == conjugation-filtered oracle list, kind by kind."""
    name = "normality-vs-oracle"
    params = oracle.params
    normal_descs = set(enumerate_normal_subgroups(params))
    for d in enumerate_subgroups(params):
        expected = d in normal_descs
        h = oracle.index_set(subgroup_elements(params, d))
        if oracle.is_normal(h) != expected:
            verdict = "should be normal" if expected else "should not be normal"
            return _fail(params.n, name, f"{d} {verdict} per conjugation")
    catalog = {oracle.index_set(subgroup_elements(params, d)) for d in normal_descs}
    discovered = set(oracle.normal_subgroups)
    if catalog != discovered:
        diff = next(iter(catalog.symmetric_difference(discovered)))
        side = "catalog-only" if diff in catalog else "oracle-only"
        return _fail(
            params.n,
            name,
            f"{side} normal subgroup {_set_name(oracle.element_set(diff))}",
        )
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


def check_subgroup_closure(oracle: GroupOracle) -> CheckResult:
    """Each catalog element set is the subgroup it generates on the
    oracle's table: it holds e and is closed under products (and so under
    inverses, the group being finite)."""
    name = "subgroup-closure"
    params = oracle.params
    for d in enumerate_subgroups(params):
        h = oracle.index_set(subgroup_elements(params, d))
        closure = oracle.generated(tuple(h))
        if closure != h:
            return _fail(
                params.n, name, f"{d} has {len(h)} elements, generates {len(closure)}"
            )
    return _ok(params.n, name)


def check_lattice_order_laws(lat: Lattice) -> CheckResult:
    """strictly_below is irreflexive, antisymmetric, and transitive."""
    name = f"lattice-order-laws[{lat.mode}]"
    n = lat.params.n
    below = lat.strictly_below
    for i in range(len(lat.nodes)):
        if i in below[i]:
            return _fail(n, name, f"self-edge at {lat.nodes[i]}")
        for j in below[i]:
            if i in below[j]:
                return _fail(n, name, f"2-cycle {lat.nodes[i]}, {lat.nodes[j]}")
            for k in below[j]:
                if k not in below[i]:
                    return _fail(
                        n,
                        name,
                        f"transitivity fails: {lat.nodes[i]} < {lat.nodes[j]} "
                        f"< {lat.nodes[k]}",
                    )
    return _ok(n, name)


def check_normal_restriction(
    oracle: GroupOracle, lat_all: Lattice, lat_normal: Lattice
) -> CheckResult:
    """Normal lattice == full lattice restricted to oracle-normal nodes."""
    name = "normal-restriction"
    params = oracle.params
    normal_sets = {h for h in oracle.normal_subgroups if len(h) > 1}
    want_nodes = {
        d for d in lat_all.nodes
        if oracle.index_set(subgroup_elements(params, d)) in normal_sets
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


def check_normal_in_supergroup(
    oracle: GroupOracle, lat_normal: Lattice
) -> CheckResult:
    """Each normal node is normal inside every node above it, not just in
    G: conjugation on the oracle's tables, as GroupOracle.is_normal does."""
    name = "normal-in-supergroup"
    params = oracle.params
    mult, inv = oracle.mult, oracle.inv
    sets = [oracle.index_set(subgroup_elements(params, d)) for d in lat_normal.nodes]
    for i, ups in enumerate(lat_normal.strictly_below):
        h = sets[i]
        for j in ups:
            for g in sets[j]:
                if any(mult[mult[inv[g]][x]][g] not in h for x in h):
                    return _fail(
                        params.n,
                        name,
                        f"{lat_normal.nodes[i]} not normal in "
                        f"{lat_normal.nodes[j]} (conjugation by "
                        f"{format_element(oracle.elements[g])})",
                    )
    return _ok(params.n, name)


def check_hasse_closure(lat: Lattice) -> CheckResult:
    """The Hasse edges are covers, and their transitive closure reproduces
    the strict order."""
    name = f"hasse-closure[{lat.mode}]"
    n = lat.params.n
    below = lat.strictly_below
    count = len(lat.nodes)
    closure: list[set[int]] = [set() for _ in range(count)]
    for i, j in hasse_edges(lat):
        between = next((k for k in below[i] if j in below[k]), None)
        if between is not None:
            return _fail(
                n,
                name,
                f"{lat.nodes[i]} -> {lat.nodes[j]} is not a cover: "
                f"{lat.nodes[between]} lies between",
            )
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
        if closure[i] != set(below[i]):
            return _fail(n, name, f"closure differs at {lat.nodes[i]}")
    return _ok(n, name)


def check_dp_vs_dfs(table: ChainTable) -> CheckResult:
    """DP per-length chain counts == explicit DFS enumeration."""
    lat = table.lattice
    name = f"dp-vs-dfs[{lat.mode}]"
    n = lat.params.n
    counts = chain_counts(table)
    dfs = oracle_count_chains(lat)
    if list(counts.per_length) != dfs:
        return _fail(n, name, f"DP {list(counts.per_length)} != DFS {dfs}")
    if len(table.levels) > height(lat):
        return _fail(n, name, "level table exceeds lattice height")
    if any(table.levels[k][lat.top_index] != 0 for k in range(1, len(table.levels))):
        return _fail(n, name, "top node recounted beyond level 0")
    return _ok(n, name)


def check_shape_vs_lattice(table: ChainTable) -> CheckResult:
    """count_chains (grid DP on the core, times the chain factors) equals
    the DP over the pairwise strict order of the full lattice."""
    lat = table.lattice
    name = f"shape-vs-lattice[{lat.mode}]"
    shape = count_chains(lat.params, lat.mode)
    lattice = chain_counts(table)
    if shape != lattice:
        return _fail(
            lat.params.n,
            name,
            f"shape {list(shape.per_length)} != lattice {list(lattice.per_length)}",
        )
    return _ok(lat.params.n, name)


def check_set_chains(oracle: GroupOracle, mode: str) -> CheckResult:
    """Catalog-free chain counts over oracle sets match count_chains, and
    the with-trivial total is exactly twice the proper total."""
    name = f"set-chains[{mode}]"
    params = oracle.params
    normal_only = mode == "normal"
    counts = count_chains(params, mode)
    proper = oracle.count_set_chains(normal_only=normal_only, include_trivial=False)
    if proper != list(counts.per_length):
        return _fail(
            params.n, name, f"set DFS {proper} != count_chains {list(counts.per_length)}"
        )
    with_trivial = oracle.count_set_chains(
        normal_only=normal_only, include_trivial=True
    )
    if sum(with_trivial) != counts.fuzzy_count:
        return _fail(
            params.n,
            name,
            f"all-chain total {sum(with_trivial)} != doubled proper total "
            f"{counts.fuzzy_count}",
        )
    return _ok(params.n, name)


def check_fuzzy_axioms(
    oracle: GroupOracle, lat_all: Lattice, lat_normal: Lattice
) -> CheckResult:
    """Every chain representative is a fuzzy subgroup; normal chains give
    normal ones; distinct chains are inequivalent; re-leveling is neutral."""
    name = "fuzzy-axioms"
    params = oracle.params
    seen: dict[tuple[int, ...], str] = {}
    reps = []
    for chain in lattice_chains(lat_all):
        descs = [lat_all.nodes[i] for i in chain]
        label = " < ".join(str(d) for d in descs)
        rep = chain_to_representative(params, descs)
        if not oracle.is_fuzzy_subgroup(rep):
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
    for chain in lattice_chains(lat_normal):
        descs = [lat_normal.nodes[i] for i in chain]
        rep = chain_to_representative(params, descs)
        if not oracle.is_normal_fuzzy(rep):
            return _fail(
                params.n,
                name,
                "mu(xy) = mu(yx) fails for chain "
                + " < ".join(str(d) for d in descs),
            )
    return _ok(params.n, name)


def check_equivalence_count(oracle: GroupOracle) -> CheckResult:
    """Materialized equivalence classes == doubled count_chains total."""
    name = "equivalence-classes"
    params = oracle.params
    want = count_chains(params, "all").fuzzy_count
    got = oracle.count_equivalence_classes()
    if got != want:
        return _fail(params.n, name, f"oracle {got} != count_chains {want}")
    return _ok(params.n, name)


def check_divisor_shape_dependence(
    fuzzy_counts: dict[int, tuple[int, ...]],
) -> list[CheckResult]:
    """Full-lattice counts agree across n whose 2n share a factorization
    shape, the premise count_chains is built on.  fuzzy_counts maps n to
    the fuzzy_count of its full-lattice chain table in each mode."""
    name = "shape-dependence"
    results = []
    first: dict[tuple, tuple[int, tuple[int, ...]]] = {}
    for n, counts in fuzzy_counts.items():
        m, m_counts = first.setdefault(factorization_shape(2 * n), (n, counts))
        if m == n:
            continue
        if counts != m_counts:
            results.append(
                _fail(
                    n,
                    name,
                    f"n={n} counts {counts} differ from n={m} {m_counts} "
                    "despite equal shape",
                )
            )
        else:
            results.append(CheckResult(n, name, True, f"matches n={m}"))
    return results


def run_verification(
    n_max: int,
    fuzzy_n_max: int = 4,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> list[CheckResult]:
    """The full battery for n = 1..n_max, each check gated by its cost."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if fuzzy_n_max < 0 or oracle_limit < 0:
        raise ValueError("fuzzy_n_max and oracle_limit must be nonnegative")
    results: list[CheckResult] = []
    fuzzy_counts: dict[int, tuple[int, ...]] = {}
    for n in range(1, n_max + 1):
        params = GroupParams(n)
        oracle = (
            GroupOracle(params, oracle_limit)
            if params.order <= oracle_limit else None
        )
        lat_all, lat_normal = lats = [build_lattice(params, m) for m in MODES]
        tables = [compute_chain_table(lat) for lat in lats]
        results.append(check_count_formula(params))
        if oracle is not None:
            if n <= 4:
                results.append(check_group_laws(params))
            results.append(check_subgroup_family(oracle))
            results.append(check_normal_family(oracle))
            results.append(check_normal_restriction(oracle, lat_all, lat_normal))
            if n <= 6:
                results.append(check_membership(params))
                results.append(check_containment(params))
                results.append(check_subgroup_closure(oracle))
                results.append(check_normal_in_supergroup(oracle, lat_normal))
        for lat, table in zip(lats, tables):
            results.append(check_lattice_order_laws(lat))
            results.append(check_hasse_closure(lat))
            results.append(check_dp_vs_dfs(table))
            results.append(check_shape_vs_lattice(table))
            if n <= 6 and oracle is not None:
                results.append(check_set_chains(oracle, lat.mode))
        if n <= fuzzy_n_max and oracle is not None:
            results.append(check_fuzzy_axioms(oracle, lat_all, lat_normal))
            results.append(check_equivalence_count(oracle))
        fuzzy_counts[n] = tuple(chain_counts(t).fuzzy_count for t in tables)
    results.extend(check_divisor_shape_dependence(fuzzy_counts))
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
