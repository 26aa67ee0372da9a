"""Cross-checks of every fast-path claim against the brute-force oracle.

Each check owns one property: it compares a fast path with an exhaustive
recomputation, or count_chains with the full-lattice DP, and returns None
when they agree or its failure text, naming a counterexample, when they
do not.  run_verification alone turns an answer into a CheckResult: it
spells each label once, beside the gate that decides at which n the
check runs.  That includes shape-dependence, which compares counts
across n: it keys on the shape the per-shape gates compute.  What
follows from checks that run at the same n is not checked again; each
check's docstring says what covers it.

run_verification computes each object once per n and hands every check
the objects it reads: the shape of 2n, the two catalogs, count_chains
and one Lattice with its DP's chain_counts per mode, and, within the
oracle limit, one GroupOracle (integer Cayley table, conjugacy classes,
subgroup families) and one catalog_sets map from the catalog's
descriptors to the oracle's index sets.  A check calls only the fast
path it owns.  The oracle limit is the one gate of every exhaustive
check: the group laws, membership, containment, subgroup closure,
normal-in-supergroup, the oracle families and the fuzzy checks are
skipped above it, whatever fuzzy_n_max says.  Under it the group laws
keep n <= 4 and the fuzzy checks fuzzy_n_max; membership, which answers
subgroup closure too, containment, normal-in-supergroup and set-chains run
at the first n of each factorization shape of 2n.  lattice-vs-oracle runs
at every n and holds the rows to proper inclusion of the oracle's sets, so
the s relabel and the divisor columns are checked, not only subgroup_leq.
hasse-closure owns the printed cover list at every n and in both modes:
each cover once, in sorted order, and as a set transitive_reduction.

The group laws run on the oracle's tables once the tables are shown to
be multiply and inverse; every other check asks the oracle, as
is_normal(h) or set_chains(mode), and reads no table itself.  Normality
is read off the conjugacy classes: normality-vs-oracle asks is_normal of
each catalog set, and normal-restriction and fuzzy-axioms read
oracle.normal_subgroups.  normal-in-supergroup reads normality in G too:
a subgroup normal in G is normal in every subgroup that holds it, so a
node with a node above it fails only where is_normal finds it not normal
in G, where normality-vs-oracle fails as well.  Every set handed to the
oracle's public methods is checked there, catalog sets included.  The
fuzzy-axioms and equivalence-classes results come from one walk over the
oracle's set_chains("all"), {e} included, which also holds the
normal-fuzzy test to the normality of each chain's levels; it maps those
chains, the oracle's own, through the oracle module's unchecked
_chain_map.  The catalog's normal lattice is tied to the oracle's normal
sets by normality-vs-oracle and normal-restriction (its nodes), and
lattice-vs-oracle[normal] owns its relation.  membership-closed-form ties
each descriptor's set to oracle.generated of the generators that name it,
so the catalog's closed forms are not the reference for their own sets.
No result depends on an assert statement, so python -O reports the same.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import prod

from .chains import (
    ChainCounts,
    chain_counts,
    compute_chain_table,
    count_chains,
    factorization_shape,
)
from .group import (
    DEFAULT_FUZZY_N_MAX,
    DEFAULT_ORACLE_LIMIT,
    MODES,
    Element,
    GroupParams,
    exact_int,
    format_element,
    inverse,
    multiply,
)
from .lattice import Lattice, build_lattice, hasse_edges
from .oracle import (
    GroupOracle,
    _chain_map,
    comparison_pattern,
    oracle_count_chains,
    transitive_reduction,
)
from .subgroups import (
    SubgroupDescriptor,
    enumerate_subgroups,
    subgroup_elements,
    subgroup_leq,
)


class CheckResult(namedtuple("CheckResult", "n check passed detail", defaults=("",))):
    __slots__ = ()


Catalog = list[SubgroupDescriptor]
CatalogSets = dict[SubgroupDescriptor, frozenset[int]]


def _set_name(s: frozenset) -> str:
    return "{" + ", ".join(sorted(format_element(x) for x in s)) + "}"


def check_group_laws(oracle: GroupOracle) -> str | None:
    """The oracle's tables are multiply and inverse, entry by entry and in
    canonical form; then identity, inverses and associativity on the
    tables."""
    params = oracle.params
    elems, mult, inv, e = oracle.elements, oracle.mult, oracle.inv, oracle.identity
    order = len(elems)

    def fmt(i: int) -> str:
        return format_element(elems[i])

    # an entry equal to a canonical element is canonical; a non-canonical
    # product would otherwise alias another index or fall off the table
    for x, row in enumerate(mult):
        for y, xy in enumerate(row):
            if not 0 <= xy < order or elems[xy] != multiply(params, elems[x], elems[y]):
                return f"table differs from multiply at ({fmt(x)}, {fmt(y)})"
        if not 0 <= inv[x] < order or elems[inv[x]] != inverse(params, elems[x]):
            return f"table differs from inverse at {fmt(x)}"
    for x, row in enumerate(mult):
        if row[e] != x or mult[e][x] != x:
            return f"identity law fails at {fmt(x)}"
        if row[inv[x]] != e or mult[inv[x]][x] != e:
            return f"inverse law fails at {fmt(x)}"
    # row by row: x (y z) for every z is row x read at row y, and (x y) z
    # is row xy; the first differing z gives the first failing triple
    for x, row in enumerate(mult):
        for y, xy in enumerate(row):
            x_yz = [row[v] for v in mult[y]]
            if x_yz != mult[xy]:
                z = next(z for z, (a, b) in enumerate(zip(x_yz, mult[xy])) if a != b)
                return f"associativity fails at ({fmt(x)}, {fmt(y)}, {fmt(z)})"
    return None


def check_count_formula(shape: tuple, catalog: Catalog, normal: Catalog) -> str | None:
    """The sizes of the two catalogs against closed forms in the shape of
    2n, not against the catalog's own divisor and twisted_exists rules.  With
    P = prod_p (a_p + 1), 2n = 2^e2 * 3^e3 * prod_p p^a_p has
    P (e2 + 1)(e3 + 1) divisors t, P (e3 + 1) odd and P e2 e3 even with
    3 | 2n/t; C(t), F(t) and, for those t, T(t, 1) and T(t, 2) make
    2 P (2 e2 e3 + e2 + 2 e3 + 2) subgroups, and every F(t) with the C(t)
    of even t makes P (e3 + 1)(2 e2 + 1) normal ones."""
    e2, e3, exponents = shape
    p = prod(a + 1 for a in exponents)
    want_all = 2 * p * (2 * e2 * e3 + e2 + 2 * e3 + 2)
    want_normal = p * (e3 + 1) * (2 * e2 + 1)
    if len(catalog) != want_all:
        return f"all: expected {want_all}, got {len(catalog)}"
    if len(normal) != want_normal:
        return f"normal: expected {want_normal}, got {len(normal)}"
    return None


def catalog_sets(oracle: GroupOracle, catalog: Catalog) -> CatalogSets:
    """Each descriptor of catalog, in catalog order, with its element set
    as oracle indices.  One of the two places where descriptors meet the
    oracle; check_membership, the other, maps their generators."""
    params = oracle.params
    return {d: oracle.index_set(subgroup_elements(params, d)) for d in catalog}


def check_subgroup_family(oracle: GroupOracle, sets: CatalogSets) -> str | None:
    """Catalog element sets == closure-discovered subgroup family, and no
    two descriptors name the same set."""
    catalog = set(sets.values())
    if len(catalog) < len(sets):
        return "descriptor element sets collide"
    discovered = set(oracle.subgroups)
    if catalog != discovered:
        diff = next(iter(catalog.symmetric_difference(discovered)))
        side = "catalog-only" if diff in catalog else "oracle-only"
        return f"{side} subgroup {_set_name(oracle.element_set(diff))}"
    return None


def check_normal_family(
    oracle: GroupOracle, sets: CatalogSets, normal: Catalog
) -> str | None:
    """Each descriptor is normal per conjugation iff the normal catalog lists
    it: with subgroups-vs-oracle, the normal family is the oracle's."""
    missing = next((d for d in normal if d not in sets), None)
    if missing is not None:
        return f"normal {missing} is not in the catalog"
    listed = set(normal)
    for d, h in sets.items():
        expected = d in listed
        if oracle.is_normal(h) != expected:
            verdict = "should be normal" if expected else "should not be normal"
            return f"{d} {verdict} per conjugation"
    return None


def check_membership(
    oracle: GroupOracle, sets: CatalogSets
) -> tuple[str | None, str | None]:
    """The membership-closed-form and subgroup-closure answers, in that
    order.  Each catalog set is the subgroup its descriptor's generators
    generate on the oracle's table: a^t for C(t), a^t and b for F(t), a^t b^s
    for T(t,s), read off subgroups.py's definitions, not the fast path, so a
    catalog that swaps T(t,1) and T(t,2) fails here alone.  A set that passes
    is a subgroup, so closed; only a set that fails is regenerated."""
    two_n = oracle.params.two_n
    membership = None
    for d, h in sets.items():
        # a^(t mod 2n), as a^(2n) = e names C(2n) and F(2n); b^s for T only
        gens = [Element(d.t % two_n, d.s or 0)]
        if d.kind == "F":
            gens.append(Element(0, 1))
        want = oracle.generated(tuple(oracle.index_set(gens)))
        if want == h:
            continue
        if membership is None:
            x = min(want ^ h)
            span = "<" + ", ".join(map(format_element, gens)) + ">"
            where = f"its set, not {span}" if x in h else f"{span}, not its set"
            membership = f"{d}: {format_element(oracle.elements[x])} is in {where}"
        closure = oracle.generated(tuple(h))
        if closure != h:
            return membership, f"{d} has {len(h)} elements, generates {len(closure)}"
    return membership, None


def check_containment(sets: CatalogSets) -> str | None:
    """subgroup_leq == element-set inclusion, pair by pair.  Inclusion is
    reflexive and transitive, and antisymmetric once subgroups-vs-oracle
    finds no two descriptors sharing a set, so no order law is checked."""
    for d1, s1 in sets.items():
        for d2, s2 in sets.items():
            got = subgroup_leq(d1, d2)
            if got != (s1 <= s2):
                return f"leq({d1}, {d2}) = {got} is wrong"
    return None


def check_lattice_order_laws(lat: Lattice) -> str | None:
    """The sets of the rows are irreflexive, antisymmetric, and transitive."""
    nodes = lat.nodes
    below = [set(lat.row(i)) for i in range(len(nodes))]
    for i in range(len(nodes)):
        if i in below[i]:
            return f"self-edge at {nodes[i]}"
        for j in below[i]:
            if i in below[j]:
                return f"2-cycle {nodes[i]}, {nodes[j]}"
            for k in below[j]:
                if k not in below[i]:
                    return f"transitivity fails: {nodes[i]} < {nodes[j]} < {nodes[k]}"
    return None


def check_normal_restriction(
    oracle: GroupOracle, sets: CatalogSets, lat_normal: Lattice
) -> str | None:
    """The normal lattice's nodes are the catalog descriptors whose set is a
    nontrivial oracle-normal subgroup.  Its relation is lattice-vs-oracle's:
    that check holds each mode's rows to proper inclusion of the oracle's
    sets at every n where this one runs."""
    normal_sets = {h for h in oracle.normal_subgroups if len(h) > 1}
    # a node missing from the catalog is not oracle-normal, so a normal one
    # shows up as a node mismatch
    want_nodes = {d for d, h in sets.items() if h in normal_sets}
    if set(lat_normal.nodes) != want_nodes:
        diff = next(iter(set(lat_normal.nodes) ^ want_nodes))
        return f"node mismatch at {diff}"
    return None


def check_normal_in_supergroup(
    oracle: GroupOracle, sets: CatalogSets, lat_normal: Lattice
) -> str | None:
    """Each normal node is normal inside every node above it, not just in
    G.  A subgroup normal in G is normal in every subgroup that holds it,
    so a node with a node above it passes when oracle.is_normal finds it
    normal in G; one it does not fails normality-vs-oracle too."""
    nodes = lat_normal.nodes
    missing = next((d for d in nodes if d not in sets), None)
    if missing is not None:
        return f"normal {missing} is not in the catalog"
    for i, d in enumerate(nodes):
        if lat_normal.row(i) and not oracle.is_normal(sets[d]):
            return f"{d} not normal in G"
    return None


def check_hasse_closure(lat: Lattice) -> str | None:
    """The cover list as write_json and dot_text print it: hasse_edges
    lists each cover once, in sorted order, and its set is exactly the
    covers of the strict order, as oracle.transitive_reduction finds them
    by definition."""
    listed = hasse_edges(lat)
    for (i, j), (k, l) in zip(listed, listed[1:]):
        if (i, j) >= (k, l):
            how = "listed twice" if (i, j) == (k, l) else "out of order"
            return f"{lat.nodes[k]} -> {lat.nodes[l]} {how}"
    covers = transitive_reduction(lat)
    if set(listed) == covers:
        return None
    wrong = [(i, j) for i, j in listed if (i, j) not in covers]
    if wrong:
        i, j = wrong[0]
        between = next((k for k in set(lat.row(i)) if j in lat.row(k)), None)
        why = "" if between is None else f": {lat.nodes[between]} lies between"
        return f"{lat.nodes[i]} -> {lat.nodes[j]} is not a cover{why}"
    i, j = min(covers.difference(listed))
    return f"{lat.nodes[i]} -> {lat.nodes[j]} is a missing cover"


def check_dp_vs_dfs(lat: Lattice, dp: ChainCounts) -> str | None:
    """DP per-length chain counts of lat == explicit DFS enumeration.  Neither
    list has a zero entry, so equal lists also give a level table as long as
    the longest chain.  No cycle runs through the top: lattice-order-laws passed."""
    counts = list(dp.per_length)
    dfs = oracle_count_chains(lat)
    if counts != dfs:
        return f"DP {counts} != DFS {dfs}"
    return None


def check_lattice_vs_oracle(sets: CatalogSets, lat: Lattice) -> str | None:
    """The strict order the lattice makes from product coordinates is
    proper inclusion of the nodes' oracle sets, row by row.  The covers
    need no second look here: with these rows, transitive_reduction(lat)
    is the covers of the inclusion, and hasse-closure holds hasse_edges
    to it at every n."""
    missing = next((d for d in lat.nodes if d not in sets), None)
    if missing is not None:
        return f"{missing} is not in the catalog"
    node_sets = [sets[d] for d in lat.nodes]
    for i, s in enumerate(node_sets):
        ups = [j for j, t in enumerate(node_sets) if s < t]
        row = lat.row(i)
        if sorted(row) != ups:
            j = min(set(row).symmetric_difference(ups))
            side = "in the lattice only" if j in row else "missing from the lattice"
            return f"{lat.nodes[i]} < {lat.nodes[j]} is {side}"
    return None


def check_shape_vs_lattice(shape_counts: ChainCounts, dp: ChainCounts) -> str | None:
    """count_chains equals the level DP on the full lattice: the core zeta
    closed form times the chain factors, inverted by the difference
    table, against predecessor sums over the product lattice, whose
    strict order is pairwise on the core only (lattice-vs-oracle holds
    that order to the oracle's sets)."""
    if shape_counts != dp:
        return f"shape {list(shape_counts.per_length)} != lattice {list(dp.per_length)}"
    return None


def check_set_chains(oracle: GroupOracle, counts: ChainCounts) -> str | None:
    """Catalog-free chain counts over oracle sets match count_chains in its
    mode, and the with-trivial total is exactly twice the proper total."""
    # one walk, {e} included: {e} is the least subgroup, so the chains that
    # do not start at it are exactly the proper chains; the rest count at 0
    lengths = Counter(
        len(chain) if len(chain[0]) > 1 else 0
        for chain in oracle.set_chains(counts.mode)
    )
    total = sum(lengths.values())
    proper = [lengths[k] for k in range(1, max(lengths) + 1)]
    if proper != list(counts.per_length):
        return f"set DFS {proper} != count_chains {list(counts.per_length)}"
    if total != counts.fuzzy_count:
        return f"all-chain total {total} != doubled proper total {counts.fuzzy_count}"
    return None


def check_fuzzy_axioms(
    oracle: GroupOracle, all_counts: ChainCounts
) -> tuple[str | None, str | None]:
    """The fuzzy-axioms and equivalence-classes answers, in that order,
    from one walk over the oracle's set chains ending at G, {e} included.

    Each chain gives one exact grade map that must satisfy FG1/FG2 on the
    tables, be normal fuzzy (mu(xy) = mu(yx)) exactly when every level
    subgroup is normal, read off one set of oracle.normal_subgroups (the
    chains are drawn from oracle.subgroups, which it filters by
    is_normal), keep its class when re-leveled, and differ in
    ranks from every other chain's map.  The classes are counted as the
    distinct ranks, which must equal both the number of chains and the
    doubled count_chains total, all_counts.fuzzy_count.

    Both maps of a chain, at the levels 1, 1/2, ..., 1/k and at the
    re-levels 2/(2i+1), come from the oracle module's _chain_map, unchecked:
    the chains are the oracle's own, strictly ascending and ending at G,
    and both lists of levels, valid as built, are built once per chain
    length k."""
    params = oracle.params

    def label(chain):
        return " < ".join(_set_name(oracle.element_set(h)) for h in chain)

    normal_sets = set(oracle.normal_subgroups)
    failure = None
    seen: dict[tuple[int, ...], tuple[frozenset[int], ...]] = {}
    reps = []
    chains = 0
    # chain length -> (default levels 1, ..., 1/k; re-levels 2/(2i+1))
    levels: dict[int, tuple[list[Fraction], list[Fraction]]] = {}
    for chain in oracle.set_chains("all"):
        chains += 1
        k = len(chain)
        if k not in levels:
            levels[k] = ([Fraction(1, i) for i in range(1, k + 1)],
                         [Fraction(2, 2 * i + 1) for i in range(1, k + 1)])
        default, relevel = levels[k]
        rep = _chain_map(params, chain, default)
        if failure is None:
            normal = normal_sets.issuperset(chain)
            if not oracle.is_fuzzy_subgroup(rep):
                failure = f"FG1/FG2 fail for chain {label(chain)}"
            elif oracle.is_normal_fuzzy(rep) != normal:
                verdict = "fails" if normal else "holds"
                failure = f"mu(xy) = mu(yx) {verdict} for chain {label(chain)}"
            elif _chain_map(params, chain, relevel).ranks != rep.ranks:
                failure = f"re-leveling broke chain {label(chain)}"
            elif rep.ranks in seen:
                first = label(seen[rep.ranks])
                failure = f"chains {first} and {label(chain)} collide under ~"
        seen.setdefault(rep.ranks, chain)
        if params.n <= 2:
            reps.append(rep)
    if failure is None and params.n <= 2:
        # the ranks shortcut against the literal all-pairs relation: equal
        # patterns exactly when equal ranks, for every pair of maps, is one
        # pattern per rank tuple and one rank tuple per pattern
        pats = [comparison_pattern(r) for r in reps]
        ranks = [r.ranks for r in reps]
        if not len(set(pats)) == len(set(ranks)) == len(set(zip(pats, ranks))):
            failure = "all-pairs equivalence cross-check failed"
    want = all_counts.fuzzy_count
    if len(seen) == chains == want:
        return failure, None
    return failure, f"{len(seen)} classes from {chains} set chains, count_chains {want}"


def run_verification(
    n_max: int,
    fuzzy_n_max: int = DEFAULT_FUZZY_N_MAX,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> list[CheckResult]:
    """The full battery for n = 1..n_max, each check gated by its cost.

    Each check answers None when it passes and its failure text when it
    fails; here each answer becomes a CheckResult, named by the label
    spelled beside its gate.  The fast-path answers the checks read are
    computed here, before the first check of their n.

    set-chains, the three Element-level checks (membership, containment,
    subgroup closure) and normal-in-supergroup, which reads normality in
    G, run once per factorization shape of 2n, at the first n <= n_max of
    that shape: count_chains
    depends on n only through the shape.  shape-dependence holds the
    full-lattice fuzzy counts of each later n of a shape to those of its
    first n, among the n where both modes made a chain table; a pass names
    that n, and these results follow all the others.  lattice-vs-oracle
    runs at every n within the oracle limit: the s relabel of the product
    coordinates depends on each prime's residue mod 3 too.  A mode that
    fails lattice-order-laws gets no chain table and no check that reads
    one."""
    exact_int(n_max, 1, "n_max")
    exact_int(fuzzy_n_max, 0, "fuzzy_n_max")
    exact_int(oracle_limit, 0, "oracle_limit")
    results: list[CheckResult] = []
    shape_results: list[CheckResult] = []

    def record(label: str, failure: str | None) -> None:
        """One result at the loop's current n."""
        results.append(CheckResult(n, label, failure is None, failure or ""))

    first_n: dict[tuple, int] = {}
    first_counts: dict[tuple, tuple[int, tuple[int, ...]]] = {}
    for n in range(1, n_max + 1):
        params = GroupParams(n)
        shape = factorization_shape(2 * n)
        first_of_shape = first_n.setdefault(shape, n) == n
        within = params.order <= oracle_limit
        oracle = GroupOracle(params, oracle_limit) if within else None
        catalog, normal = [enumerate_subgroups(params, m) for m in MODES]
        all_counts, _ = shape_counts = [count_chains(params, m) for m in MODES]
        _, lat_normal = lats = [build_lattice(params, m) for m in MODES]
        record("count-formula", check_count_formula(shape, catalog, normal))
        if oracle is not None:
            sets = catalog_sets(oracle, catalog)
            if n <= 4:
                record("group-laws", check_group_laws(oracle))
            record("subgroups-vs-oracle", check_subgroup_family(oracle, sets))
            record("normality-vs-oracle", check_normal_family(oracle, sets, normal))
            failure = check_normal_restriction(oracle, sets, lat_normal)
            record("normal-restriction", failure)
            if first_of_shape:
                membership, closure = check_membership(oracle, sets)
                record("membership-closed-form", membership)
                record("containment-closed-form", check_containment(sets))
                record("subgroup-closure", closure)
                failure = check_normal_in_supergroup(oracle, sets, lat_normal)
                record("normal-in-supergroup", failure)
        counts = []
        for lat, shaped in zip(lats, shape_counts):
            mode = lat.mode
            laws = check_lattice_order_laws(lat)
            record(f"lattice-order-laws[{mode}]", laws)
            record(f"hasse-closure[{mode}]", check_hasse_closure(lat))
            if laws is None:  # irreflexive and transitive: acyclic, so the DP ends
                dp = chain_counts(compute_chain_table(lat))
                record(f"dp-vs-dfs[{mode}]", check_dp_vs_dfs(lat, dp))
                record(f"shape-vs-lattice[{mode}]", check_shape_vs_lattice(shaped, dp))
                counts.append(dp.fuzzy_count)
            if oracle is not None:
                if first_of_shape:
                    record(f"set-chains[{mode}]", check_set_chains(oracle, shaped))
                failure = check_lattice_vs_oracle(sets, lat)
                record(f"lattice-vs-oracle[{mode}]", failure)
        if n <= fuzzy_n_max and oracle is not None:
            fuzzy, classes = check_fuzzy_axioms(oracle, all_counts)
            record("fuzzy-axioms", fuzzy)
            record("equivalence-classes", classes)
        if len(counts) == len(MODES):
            counts = tuple(counts)
            m, m_counts = first_counts.setdefault(shape, (n, counts))
            if m != n:
                passed = counts == m_counts
                detail = f"matches n={m}" if passed else (
                    f"n={n} counts {counts} differ from n={m} {m_counts} "
                    "despite equal shape"
                )
                shape_results.append(CheckResult(n, "shape-dependence", passed, detail))
    return results + shape_results


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
        "checks": [r._asdict() for r in results],
        "passed": all(r.passed for r in results),
    }
