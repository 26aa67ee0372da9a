"""Cross-checks of every fast-path claim against the brute-force oracle.

Each check owns one property: it compares a fast path with an exhaustive
recomputation, or count_chains with the full-lattice DP, and names a
counterexample on mismatch.  What follows from checks that run at the
same n is not checked again; each check's docstring says what covers it.

run_verification computes each object once per n and hands every check
the object it checks: one GroupOracle (integer Cayley table, conjugation
rows and classes, subgroup family, normality flags) and one catalog_sets
map from the catalog's descriptors to the oracle's index sets when the
group is within the oracle limit, and one Lattice and one ChainTable per
mode.  The oracle limit is the one gate of every exhaustive check: the
group laws, membership, containment, subgroup closure,
normal-in-supergroup, the oracle families and the fuzzy checks are
skipped above it, whatever fuzzy_n_max says.  Under it the group laws
keep n <= 4 and the fuzzy checks fuzzy_n_max; membership, containment,
subgroup closure, normal-in-supergroup and set-chains run at the first n
of each factorization shape of 2n.  lattice-vs-oracle runs at every n and
holds the rows to proper inclusion of the oracle's sets, so the s relabel
and the divisor columns are checked, not only subgroup_leq.
hasse-closure owns the printed cover list at every n and in both modes:
each cover once, in sorted order, and as a set transitive_reduction.

The group laws run on the oracle's tables once the tables are shown to
be multiply and inverse.  The fuzzy-axioms and equivalence-classes
results come from one walk over the oracle's set chains, {e} included,
which also holds the normal-fuzzy test to the normality of each chain's
levels; the catalog's normal lattice is tied to the oracle's normal sets
by normality-vs-oracle and normal-restriction.
No result depends on an assert statement, so python -O reports the same.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import prod

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
    format_element,
    inverse,
    multiply,
)
from .lattice import MODES, Lattice, build_lattice, hasse_edges
from .oracle import (
    GroupOracle,
    comparison_pattern,
    oracle_count_chains,
    representative_from_sets,
    transitive_reduction,
)
from .subgroups import (
    SubgroupDescriptor,
    contains_element,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    subgroup_elements,
    subgroup_leq,
)


class CheckResult(namedtuple("CheckResult", "n check passed detail", defaults=("",))):
    __slots__ = ()


def _ok(n: int, check: str) -> CheckResult:
    return CheckResult(n=n, check=check, passed=True)


def _fail(n: int, check: str, detail: str) -> CheckResult:
    return CheckResult(n=n, check=check, passed=False, detail=detail)


def _set_name(s: frozenset) -> str:
    return "{" + ", ".join(sorted(format_element(x) for x in s)) + "}"


def _row_sets(lat: Lattice) -> list[set[int]]:
    """The set of each lat.row(i), for the checks that test membership."""
    return [set(lat.row(i)) for i in range(len(lat.nodes))]


def check_group_laws(oracle: GroupOracle) -> CheckResult:
    """The oracle's tables are multiply and inverse, entry by entry and in
    canonical form; then identity, inverses and associativity on the
    tables."""
    name = "group-laws"
    params = oracle.params
    n = params.n
    elems, mult, inv, e = oracle.elements, oracle.mult, oracle.inv, oracle.identity
    order = len(elems)

    def fmt(i: int) -> str:
        return format_element(elems[i])

    # an entry equal to a canonical element is canonical; a non-canonical
    # product would otherwise alias another index or fall off the table
    for x, row in enumerate(mult):
        for y, xy in enumerate(row):
            if not 0 <= xy < order or elems[xy] != multiply(params, elems[x], elems[y]):
                return _fail(
                    n, name, f"table differs from multiply at ({fmt(x)}, {fmt(y)})"
                )
        if not 0 <= inv[x] < order or elems[inv[x]] != inverse(params, elems[x]):
            return _fail(n, name, f"table differs from inverse at {fmt(x)}")
    for x, row in enumerate(mult):
        if row[e] != x or mult[e][x] != x:
            return _fail(n, name, f"identity law fails at {fmt(x)}")
        if row[inv[x]] != e or mult[inv[x]][x] != e:
            return _fail(n, name, f"inverse law fails at {fmt(x)}")
    # row by row: x (y z) for every z is row x read at row y, and (x y) z
    # is row xy; the first differing z gives the first failing triple
    for x, row in enumerate(mult):
        for y, xy in enumerate(row):
            x_yz = [row[v] for v in mult[y]]
            if x_yz != mult[xy]:
                z = next(z for z, (a, b) in enumerate(zip(x_yz, mult[xy])) if a != b)
                return _fail(
                    n, name, f"associativity fails at ({fmt(x)}, {fmt(y)}, {fmt(z)})"
                )
    return _ok(n, name)


def check_count_formula(params: GroupParams) -> CheckResult:
    """Catalog sizes against closed forms in the shape of 2n, not against
    the catalog's own divisor and twisted_exists rules.  With
    P = prod_p (a_p + 1), 2n = 2^e2 * 3^e3 * prod_p p^a_p has
    P (e2 + 1)(e3 + 1) divisors t, P (e3 + 1) odd and P e2 e3 even with
    3 | 2n/t; C(t), F(t) and, for those t, T(t, 1) and T(t, 2) make
    2 P (2 e2 e3 + e2 + 2 e3 + 2) subgroups, and every F(t) with the C(t)
    of even t makes P (e3 + 1)(2 e2 + 1) normal ones."""
    name = "count-formula"
    e2, e3, exponents = factorization_shape(params.two_n)
    p = prod(a + 1 for a in exponents)
    want_all = 2 * p * (2 * e2 * e3 + e2 + 2 * e3 + 2)
    want_normal = p * (e3 + 1) * (2 * e2 + 1)
    got_all = len(enumerate_subgroups(params))
    got_normal = len(enumerate_normal_subgroups(params))
    if got_all != want_all:
        return _fail(params.n, name, f"all: expected {want_all}, got {got_all}")
    if got_normal != want_normal:
        return _fail(
            params.n, name, f"normal: expected {want_normal}, got {got_normal}"
        )
    return _ok(params.n, name)


CatalogSets = dict[SubgroupDescriptor, frozenset[int]]


def catalog_sets(oracle: GroupOracle) -> CatalogSets:
    """Each catalog descriptor, in catalog order, with its element set as
    oracle indices.  The one place where descriptors meet the oracle."""
    params = oracle.params
    return {
        d: oracle.index_set(subgroup_elements(params, d))
        for d in enumerate_subgroups(params)
    }


def check_subgroup_family(oracle: GroupOracle, sets: CatalogSets) -> CheckResult:
    """Catalog element sets == closure-discovered subgroup family, and no
    two descriptors name the same set."""
    name = "subgroups-vs-oracle"
    params = oracle.params
    catalog = set(sets.values())
    if len(catalog) < len(sets):
        return _fail(params.n, name, "descriptor element sets collide")
    discovered = set(oracle.subgroups)
    if catalog != discovered:
        diff = next(iter(catalog.symmetric_difference(discovered)))
        side = "catalog-only" if diff in catalog else "oracle-only"
        return _fail(
            params.n, name, f"{side} subgroup {_set_name(oracle.element_set(diff))}"
        )
    return _ok(params.n, name)


def check_normal_family(oracle: GroupOracle, sets: CatalogSets) -> CheckResult:
    """Each descriptor is normal per conjugation iff the normal catalog lists
    it: with subgroups-vs-oracle, the normal family is the oracle's."""
    name = "normality-vs-oracle"
    params = oracle.params
    normal_descs = enumerate_normal_subgroups(params)
    missing = next((d for d in normal_descs if d not in sets), None)
    if missing is not None:
        return _fail(params.n, name, f"normal {missing} is not in the catalog")
    normal = set(normal_descs)
    for d, h in sets.items():
        expected = d in normal
        if oracle.is_normal(h) != expected:
            verdict = "should be normal" if expected else "should not be normal"
            return _fail(params.n, name, f"{d} {verdict} per conjugation")
    return _ok(params.n, name)


def check_membership(oracle: GroupOracle, sets: CatalogSets) -> CheckResult:
    """contains_element == literal element-set membership."""
    name = "membership-closed-form"
    params = oracle.params
    for d, h in sets.items():
        for i, x in enumerate(oracle.elements):
            if contains_element(params, d, x) != (i in h):
                return _fail(params.n, name, f"{d} disagrees at {format_element(x)}")
    return _ok(params.n, name)


def check_containment(oracle: GroupOracle, sets: CatalogSets) -> CheckResult:
    """subgroup_leq == element-set inclusion, pair by pair.  Inclusion is
    reflexive and transitive, and antisymmetric once subgroups-vs-oracle
    finds no two descriptors sharing a set, so no order law is checked."""
    name = "containment-closed-form"
    params = oracle.params
    for d1, s1 in sets.items():
        for d2, s2 in sets.items():
            got = subgroup_leq(d1, d2)
            if got != (s1 <= s2):
                return _fail(params.n, name, f"leq({d1}, {d2}) = {got} is wrong")
    return _ok(params.n, name)


def check_subgroup_closure(oracle: GroupOracle, sets: CatalogSets) -> CheckResult:
    """Each catalog element set is the subgroup it generates on the
    oracle's table: it holds e and is closed under products (and so under
    inverses, the group being finite)."""
    name = "subgroup-closure"
    params = oracle.params
    for d, h in sets.items():
        closure = oracle.generated(tuple(h))
        if closure != h:
            return _fail(
                params.n, name, f"{d} has {len(h)} elements, generates {len(closure)}"
            )
    return _ok(params.n, name)


def check_lattice_order_laws(lat: Lattice) -> CheckResult:
    """The sets of the rows are irreflexive, antisymmetric, and transitive."""
    name = f"lattice-order-laws[{lat.mode}]"
    n = lat.params.n
    below = _row_sets(lat)
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
    oracle: GroupOracle, sets: CatalogSets, lat_all: Lattice, lat_normal: Lattice
) -> CheckResult:
    """Normal lattice == full lattice restricted to oracle-normal nodes."""
    name = "normal-restriction"
    params = oracle.params
    normal_sets = {h for h in oracle.normal_subgroups if len(h) > 1}
    # a node missing from the catalog is not oracle-normal, so a normal one
    # shows up as a node mismatch
    want_nodes = {d for d in lat_all.nodes if sets.get(d) in normal_sets}
    if set(lat_normal.nodes) != want_nodes:
        diff = next(iter(set(lat_normal.nodes) ^ want_nodes))
        return _fail(params.n, name, f"node mismatch at {diff}")
    index_all = {d: i for i, d in enumerate(lat_all.nodes)}
    below_normal, below_all = _row_sets(lat_normal), _row_sets(lat_all)
    for i, d1 in enumerate(lat_normal.nodes):
        for j, d2 in enumerate(lat_normal.nodes):
            if (j in below_normal[i]) != (index_all[d2] in below_all[index_all[d1]]):
                return _fail(params.n, name, f"relation differs at {d1} < {d2}")
    return _ok(params.n, name)


def check_normal_in_supergroup(
    oracle: GroupOracle, sets: CatalogSets, lat_normal: Lattice
) -> CheckResult:
    """Each normal node is normal inside every node above it, not just in
    G: every element of the node above lies in the node's normalizer, read
    off the oracle's conjugation rows as GroupOracle.is_normal reads them."""
    name = "normal-in-supergroup"
    params = oracle.params
    conj = oracle.conj
    missing = next((d for d in lat_normal.nodes if d not in sets), None)
    if missing is not None:
        return _fail(params.n, name, f"normal {missing} is not in the catalog")
    node_sets = [sets[d] for d in lat_normal.nodes]
    for i, h in enumerate(node_sets):
        ups = lat_normal.row(i)
        if not ups:
            continue
        normalizer = {
            g for g, row in enumerate(conj) if h.issuperset(map(row.__getitem__, h))
        }
        for j in ups:
            for g in node_sets[j]:
                if g not in normalizer:
                    return _fail(
                        params.n,
                        name,
                        f"{lat_normal.nodes[i]} not normal in "
                        f"{lat_normal.nodes[j]} (conjugation by "
                        f"{format_element(oracle.elements[g])})",
                    )
    return _ok(params.n, name)


def check_hasse_closure(lat: Lattice) -> CheckResult:
    """The cover list as write_json and dot_text print it: hasse_edges
    lists each cover once, in sorted order, and its set is exactly the
    covers of the strict order, as oracle.transitive_reduction finds them
    by definition."""
    name = f"hasse-closure[{lat.mode}]"
    n = lat.params.n
    listed = hasse_edges(lat)
    for (i, j), (k, l) in zip(listed, listed[1:]):
        if (i, j) >= (k, l):
            how = "listed twice" if (i, j) == (k, l) else "out of order"
            return _fail(n, name, f"{lat.nodes[k]} -> {lat.nodes[l]} {how}")
    covers = transitive_reduction(lat)
    if set(listed) == covers:
        return _ok(n, name)
    wrong = [(i, j) for i, j in listed if (i, j) not in covers]
    if wrong:
        i, j = wrong[0]
        between = next((k for k in set(lat.row(i)) if j in lat.row(k)), None)
        why = "" if between is None else f": {lat.nodes[between]} lies between"
        return _fail(
            n, name, f"{lat.nodes[i]} -> {lat.nodes[j]} is not a cover{why}"
        )
    i, j = min(covers.difference(listed))
    return _fail(n, name, f"{lat.nodes[i]} -> {lat.nodes[j]} is a missing cover")


def check_dp_vs_dfs(table: ChainTable) -> CheckResult:
    """DP per-length chain counts == explicit DFS enumeration.  Neither list
    has a zero entry, so equal lists also give a level table as long as the
    longest chain.  No cycle runs through the top: lattice-order-laws passed."""
    lat = table.lattice
    name = f"dp-vs-dfs[{lat.mode}]"
    n = lat.params.n
    counts = chain_counts(table)
    dfs = oracle_count_chains(lat)
    if list(counts.per_length) != dfs:
        return _fail(n, name, f"DP {list(counts.per_length)} != DFS {dfs}")
    return _ok(n, name)


def check_lattice_vs_oracle(
    oracle: GroupOracle, sets: CatalogSets, lat: Lattice
) -> CheckResult:
    """The strict order the lattice makes from product coordinates is
    proper inclusion of the nodes' oracle sets, row by row.  The covers
    need no second look here: with these rows, transitive_reduction(lat)
    is the covers of the inclusion, and hasse-closure holds hasse_edges
    to it at every n."""
    name = f"lattice-vs-oracle[{lat.mode}]"
    n = oracle.params.n
    missing = next((d for d in lat.nodes if d not in sets), None)
    if missing is not None:
        return _fail(n, name, f"{missing} is not in the catalog")
    node_sets = [sets[d] for d in lat.nodes]
    for i, s in enumerate(node_sets):
        ups = [j for j, t in enumerate(node_sets) if s < t]
        row = lat.row(i)
        if sorted(row) != ups:
            j = min(set(row).symmetric_difference(ups))
            side = "in the lattice only" if j in row else "missing from the lattice"
            return _fail(n, name, f"{lat.nodes[i]} < {lat.nodes[j]} is {side}")
    return _ok(n, name)


def check_shape_vs_lattice(table: ChainTable) -> CheckResult:
    """count_chains equals the level DP on the full lattice: the core zeta
    closed form times the chain factors, inverted by the difference
    table, against predecessor sums over the product lattice, whose
    strict order is pairwise on the core only (lattice-vs-oracle holds
    that order to the oracle's sets)."""
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
    counts = count_chains(params, mode)
    # one walk, {e} included: {e} is the least subgroup, so the chains that
    # do not start at it are exactly the proper chains; the rest count at 0
    lengths = Counter(
        len(chain) if len(chain[0]) > 1 else 0
        for chain in oracle.set_chains(mode == "normal", include_trivial=True)
    )
    total = sum(lengths.values())
    proper = [lengths[k] for k in range(1, max(lengths) + 1)]
    if proper != list(counts.per_length):
        return _fail(
            params.n, name, f"set DFS {proper} != count_chains {list(counts.per_length)}"
        )
    if total != counts.fuzzy_count:
        return _fail(
            params.n,
            name,
            f"all-chain total {total} != doubled proper total "
            f"{counts.fuzzy_count}",
        )
    return _ok(params.n, name)


def check_fuzzy_axioms(oracle: GroupOracle) -> list[CheckResult]:
    """The fuzzy-axioms and equivalence-classes results, from one walk over
    the oracle's set chains ending at G, {e} included.

    Each chain gives one exact grade map that must satisfy FG1/FG2 on the
    tables, be normal fuzzy (mu(xy) = mu(yx)) exactly when every level
    subgroup is normal, keep its class when re-leveled, and differ in
    ranks from every other chain's map.  The classes are counted as the
    distinct ranks, which must equal both the number of chains and the
    doubled count_chains total."""
    name = "fuzzy-axioms"
    params = oracle.params
    n = params.n

    def label(chain):
        return " < ".join(_set_name(oracle.element_set(h)) for h in chain)

    failure = None
    seen: dict[tuple[int, ...], tuple[frozenset[int], ...]] = {}
    reps = []
    chains = 0
    for chain in oracle.set_chains(include_trivial=True):
        chains += 1
        rep = representative_from_sets(params, chain)
        if failure is None:
            normal = all(oracle.is_normal(h) for h in chain)
            relevel = [Fraction(2, 2 * i + 1) for i in range(1, len(chain) + 1)]
            if not oracle.is_fuzzy_subgroup(rep):
                failure = f"FG1/FG2 fail for chain {label(chain)}"
            elif oracle.is_normal_fuzzy(rep) != normal:
                verdict = "fails" if normal else "holds"
                failure = f"mu(xy) = mu(yx) {verdict} for chain {label(chain)}"
            elif representative_from_sets(params, chain, relevel).ranks != rep.ranks:
                failure = f"re-leveling broke chain {label(chain)}"
            elif rep.ranks in seen:
                first = label(seen[rep.ranks])
                failure = f"chains {first} and {label(chain)} collide under ~"
        seen.setdefault(rep.ranks, chain)
        if n <= 2:
            reps.append(rep)
    if failure is None and n <= 2:
        # the ranks shortcut against the literal all-pairs relation: equal
        # patterns exactly when equal ranks, for every pair of maps, is one
        # pattern per rank tuple and one rank tuple per pattern
        pats = [comparison_pattern(r) for r in reps]
        ranks = [r.ranks for r in reps]
        if not len(set(pats)) == len(set(ranks)) == len(set(zip(pats, ranks))):
            failure = "all-pairs equivalence cross-check failed"
    want = count_chains(params, "all").fuzzy_count
    classes = (
        _ok(n, "equivalence-classes")
        if len(seen) == chains == want
        else _fail(
            n,
            "equivalence-classes",
            f"{len(seen)} classes from {chains} set chains, count_chains {want}",
        )
    )
    return [_ok(n, name) if failure is None else _fail(n, name, failure), classes]


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
    """The full battery for n = 1..n_max, each check gated by its cost.

    set-chains and the four Element-level checks (membership, containment,
    subgroup closure, normal-in-supergroup) run once per factorization
    shape of 2n, at the first n <= n_max of that shape: count_chains
    depends on n only through the shape.  lattice-vs-oracle runs at every
    n within the oracle limit: the s relabel of the product coordinates
    depends on each prime's residue mod 3 too.  A mode that fails
    lattice-order-laws gets no chain table and no check that reads one."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if fuzzy_n_max < 0 or oracle_limit < 0:
        raise ValueError("fuzzy_n_max and oracle_limit must be nonnegative")
    results: list[CheckResult] = []
    fuzzy_counts: dict[int, tuple[int, ...]] = {}
    shapes: set[tuple[int, int, tuple[int, ...]]] = set()
    for n in range(1, n_max + 1):
        params = GroupParams(n)
        shape = factorization_shape(2 * n)
        first_of_shape = shape not in shapes
        shapes.add(shape)
        within = params.order <= oracle_limit
        oracle = GroupOracle(params, oracle_limit) if within else None
        lat_all, lat_normal = lats = [build_lattice(params, m) for m in MODES]
        results.append(check_count_formula(params))
        if oracle is not None:
            sets = catalog_sets(oracle)
            if n <= 4:
                results.append(check_group_laws(oracle))
            results.append(check_subgroup_family(oracle, sets))
            results.append(check_normal_family(oracle, sets))
            results.append(check_normal_restriction(oracle, sets, lat_all, lat_normal))
            if first_of_shape:
                results.append(check_membership(oracle, sets))
                results.append(check_containment(oracle, sets))
                results.append(check_subgroup_closure(oracle, sets))
                results.append(check_normal_in_supergroup(oracle, sets, lat_normal))
        counts = []
        for lat in lats:
            laws = check_lattice_order_laws(lat)
            results += [laws, check_hasse_closure(lat)]
            if laws.passed:  # irreflexive and transitive: acyclic, so the DP ends
                table = compute_chain_table(lat)
                results += [check_dp_vs_dfs(table), check_shape_vs_lattice(table)]
                counts.append(chain_counts(table).fuzzy_count)
            if oracle is not None:
                if first_of_shape:
                    results.append(check_set_chains(oracle, lat.mode))
                results.append(check_lattice_vs_oracle(oracle, sets, lat))
        if n <= fuzzy_n_max and oracle is not None:
            results.extend(check_fuzzy_axioms(oracle))
        if len(counts) == len(MODES):
            fuzzy_counts[n] = tuple(counts)
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
        "checks": [r._asdict() for r in results],
        "passed": all(r.passed for r in results),
    }
