"""Brute-force ground truth for subgroups, chains, and fuzzy subgroups.

Everything here works from the group operation alone: subgroups are
discovered by closing generator sets to a fixpoint, normality is checked
by conjugating every element, chains are listed by explicit depth-first
search, and fuzzy subgroups are materialized as exact rational grade
maps and checked directly against their defining axioms.  None of it
consults the divisor-based catalog, so agreement between the two paths
is evidence, not circularity.

All of this is exponential in spirit and guarded by an order limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .group import (
    DEFAULT_ORACLE_LIMIT,
    Element,
    GroupParams,
    OracleLimitExceeded,
    all_elements,
    identity,
    inverse,
    multiply,
)
from .lattice import Lattice
from .subgroups import SubgroupDescriptor, full, subgroup_elements


class _IndexedGroup:
    """Cayley and inverse tables over integer element ids, for fast closure."""

    def __init__(self, params: GroupParams):
        self.params = params
        self.elements = all_elements(params)
        index = {x: i for i, x in enumerate(self.elements)}
        self.mult = [
            [index[multiply(params, x, y)] for y in self.elements]
            for x in self.elements
        ]
        self.inv = [index[inverse(params, x)] for x in self.elements]
        self.identity = index[identity(params)]

    def generated(self, gens: Sequence[int]) -> frozenset[int]:
        # products of generators suffice: in a finite group the closure
        # under multiplication alone already contains every inverse
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for i in frontier:
                row = self.mult[i]
                for g in gens:
                    j = row[g]
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        return frozenset(seen)

    def to_element_set(self, ids: frozenset[int]) -> frozenset[Element]:
        return frozenset(self.elements[i] for i in ids)


def _check_limit(params: GroupParams, limit: int) -> None:
    if params.order > limit:
        raise OracleLimitExceeded(
            f"group order {params.order} exceeds the oracle limit {limit}"
        )


def _discover_subgroups(group: _IndexedGroup) -> list[frozenset[int]]:
    """Fixpoint closure discovery over element ids.

    Seeds with every cyclic subgroup, then repeatedly extends a known
    subgroup by an outside element and closes again.  Any subgroup is
    reachable this way: grow a generating set one element at a time.
    """
    found: dict[frozenset[int], tuple[int, ...]] = {}
    work: list[frozenset[int]] = []
    for g in range(len(group.elements)):
        h = group.generated((g,))
        if h not in found:
            found[h] = (g,)
            work.append(h)
    while work:
        h = work.pop()
        gens = found[h]
        for g in range(len(group.elements)):
            if g in h:
                continue
            extended = group.generated(gens + (g,))
            if extended not in found:
                found[extended] = gens + (g,)
                work.append(extended)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def oracle_all_subgroups(
    params: GroupParams, limit: int = DEFAULT_ORACLE_LIMIT
) -> set[frozenset[Element]]:
    """Every subgroup as an element set, including {e} and the whole group."""
    _check_limit(params, limit)
    group = _IndexedGroup(params)
    return {group.to_element_set(h) for h in _discover_subgroups(group)}


def oracle_is_normal(
    params: GroupParams,
    h_set: frozenset[Element],
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> bool:
    """True iff g^-1 h g stays in h_set for every g in the group."""
    _check_limit(params, limit)
    for g in all_elements(params):
        g_inv = inverse(params, g)
        for h in h_set:
            if multiply(params, multiply(params, g_inv, h), g) not in h_set:
                return False
    return True


def oracle_normal_subgroups(
    params: GroupParams, limit: int = DEFAULT_ORACLE_LIMIT
) -> set[frozenset[Element]]:
    return {
        h for h in oracle_all_subgroups(params, limit)
        if oracle_is_normal(params, h, limit)
    }


def _chains_from(
    top: int, below: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Every strictly descending walk from top through the below lists.

    This is the oracle's one chain enumerator: an explicit depth-first
    search with no memoization, so counting what it yields is an
    independent check of the level recurrence, not a restatement.  Each
    chain is a tuple of indices in ascending order, ending at top.
    """

    def dfs(at: int, chain: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        yield chain
        for child in below[at]:
            yield from dfs(child, (child,) + chain)

    return dfs(top, (top,))


def _per_length(chains: Iterator[tuple[int, ...]]) -> list[int]:
    lengths = Counter(map(len, chains))
    return [lengths[k] for k in range(1, max(lengths) + 1)]


def _set_family_chains(
    sets: Sequence[frozenset[Element]],
) -> Iterator[tuple[int, ...]]:
    """Chains of strict inclusion among sets that end at the largest one."""
    subsets = [[j for j, t in enumerate(sets) if t < s] for s in sets]
    whole = max(range(len(sets)), key=lambda i: len(sets[i]))
    return _chains_from(whole, subsets)


def lattice_chains(lat: Lattice) -> Iterator[tuple[int, ...]]:
    """Every ascending chain of lattice nodes ending at the top, as node
    indices, listed by explicit depth-first search."""
    below: list[list[int]] = [[] for _ in lat.nodes]
    for i, ups in enumerate(lat.strictly_below):
        for j in ups:
            below[j].append(i)
    return _chains_from(lat.top_index, below)


def oracle_count_chains(lat: Lattice) -> list[int]:
    """Per-length chain counts by explicit DFS over the lattice nodes;
    index k counts the chains with k+1 nodes."""
    return _per_length(lattice_chains(lat))


def oracle_count_set_chains(
    params: GroupParams,
    normal_only: bool = False,
    include_trivial: bool = True,
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> list[int]:
    """Per-length counts of ascending subgroup-set chains ending at G.

    Runs entirely on oracle-discovered element sets ordered by strict
    inclusion, with no catalog descriptors involved.  include_trivial
    controls whether {e} may appear as a chain member.
    """
    family = oracle_all_subgroups(params, limit)
    if normal_only:
        family = {h for h in family if oracle_is_normal(params, h, limit)}
    if not include_trivial:
        family = {h for h in family if len(h) > 1}
    sets = sorted(family, key=lambda s: (len(s), sorted(s)))
    return _per_length(_set_family_chains(sets))


@dataclass(frozen=True)
class FuzzyMap:
    """Total map from group elements to exact membership grades in [0, 1]."""

    params: GroupParams
    grades: Mapping[Element, Fraction]

    def __post_init__(self) -> None:
        domain = all_elements(self.params)
        if set(self.grades) != set(domain):
            raise ValueError("grades must cover exactly the group elements")
        clean: dict[Element, Fraction] = {}
        for x in domain:
            g = self.grades[x]
            if isinstance(g, float) or not isinstance(g, (int, Fraction)):
                raise ValueError(f"grade {g!r} is not an exact rational")
            if not 0 <= g <= 1:
                raise ValueError(f"grade {g} outside [0, 1]")
            clean[x] = Fraction(g)
        object.__setattr__(self, "grades", clean)

    def __getitem__(self, x: Element) -> Fraction:
        return self.grades[x]


def _validate_levels(levels: Sequence[Fraction], k: int) -> list[Fraction]:
    if len(levels) != k:
        raise ValueError(f"expected {k} levels, got {len(levels)}")
    out: list[Fraction] = []
    for lv in levels:
        if isinstance(lv, float) or not isinstance(lv, (int, Fraction)):
            raise ValueError(f"level {lv!r} is not an exact rational")
        out.append(Fraction(lv))
    if any(not 0 <= lv <= 1 for lv in out):
        raise ValueError("levels must lie in [0, 1]")
    if any(a <= b for a, b in zip(out, out[1:])):
        raise ValueError("levels must be strictly decreasing")
    return out


def representative_from_sets(
    params: GroupParams,
    sets: Sequence[frozenset[Element]],
    levels: Sequence[Fraction] | None = None,
) -> FuzzyMap:
    """Grade map of an ascending chain of element sets ending at G.

    Elements first appearing in the i-th set get the i-th level; the
    default levels are 1, 1/2, ..., 1/k.
    """
    if not sets:
        raise ValueError("chain must be nonempty")
    for small, big in zip(sets, sets[1:]):
        if not small < big:
            raise ValueError("chain sets must be strictly ascending")
    domain = all_elements(params)
    if sets[-1] != frozenset(domain):
        raise ValueError("chain must end at the whole group")
    if levels is None:
        levels = [Fraction(1, i) for i in range(1, len(sets) + 1)]
    values = _validate_levels(levels, len(sets))
    grades: dict[Element, Fraction] = {}
    for value, members in zip(reversed(values), reversed(list(sets))):
        for x in members:
            grades[x] = value
    return FuzzyMap(params=params, grades=grades)


def chain_to_representative(
    params: GroupParams,
    chain: Sequence[SubgroupDescriptor],
    levels: Sequence[Fraction] | None = None,
) -> FuzzyMap:
    """Representative fuzzy subgroup of a descriptor chain ending at F(1)."""
    if not chain or chain[-1] != full(1):
        raise ValueError("chain must end at the whole group F(1)")
    return representative_from_sets(
        params, [subgroup_elements(params, d) for d in chain], levels
    )


def is_fuzzy_subgroup(mu: FuzzyMap) -> bool:
    """Exhaustive check of mu(xy) >= min(mu(x), mu(y)) and mu(x^-1) >= mu(x)."""
    params = mu.params
    elems = all_elements(params)
    for x in elems:
        if mu[inverse(params, x)] < mu[x]:
            return False
        for y in elems:
            if mu[multiply(params, x, y)] < min(mu[x], mu[y]):
                return False
    return True


def is_normal_fuzzy(mu: FuzzyMap) -> bool:
    """Exhaustive check of mu(xy) = mu(yx) for all pairs."""
    params = mu.params
    elems = all_elements(params)
    return all(
        mu[multiply(params, x, y)] == mu[multiply(params, y, x)]
        for x in elems
        for y in elems
    )


def rank_signature(mu: FuzzyMap) -> tuple[int, ...]:
    """Dense rank of each element's grade, highest grade first.

    Two maps have the same strict-comparison pattern exactly when their
    signatures coincide, so this is the cheap form of equivalence.
    """
    distinct = sorted(set(mu.grades.values()), reverse=True)
    rank = {value: i for i, value in enumerate(distinct)}
    return tuple(rank[mu[x]] for x in all_elements(mu.params))


def equivalent(mu: FuzzyMap, nu: FuzzyMap) -> bool:
    """True iff mu(x) > mu(y) exactly when nu(x) > nu(y), for all pairs."""
    if mu.params != nu.params:
        raise ValueError("fuzzy maps over different groups are not comparable")
    return rank_signature(mu) == rank_signature(nu)


def equivalent_by_pairs(mu: FuzzyMap, nu: FuzzyMap) -> bool:
    """Literal all-pairs form of the equivalence, as a cross-check."""
    if mu.params != nu.params:
        raise ValueError("fuzzy maps over different groups are not comparable")
    elems = all_elements(mu.params)
    return all(
        (mu[x] > mu[y]) == (nu[x] > nu[y]) for x in elems for y in elems
    )


def oracle_count_equivalence_classes(
    params: GroupParams, limit: int = DEFAULT_ORACLE_LIMIT
) -> int:
    """Count fuzzy subgroups up to equivalence, fully materialized.

    Lists every ascending subgroup-set chain ending at G (the trivial
    subgroup may appear), builds one grade-map representative per chain,
    and asserts that distinct chains give inequivalent maps while
    re-leveling a chain preserves equivalence.  The count of chains is
    then exactly the count of equivalence classes.
    """
    family = sorted(
        oracle_all_subgroups(params, limit), key=lambda s: (len(s), sorted(s))
    )
    chains = list(_set_family_chains(family))
    reps = []
    for chain in chains:
        sets = [family[i] for i in chain]
        rep = representative_from_sets(params, sets)
        assert is_fuzzy_subgroup(rep)
        relevel = [Fraction(2, 2 * i + 1) for i in range(1, len(sets) + 1)]
        assert equivalent(rep, representative_from_sets(params, sets, relevel))
        reps.append(rep)
    signatures = {rank_signature(rep) for rep in reps}
    assert len(signatures) == len(chains), "distinct chains must be inequivalent"
    return len(chains)
