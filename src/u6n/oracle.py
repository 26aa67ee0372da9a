"""Brute-force ground truth for subgroups, chains, and fuzzy subgroups.

Everything here works from the group operation alone.  GroupOracle builds
one integer Cayley table and one inverse table per group from
group.multiply and group.inverse, element a^u b^v at index 3u + v (the
order of all_elements), and answers every question about that group on
the table.  Only the rows of b^0, b^1 and b^2 come from multiply, kept as
they are; since a^u b^v y = a^u (b^v y) and a^u only adds u to the
a-exponent, row (u, v) is row v with 3u added to each index mod 6n.
verify.check_group_laws compares every entry with multiply.  The table
is the one order x order structure, and all else is read off its rows.
Subgroups are discovered once: the cyclic subgroups <g> come from walking
the powers of g, each other generator g^k of <g> (gcd(k, |<g>|) = 1)
skipped, and subgroups are joined with cyclic subgroups of prime-power
order to a fixpoint, each join <H, g> closed as a union of left cosets
r H.  Each conjugate g x g^-1 = (g (g x)^-1)^-1 is read off row g and
the inverse table, with no generator shortcut: a subgroup is normal iff
it holds the conjugacy class of each of its elements, the classes built
once, on first use.  Normality in G is the only normality the oracle
answers, and verify's normal-in-supergroup reads it too: a subgroup
normal in G is normal in every subgroup that holds it.  The public
methods check the ids they are given; the one coset join, the private
_join that subgroups calls, and _is_normal skip that check, for the sets
the oracle made itself.
Chains are listed by explicit depth-first search, over the oracle's own
index sets (set_chains(mode), {e} always in) or over a catalog lattice
(lattice_chains).
Covers are found by definition, as set differences (transitive_reduction).
Fuzzy subgroups are materialized as exact rational grade maps, one grade
tuple per FuzzyMap in the tables' index order, ranked once when built:
each grade becomes its rank among the distinct grades, an order-preserving
one-to-one relabel, so >=, min and = carry over exactly to int
comparisons.  GroupOracle checks the defining axioms on those ranks over
its tables: FG2 at every element, FG1 over the pairs whose members both
have rank above 0, since no rank lies below 0 and so a pair with a
member of rank 0 cannot fail FG1, on any table, group or not.
representative_from_sets checks the chain it is given; _chain_map fills
the grades unchecked, for the oracle's own set_chains, which verify's
fuzzy walk maps.  Two maps are equivalent exactly when their ranks
coincide, that is, when their comparison_pattern, the literal all-pairs
relation mu(x) > mu(y), coincides.  Grades are compared as exact
integers: the ranking, as comparison_pattern, scales each grade to an
integer over the lcm of the denominators, and each grade's rank is its
place among the distinct scaled values.  None of it
consults the divisor-based catalog, so agreement between the two paths is
evidence, not circularity: descriptors meet the oracle only in verify,
at two bridges.  catalog_sets maps each descriptor's closed-form element
set to its index set, and check_membership maps each descriptor's
generators through index_set to the subgroup they generate.
Factorization is plain trial division, the reference for the catalog's
BPSW and Pollard-rho factorizer.

GroupOracle is the one way to ask about a group; oracle_count_set_chains
counts a fresh oracle's set_chains(mode) by length.

All of this is exponential in spirit and guarded by an order limit.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Collection, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .group import (
    DEFAULT_ORACLE_LIMIT,
    Element,
    GroupParams,
    OracleLimitExceeded,
    all_elements,
    canonical_element,
    check_mode,
    exact_int,
    identity,
    inverse,
    multiply,
)
from .lattice import Lattice


def _index(x: Element) -> int:
    """Position of x in all_elements, for an x known canonical; index_set
    and FuzzyMap check theirs (group.canonical_element) first."""
    return 3 * x.a_exp + x.b_exp


def _check_ids(whole: frozenset[int], groups: Iterable[Collection[int]]) -> None:
    """ValueError unless every id in groups is an int in whole, the indices
    range(order) of one group: an int outside it, or True or 1.0, which
    equal the index 1, would alias an element.  The test of a passing
    call stays at C level, as every oracle query makes it."""
    if all(whole.issuperset(ids) and {int}.issuperset(map(type, ids))
           for ids in groups):
        return
    bad = next(i for ids in groups for i in ids if type(i) is not int or i not in whole)
    raise ValueError(f"{bad!r} is not an element index of U_{len(whole)}")


class GroupOracle:
    """The brute-force view of one group U_6n, built once and asked often.

    The Cayley table mult, its one order x order structure, and the
    inverse table inv are built on construction.  The conjugacy classes
    and the subgroup families are read off the rows of mult on first use
    and kept for the life of the object, never beyond it; normal_subgroups
    is the one normality answer kept.  Subgroups are frozensets of element
    indices; index_set and element_set convert to and from Elements.  They
    and every public method that takes indices refuse (ValueError) a
    non-canonical Element or an index that is not an int in range(order)
    (_check_ids), which would alias another element; only the private
    coset join _join, which subgroups calls, and _is_normal skip that
    check, for the oracle's own sets.  A limit that is not an int >= 0
    raises ValueError (group.exact_int), and a group of order above it
    OracleLimitExceeded.
    """

    def __init__(self, params: GroupParams, limit: int = DEFAULT_ORACLE_LIMIT):
        if params.order > exact_int(limit, 0, "limit"):
            raise OracleLimitExceeded(
                f"group order {params.order} exceeds the oracle limit {limit}"
            )
        self.params = params
        self.elements = elements = all_elements(params)
        order = params.order
        # b^v y from multiply, then a^u b^v y = a^u (b^v y): left
        # multiplication by a^u adds u to the a-exponent, 3u to the index;
        # the derived rows share the one int object of ids for each index
        ids = list(range(order))
        b_rows = [[_index(multiply(params, b, y)) for y in elements]
                  for b in elements[:3]]
        self.mult = b_rows + [[ids[(shift + z) % order] for z in row]
                              for shift in range(3, order, 3) for row in b_rows]
        self.inv = [_index(inverse(params, x)) for x in elements]
        self.identity = _index(identity())
        self._ids = frozenset(ids)

    def index_set(self, elements: Iterable[Element]) -> frozenset[int]:
        params = self.params
        return frozenset(_index(canonical_element(params, x)) for x in elements)

    def element_set(self, ids: Iterable[int]) -> frozenset[Element]:
        ids = list(ids)
        _check_ids(self._ids, (ids,))
        return frozenset(map(self.elements.__getitem__, ids))

    def generated(self, gens: Sequence[int]) -> frozenset[int]:
        # products of generators suffice: in a finite group the closure
        # under multiplication alone already contains every inverse
        _check_ids(self._ids, (gens,))
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

    def _join(self, h: frozenset[int], gens: Sequence[int]) -> frozenset[int]:
        """<gens> as a union of left cosets r H, for a subgroup h inside <gens>.

        Starts from the coset e H = H and left-multiplies each new coset
        representative r by every generator s; a product x = s r outside
        the cosets found so far adds the coset x H = {x y : y in H}, read
        off row x.  As s (r H) = (s r) H, the union is closed under left
        multiplication by every generator and holds e, so it holds <gens>;
        it lies inside <gens> as h does.  subgroups calls it on ids the
        oracle made itself, so it does not check them.
        """
        mult = self.mult
        seen = set(h)
        reps = [self.identity]
        for r in reps:  # grows while it is walked
            for s in gens:
                x = mult[s][r]
                if x not in seen:
                    seen.update(map(mult[x].__getitem__, h))
                    reps.append(x)
        return frozenset(seen)

    @cached_property
    def cyclic_subgroups(self) -> dict[frozenset[int], int]:
        """Each distinct cyclic subgroup <g>, with its least generator g.

        <g> is the walk e, g, g^2, ... back to e.  Every g^k with
        gcd(k, |<g>|) = 1 generates the same subgroup and is skipped when
        its turn comes; any other element generates a new subgroup.
        """
        found: dict[frozenset[int], int] = {}
        skip = set()
        mult, e = self.mult, self.identity
        for g in range(len(mult)):
            if g in skip:
                continue
            powers = [e]
            x = g
            while x != e:
                powers.append(x)
                x = mult[x][g]
            order = len(powers)
            skip.update(x for k, x in enumerate(powers) if gcd(k, order) == 1)
            found[frozenset(powers)] = g
        return found

    @cached_property
    def subgroups(self) -> list[frozenset[int]]:
        """Every subgroup, {e} and the whole group included, by size.

        Seeds with the cyclic subgroups (cyclic_subgroups), one generator
        kept for each, then joins every found H with every cyclic subgroup
        <g> of prime-power order not inside it (g not in H) until nothing
        new appears, each join as a union of left cosets of H (_join).
        An element of order p^i q^j ... is the product of powers of itself
        of orders p^i, q^j, ..., so a subgroup is the join of the cyclic
        subgroups of prime-power order inside it, and is reached by adding
        them one at a time; <H, c> needs only one generator of c.
        """
        found = {c: (g,) for c, g in self.cyclic_subgroups.items()}
        prime_power = [g for c, g in self.cyclic_subgroups.items()
                       if len(trial_division_factorize(len(c))) <= 1]
        work = list(found)
        while work:
            h = work.pop()
            gens = found[h]
            for g in prime_power:
                if g not in h:
                    joined = self._join(h, gens + (g,))
                    if joined not in found:
                        found[joined] = gens + (g,)
                        work.append(joined)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    @cached_property
    def classes(self) -> list[frozenset[int]]:
        """classes[x] = {g x g^-1 : g in G}, the conjugacy class of x, over
        every g, read off row g alone: g x g^-1 = (g (g x)^-1)^-1, so no
        column is read."""
        mult, inv = self.mult, self.inv
        return [frozenset({inv[row[inv[row[x]]]] for row in mult})
                for x in range(len(mult))]

    def is_normal(self, h: frozenset[int]) -> bool:
        """True iff g x g^-1 lies in h for every x in h and every g in G:
        iff h holds the conjugacy class of each of its elements."""
        _check_ids(self._ids, (h,))
        return self._is_normal(h)

    def _is_normal(self, h: frozenset[int]) -> bool:
        """is_normal on ids the oracle made itself, unchecked."""
        classes = self.classes
        return all(classes[x] <= h for x in h)

    @cached_property
    def normal_subgroups(self) -> list[frozenset[int]]:
        return [h for h in self.subgroups if self._is_normal(h)]

    def _ranks(self, mu: FuzzyMap) -> tuple[int, ...]:
        if mu.params != self.params:
            raise ValueError("the fuzzy map is over a different group")
        return mu.ranks

    def is_fuzzy_subgroup(self, mu: FuzzyMap) -> bool:
        """mu(xy) >= min(mu(x), mu(y)) and mu(x^-1) >= mu(x), on the tables.

        FG2 is read for every x, FG1 only over the pairs of raised
        elements, both of rank above 0: FG1 fails at (x, y) only when
        mu(xy) lies below both mu(x) and mu(y), and no rank lies below 0,
        so a pair with a member of rank 0 cannot fail.  That holds on any
        table and any map, with no group law, so the verdict is the
        all-pairs one.  A chain map's raised elements are its second
        largest level set, at most half the group.
        """
        ranks = self._ranks(mu)
        inv = self.inv
        if any(ranks[inv[x]] < rx for x, rx in enumerate(ranks)):
            return False
        mult = self.mult
        raised = [x for x, rx in enumerate(ranks) if rx]
        for x in raised:
            row, rx = mult[x], ranks[x]
            for y in raised:
                r = ranks[row[y]]
                if r < rx and r < ranks[y]:
                    return False
        return True

    def is_normal_fuzzy(self, mu: FuzzyMap) -> bool:
        """mu(xy) = mu(yx) for all pairs, on the table."""
        ranks = self._ranks(mu)
        mult = self.mult
        return all(
            ranks[row[y]] == ranks[mult[y][x]]
            for x, row in enumerate(mult)
            for y in range(x)
        )

    def set_chains(self, mode: str) -> Iterator[tuple[frozenset[int], ...]]:
        """Every chain of the mode's subgroups ending at G, {e} included, as
        ascending index sets, on the discovered sets ordered by strict
        inclusion, with no catalog descriptors involved."""
        family = self.subgroups if check_mode(mode) == "all" else self.normal_subgroups
        # the family is sorted by size, so every proper subset of a set comes
        # before it, and G comes last
        below = [[j for j in range(i) if family[j] < s] for i, s in enumerate(family)]
        return (tuple(map(family.__getitem__, chain))
                for chain in _chains_from(len(family) - 1, below))


def trial_division_factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 by trial division up to sqrt(m).

    The reference for subgroups.factorize: as slow as it is plain, and it
    shares no code with the BPSW and Pollard-rho path.
    """
    exact_int(m, 1, "m")
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


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


def _per_length(chains: Iterable[tuple]) -> list[int]:
    lengths = Counter(map(len, chains))
    return [lengths[k] for k in range(1, max(lengths) + 1)]


def lattice_chains(lat: Lattice) -> Iterator[tuple[int, ...]]:
    """Every ascending chain of lattice nodes ending at the top, as node
    indices, listed by explicit depth-first search."""
    below: list[list[int]] = [[] for _ in lat.nodes]
    for i in range(len(below)):
        for j in lat.row(i):
            below[j].append(i)
    return _chains_from(lat.top_index, below)


def oracle_count_chains(lat: Lattice) -> list[int]:
    """Per-length chain counts by explicit DFS over the lattice nodes;
    index k counts the chains with k+1 nodes."""
    return _per_length(lattice_chains(lat))


def transitive_reduction(lat: Lattice) -> set[tuple[int, int]]:
    """Hasse covers by definition, from the strict relation alone: (i, j)
    is kept iff no node k has i < k < j.  The covers of i are its strict
    successors R_i less every R_k for k in R_i, as set differences.
    verify's hasse-closure holds the whole hasse_edges list to it, at every n."""
    above = [set(lat.row(i)) for i in range(len(lat.nodes))]
    return {
        (i, j)
        for i, ups in enumerate(above)
        for j in ups.difference(*map(above.__getitem__, ups))
    }


def oracle_count_set_chains(
    params: GroupParams,
    normal_only: bool = False,
    include_trivial: bool = True,
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> list[int]:
    """Per-length counts of GroupOracle(params, limit).set_chains, less the
    chains starting at {e} unless include_trivial; index k counts the
    chains with k+1 members.  normal_only and include_trivial must be
    bools, and anything else raises ValueError: "all" would be truthy."""
    if type(normal_only) is not bool or type(include_trivial) is not bool:
        raise ValueError("normal_only and include_trivial must be bools, got "
                         f"{normal_only!r} and {include_trivial!r}")
    chains = GroupOracle(params, limit).set_chains("normal" if normal_only else "all")
    if not include_trivial:
        chains = (c for c in chains if len(c[0]) > 1)
    return _per_length(chains)


class FuzzyMap(namedtuple("FuzzyMap", "params grades ranks")):
    """Total map from group elements to exact membership grades in [0, 1].

    grades is a tuple in all_elements order, so a^u b^v's grade sits at
    3u + v, the index of GroupOracle's tables.  ranks holds each grade as
    its rank among the distinct grades, lowest 0, in the same order: the
    relabel is order-preserving and one-to-one on grades, so >=, min and
    = give the same answers on ranks, and two maps over one group have
    the same strict-comparison pattern exactly when their ranks coincide.
    Built from (params, grades) alone; ranks is computed, never passed.
    """

    __slots__ = ()

    def __new__(cls, params: GroupParams, grades: Sequence) -> FuzzyMap:
        if len(grades) != params.order:
            raise ValueError("grades must cover exactly the group elements")
        grades = tuple(map(_exact, grades))
        # each grade scaled to an integer over the lcm of the denominators,
        # as comparison_pattern compares them, and ranked among the
        # distinct scaled values
        scale = lcm(*(g.denominator for g in grades))
        scaled = [g.numerator * (scale // g.denominator) for g in grades]
        distinct = sorted(set(scaled))
        if distinct[0] < 0 or distinct[-1] > scale:
            raise ValueError("grades must lie in [0, 1]")
        rank = {v: r for r, v in enumerate(distinct)}
        return tuple.__new__(cls, (params, grades, tuple(map(rank.__getitem__, scaled))))

    def __getnewargs__(self) -> tuple:
        # copy and pickle call __new__ with these, not with all three fields
        return self.params, self.grades

    @classmethod
    def _make(cls, fields) -> FuzzyMap:
        params, grades, _ = fields  # ranks follow from the grades
        return cls(params, grades)

    def __getitem__(self, x: Element) -> Fraction:
        return self.grades[_index(canonical_element(self.params, x))]


def _exact(grade: object) -> Fraction:
    if type(grade) is Fraction:
        return grade
    # True would pass as the grade 1
    if isinstance(grade, (bool, float)) or not isinstance(grade, (int, Fraction)):
        raise ValueError(f"grade {grade!r} is not an exact rational")
    return Fraction(grade)


def representative_from_sets(
    params: GroupParams,
    sets: Sequence[frozenset[int]],
    levels: Sequence[Fraction] | None = None,
) -> FuzzyMap:
    """Grade map of an ascending chain of index sets ending at G, in the
    form GroupOracle.set_chains yields.

    Elements first appearing in the i-th set get the i-th level; the
    default levels are 1, 1/2, ..., 1/k, valid as built, so only levels
    the caller passes are checked.  An id element_set refuses raises its
    ValueError here too.  The grades are filled by _chain_map, which
    verify's fuzzy walk calls directly on the oracle's own chains, whose
    ids, ascent and end at G hold as set_chains makes them.
    """
    if not sets:
        raise ValueError("chain must be nonempty")
    whole = frozenset(range(params.order))
    _check_ids(whole, sets)
    for small, big in zip(sets, sets[1:]):
        if not small < big:
            raise ValueError("chain sets must be strictly ascending")
    if sets[-1] != whole:
        raise ValueError("chain must end at the whole group")
    if levels is None:
        values = [Fraction(1, i) for i in range(1, len(sets) + 1)]
    else:
        if len(levels) != len(sets):
            raise ValueError(f"expected {len(sets)} levels, got {len(levels)}")
        values = list(map(_exact, levels))
        if any(a <= b for a, b in zip(values, values[1:])):
            raise ValueError("levels must be strictly decreasing")
        if values[-1] < 0 or values[0] > 1:
            raise ValueError("levels must lie in [0, 1]")
    return _chain_map(params, sets, values)


def _chain_map(
    params: GroupParams, sets: Sequence[frozenset[int]], values: Sequence[Fraction]
) -> FuzzyMap:
    """representative_from_sets on a chain and levels known valid,
    unchecked: one level per set, each set's members graded from G down."""
    grades: list[Fraction | None] = [None] * params.order
    for value, members in zip(reversed(values), reversed(sets)):
        for i in members:
            grades[i] = value
    return FuzzyMap(params, tuple(grades))


def comparison_pattern(mu: FuzzyMap) -> tuple[bool, ...]:
    """mu(x) > mu(y) for every ordered pair (x, y) of elements, x major,
    in the tables' index order: the literal relation that ~ compares,
    on the grades scaled to exact integers by the lcm of their
    denominators."""
    grades = mu.grades
    scale = lcm(*(g.denominator for g in grades))
    scaled = [g.numerator * (scale // g.denominator) for g in grades]
    return tuple(gx > gy for gx in scaled for gy in scaled)
