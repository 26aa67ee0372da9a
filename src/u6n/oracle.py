"""Brute-force ground truth for subgroups, chains, and fuzzy subgroups.

Everything here works from the group operation alone.  GroupOracle builds
one integer Cayley table and one inverse table per group from
group.multiply and group.inverse, element a^u b^v at index 3u + v (the
order of all_elements), and answers every question about that group on
the table.  Only the rows of b^0, b^1 and b^2 come from multiply, kept as
they are; since a^u b^v y = a^u (b^v y) and a^u only adds u to the
a-exponent, row (u, v) is row v with 3u added to each index mod 6n.
verify.check_group_laws compares every entry with multiply.  Subgroups are
discovered once: the cyclic subgroups <g> come from walking the powers of
g, each other generator g^k of <g> (gcd(k, |<g>|) = 1) skipped, and
subgroups are joined with cyclic subgroups of prime-power order to a
fixpoint, each join <H, g> closed as a union of right cosets H r.  A
subgroup is normal iff conjugating it by every group element keeps it
inside itself, that is, iff it holds the whole conjugacy class
{g^-1 x g : g in G} of each of its elements x: the conjugation rows
g^-1 x g are read off the table once, on first use, the classes once
from every row, and each subgroup is tested once against the classes of
its elements, with no generator shortcut.  Chains are listed by explicit
depth-first search, over the oracle's own index sets
(GroupOracle.set_chains) or over a catalog lattice (lattice_chains).
Covers are found by definition, as set differences (transitive_reduction).
Fuzzy subgroups are materialized as exact rational grade maps, one grade
tuple per FuzzyMap in the tables' index order, ranked once when built:
each grade becomes its rank among the distinct grades, an order-preserving
one-to-one relabel, so >=, min and = carry over exactly to int
comparisons.  GroupOracle checks the defining axioms on those ranks over
its tables, and two maps are equivalent exactly when their ranks
coincide, that is, when their comparison_pattern, the literal all-pairs
relation mu(x) > mu(y), coincides.  Grades are compared as exact
integers: the ranking keys each grade on its (numerator, denominator),
and the distinct grades are ordered, as comparison_pattern compares all
grades, after scaling each to the lcm of their denominators.  None of it
consults the divisor-based catalog, so agreement between the two paths is
evidence, not circularity: descriptors meet the oracle only in
verify.catalog_sets, which maps each one to its index set.
Factorization is plain trial division, the reference for the catalog's
Miller-Rabin and Pollard-rho factorizer.

GroupOracle is the one way to ask about a group; oracle_count_set_chains
counts a fresh oracle's set_chains by length.

All of this is exponential in spirit and guarded by an order limit.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

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


def _index(x: Element) -> int:
    """Position of x in all_elements."""
    return 3 * x.a_exp + x.b_exp


class GroupOracle:
    """The brute-force view of one group U_6n, built once and asked often.

    The tables are built on construction; the conjugation rows, the
    subgroup family and each subgroup's normality are computed on first
    use and kept for the life of the object, never beyond it.  Subgroups
    are frozensets of element indices; index_set and element_set convert
    to and from Elements.
    """

    def __init__(self, params: GroupParams, limit: int = DEFAULT_ORACLE_LIMIT):
        if params.order > limit:
            raise OracleLimitExceeded(
                f"group order {params.order} exceeds the oracle limit {limit}"
            )
        self.params = params
        self.elements = elements = all_elements(params)
        order = params.order
        # b^v y from multiply, then a^u b^v y = a^u (b^v y): left
        # multiplication by a^u adds u to the a-exponent, 3u to the index
        b_rows = [[_index(multiply(params, b, y)) for y in elements]
                  for b in elements[:3]]
        self.mult = b_rows + [[(shift + z) % order for z in row]
                              for shift in range(3, order, 3) for row in b_rows]
        self.inv = [_index(inverse(params, x)) for x in elements]
        self.identity = _index(identity(params))
        self._normal: dict[frozenset[int], bool] = {}

    def index_set(self, elements: Iterable[Element]) -> frozenset[int]:
        return frozenset(map(_index, elements))

    def element_set(self, ids: Iterable[int]) -> frozenset[Element]:
        return frozenset(self.elements[i] for i in ids)

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

    def join(self, h: frozenset[int], gens: Sequence[int]) -> frozenset[int]:
        """<gens> as a union of right cosets H r, for a subgroup h inside <gens>.

        Starts from the coset H e = H and right-multiplies each new coset
        representative r by every generator; a product x outside the
        cosets found so far adds the coset H x = {y x : y in H}.  As r s in
        H r' gives H r s in H r', the union is closed under right
        multiplication by every generator, so it holds <gens>; it lies
        inside <gens> as h does.
        """
        columns = self.columns
        seen = set(h)
        reps = [self.identity]
        for r in reps:  # grows while it is walked
            row = self.mult[r]
            for s in gens:
                x = row[s]
                if x not in seen:
                    seen.update(map(columns[x].__getitem__, h))
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
        new appears, each join as a union of right cosets of H (join).
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
                    joined = self.join(h, gens + (g,))
                    if joined not in found:
                        found[joined] = gens + (g,)
                        work.append(joined)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    @cached_property
    def columns(self) -> list[tuple[int, ...]]:
        """columns[y][x] is the index of x y: the table read by columns."""
        return list(zip(*self.mult))

    @cached_property
    def conj(self) -> list[tuple[int, ...]]:
        """conj[g][x] is the index of g^-1 x g: (g^-1 x) g read off the
        table, row g^-1 then column g."""
        columns = self.columns
        return [tuple(map(columns[g].__getitem__, self.mult[g_inv]))
                for g, g_inv in enumerate(self.inv)]

    @cached_property
    def classes(self) -> list[frozenset[int]]:
        """classes[x] = {g^-1 x g : g in G}, the conjugacy class of x,
        read from every conjugation row."""
        return [frozenset(column) for column in zip(*self.conj)]

    def is_normal(self, h: frozenset[int]) -> bool:
        """True iff g^-1 x g lies in h for every x in h and every g in G:
        iff h holds the conjugacy class of each of its elements."""
        if h not in self._normal:
            classes = self.classes
            self._normal[h] = all(classes[x] <= h for x in h)
        return self._normal[h]

    @cached_property
    def normal_subgroups(self) -> list[frozenset[int]]:
        return [h for h in self.subgroups if self.is_normal(h)]

    def _ranks(self, mu: FuzzyMap) -> tuple[int, ...]:
        if mu.params != self.params:
            raise ValueError("the fuzzy map is over a different group")
        return mu.ranks

    def is_fuzzy_subgroup(self, mu: FuzzyMap) -> bool:
        """mu(xy) >= min(mu(x), mu(y)) and mu(x^-1) >= mu(x), on the tables."""
        ranks = self._ranks(mu)
        for x, row in enumerate(self.mult):
            rx = ranks[x]
            if ranks[self.inv[x]] < rx:
                return False
            for y, xy in enumerate(row):
                r = ranks[xy]
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

    def set_chains(
        self, normal_only: bool = False, include_trivial: bool = True
    ) -> Iterator[tuple[frozenset[int], ...]]:
        """Every chain of subgroups ending at G, as ascending index sets.

        Runs on the discovered index sets ordered by strict inclusion, with
        no catalog descriptors involved.  include_trivial controls whether
        {e} may appear as a chain member.
        """
        family = self.normal_subgroups if normal_only else self.subgroups
        if not include_trivial:
            family = [h for h in family if len(h) > 1]
        below = [[j for j, t in enumerate(family) if t < s] for s in family]
        # the family is sorted by size, so G comes last
        for chain in _chains_from(len(family) - 1, below):
            yield tuple(family[i] for i in chain)


def trial_division_factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 by trial division up to sqrt(m).

    The reference for subgroups.factorize: as slow as it is plain, and it
    shares no code with the Miller-Rabin and Pollard-rho path.
    """
    if m < 1:
        raise ValueError(f"cannot factorize {m}")
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
    """Per-length counts of GroupOracle(params, limit).set_chains; index k
    counts the chains with k+1 members."""
    oracle = GroupOracle(params, limit)
    return _per_length(oracle.set_chains(normal_only, include_trivial))


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
        # each grade's first-appearance id, keyed on its exact (numerator,
        # denominator), cheaper than a Fraction hash; then the k distinct
        # grades sorted as integers scaled to the lcm of their denominators
        # and each id relabelled by its rank
        first: dict[tuple[int, int], int] = {}
        ids = [first.setdefault((g.numerator, g.denominator), len(first))
               for g in grades]
        scale = lcm(*(q for _, q in first))
        scaled = [p * (scale // q) for p, q in first]
        order = sorted(range(len(scaled)), key=scaled.__getitem__)
        if scaled[order[0]] < 0 or scaled[order[-1]] > scale:
            raise ValueError("grades must lie in [0, 1]")
        rank = [0] * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        return tuple.__new__(cls, (params, grades, tuple(map(rank.__getitem__, ids))))

    def __getnewargs__(self) -> tuple:
        # copy and pickle call __new__ with these, not with all three fields
        return self.params, self.grades

    @classmethod
    def _make(cls, fields) -> FuzzyMap:
        params, grades, _ = fields  # ranks follow from the grades
        return cls(params, grades)

    def __getitem__(self, x: Element) -> Fraction:
        return self.grades[_index(x)]


def _exact(grade: object) -> Fraction:
    if type(grade) is Fraction:
        return grade
    if isinstance(grade, float) or not isinstance(grade, (int, Fraction)):
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
    default levels are 1, 1/2, ..., 1/k.
    """
    if not sets:
        raise ValueError("chain must be nonempty")
    for small, big in zip(sets, sets[1:]):
        if not small < big:
            raise ValueError("chain sets must be strictly ascending")
    if sets[-1] != frozenset(range(params.order)):
        raise ValueError("chain must end at the whole group")
    if levels is None:
        levels = [Fraction(1, i) for i in range(1, len(sets) + 1)]
    if len(levels) != len(sets):
        raise ValueError(f"expected {len(sets)} levels, got {len(levels)}")
    values = list(map(_exact, levels))
    if any(a <= b for a, b in zip(values, values[1:])):
        raise ValueError("levels must be strictly decreasing")
    if values[-1] < 0 or values[0] > 1:
        raise ValueError("levels must lie in [0, 1]")
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
