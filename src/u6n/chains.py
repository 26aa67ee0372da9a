"""Counting ascending subgroup chains from the factorization shape of 2n.

Write 2n = 2^e2 * 3^e3 * m with gcd(m, 6) = 1 and n' = 2^(e2-1) * 3^e3.
Conjugation by a inverts b, so the even power a^(2n/m) is central; it
generates a cyclic subgroup of order m, <a^m, b> is a copy of U_6n', and
U_6n = U_6n' x C_m with coprime factor orders.  Every subgroup of
a direct product of coprime-order groups is the product of its two
projections, and it is normal iff both are, so the subgroup lattice and
the normal-subgroup lattice of U_6n are both

    L(U_6n) = L(U_6n') x prod_p chain(a_p),      m = prod_p p^a_p,

where chain(a) is the chain 0 < 1 < ... < a of the subgroups of C_{p^a}.

Let c_j count the strict chains 1 = H_0 < H_1 < ... < H_j = G in a
lattice L (c_0 = 0, as the group is never trivial).  The zeta polynomial
Z(L, k), the number of multichains 1 = K_0 <= K_1 <= ... <= K_k = G, is
multiplicative over products, and a chain with a steps contributes
C(a + k - 1, k - 1) multichains (Stanley, Enumerative Combinatorics I,
section 3.12).  Choosing which of the k steps of a multichain are strict
gives the pair of binomial transforms

    Z(k) = sum_j C(k, j) c_j,        c_j = sum_k (-1)^(j-k) C(j, k) Z(k),

so count_chains takes the c_j of the small core lattice L(U_6n') from the
full-lattice path, multiplies its Z(k) by prod_p C(a_p + k - 1, k - 1) for
k up to the product's height, and inverts.  The cost no longer depends on
the number of divisors of m.

The full-lattice path, build_lattice -> compute_chain_table ->
chain_counts, stays public as the independent cross-check.  Level k of
its table holds, for every lattice node H, the number of strictly
ascending chains of k+1 subgroups from H up to the whole group.  Each
level is the predecessor-sum of the one before it, and the table stops
at the first all-zero level, so its length never exceeds the lattice
height.  The lattice leaves out the trivial subgroup, so per_length[j-1]
is c_j above.  Counts are plain Python ints: they outgrow 64 bits for
divisor-rich n, and nothing here ever rounds.

Doubling the total over all nodes and lengths gives the number of
equivalence classes of fuzzy subgroups (each proper chain ending at the
whole group corresponds to exactly two classes, with and without the
trivial subgroup prepended); the doubled-support variant count is one
less than twice that.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .group import GroupParams
from .lattice import Lattice, build_lattice
from .subgroups import split_core


@dataclass(frozen=True)
class ChainTable:
    lattice: Lattice
    #: levels[k][j] = number of (k+1)-node ascending chains from node j to top
    levels: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ChainCounts:
    n: int
    mode: str
    #: per_length[k] = number of proper chains with k+1 subgroups
    per_length: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.per_length or self.per_length[0] != 1:
            raise ValueError("chain counts must start with the single chain (G)")
        if any(c < 0 for c in self.per_length) or self.per_length[-1] == 0:
            raise ValueError("chain counts must be nonnegative with nonzero tail")

    @property
    def total(self) -> int:
        return sum(self.per_length)

    @property
    def fuzzy_count(self) -> int:
        return 2 * self.total

    @property
    def mm_count(self) -> int:
        return 2 * self.fuzzy_count - 1

    def to_json_dict(self) -> dict:
        """Counts as decimal strings; they routinely exceed 64-bit integers."""
        return {
            "n": self.n,
            "mode": self.mode,
            "per_length": [str(c) for c in self.per_length],
            "total": str(self.total),
            "fuzzy_count": str(self.fuzzy_count),
            "mm_count": str(self.mm_count),
        }


def compute_chain_table(lat: Lattice) -> ChainTable:
    """Run the level recurrence until the first empty level."""
    first = [0] * len(lat.nodes)
    first[lat.top_index] = 1
    levels = [tuple(first)]
    while True:
        prev = levels[-1]
        nxt = tuple(sum(map(prev.__getitem__, ups)) for ups in lat.strictly_below)
        if not any(nxt):
            break
        levels.append(nxt)
    return ChainTable(lattice=lat, levels=tuple(levels))


def chain_counts(table: ChainTable) -> ChainCounts:
    return ChainCounts(
        n=table.lattice.params.n,
        mode=table.lattice.mode,
        per_length=tuple(sum(level) for level in table.levels),
    )


def count_chains(params: GroupParams, mode: str) -> ChainCounts:
    """Chain counts of the `mode` ("all" or "normal") lattice of U_6n.

    Counts from the factorization shape of 2n, as the module docstring
    derives; the result equals chain_counts(compute_chain_table(
    build_lattice(params, mode))).
    """
    core_two_n, rest = split_core(params.two_n)
    exponents = [a for _, a in rest]
    core = chain_counts(
        compute_chain_table(build_lattice(GroupParams(core_two_n // 2), mode))
    )
    top = len(core.per_length) + sum(exponents)
    zeta = [0] + [
        sum(cj * comb(k, j) for j, cj in enumerate(core.per_length, 1))
        * prod(comb(a + k - 1, k - 1) for a in exponents)
        for k in range(1, top + 1)
    ]
    per_length = tuple(
        sum((-1) ** (j - k) * comb(j, k) * zeta[k] for k in range(1, j + 1))
        for j in range(1, top + 1)
    )
    return ChainCounts(n=params.n, mode=mode, per_length=per_length)
