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

so count_chains takes the c_j of the core lattice L(U_6n'), multiplies
its Z(k) by prod_p C(a_p + k - 1, k - 1) for k up to the product's
height, and inverts.  The cost does not depend on the divisors of m.

The core c_j come from a dynamic program on the exponent grid of
2n' = 2^E2 * 3^E3.  Level k of the program holds, for every nontrivial
subgroup H, the number of strictly ascending chains of k+1 subgroups
from H up to G, and c_(k+1) is the level's sum.  Node (kind, t, s) with
t = 2^i * 3^j sits at grid point (i, j); a node above it has t' | t, so
i' <= i and j' <= j.  The rules of _strict_order_edges in lattice.py
become rules on the grid:

  nodes     F at every point; C at every point but (E2, E3), which is
            the trivial subgroup, and in normal mode only where i >= 1;
            T(s), s = 1, 2, in "all" mode only, where i = 0 or j < E3.
  above F   every F (the node itself excluded, here and below).
  above C   every F and every C; T at i' = 0 if i > 0; T at i' >= 1
            with j' < j.
  above T   with i = 0: every F, and T at i' = 0 with the same s;
  (i, j)    with i >= 1: every F, and T at j' = j, 1 <= i' < i, with
            s' = s for even i - i' and 3 - s for odd.

b -> b^-1, a -> a is an automorphism that swaps T(t, 1) and T(t, 2) and
fixes every other node, so both twisted nodes at a point carry the same
level value, and the parity rule reduces to "every T at j' = j,
1 <= i' < i".  Each level is then a handful of prefix sums over the
grid: 2-D ones for F, C and T, one along j in the odd column i = 0 and
one along i for the even-t twisted nodes, O((E2+1)(E3+1)) additions per
level and no strict relation at all.

The full-lattice path, build_lattice -> compute_chain_table ->
chain_counts, stays public as the independent cross-check: it builds
every subgroup and the strict order pairwise, and each level of its table
is the predecessor-sum of the one before it.  Both programs stop at the
first all-zero level, so their length never exceeds the lattice height,
and both leave out the trivial subgroup, so per_length[j-1] is c_j above.
Counts are plain Python ints: they outgrow 64 bits for divisor-rich n,
and nothing here ever rounds.

Doubling the total over all nodes and lengths gives the number of
equivalence classes of fuzzy subgroups (each proper chain ending at the
whole group corresponds to exactly two classes, with and without the
trivial subgroup prepended); the doubled-support variant count is one
less than twice that.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import comb, prod
from operator import add, sub

from .group import GroupParams
from .lattice import MODES, Lattice
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


def _prefix_sums(grid: list[list[int]]) -> list[list[int]]:
    """out[i][j] = sum of grid[i'][j'] over i' <= i and j' <= j."""
    out, acc = [], [0] * len(grid[0])
    for row in grid:
        acc = list(map(add, acc, accumulate(row)))
        out.append(acc)
    return out


def _core_chain_counts(e2: int, e3: int, mode: str) -> list[int]:
    """c_1, c_2, ... of the core lattice of 2n' = 2^e2 * 3^e3, on its grid.

    f, c and g hold one level for F(t), C(t) and T(t, 1) = T(t, 2) at
    t = 2^i * 3^j, as rows i of columns j; the rules are in the module
    docstring.
    """
    zero = [0] * (e3 + 1)
    f = [[1] + zero[1:]] + [zero] * e2
    c = g = [zero] * (e2 + 1)
    counts = []
    while total := sum(map(sum, f)) + sum(map(sum, c)) + 2 * sum(map(sum, g)):
        counts.append(total)
        pf, pc = _prefix_sums(f), _prefix_sums(c)
        f = [list(map(sub, p, row)) for p, row in zip(pf, f)]
        c = [list(map(sub, map(add, p, q), row)) for p, q, row in zip(pf, pc, c)]
        if mode == "all":
            pg = _prefix_sums(g)
            # C at i >= 1 lies below both T at (0, j) and every T at j' < j
            c[1:] = [
                [x + 2 * (y + z) for x, y, z in zip(row, g[0], [0] + p[:-1])]
                for row, p in zip(c[1:], pg[1:])
            ]
            # T at i = 0: the odd column above it; T at i >= 1: the column
            # i' < i above it, which exists only where j < e3
            new_g = [list(map(add, pf[0], [0] + pg[0][:-1]))]
            column = zero
            for p, row in zip(pf[1:], g[1:]):
                new_g.append(list(map(add, p, column))[:e3] + [0])
                column = list(map(add, column, row))
            g = new_g
        else:
            c[0] = zero
        c[e2] = c[e2][:e3] + [0]
    return counts


def factorization_shape(two_n: int) -> tuple[int, tuple[int, ...]]:
    """The core 2^e2 * 3^e3 of two_n and its sorted exponents a_p, p >= 5:
    every n whose 2n has this shape has the same chain counts."""
    core_two_n, rest = split_core(two_n)
    return core_two_n, tuple(sorted(a for _, a in rest))


def shape_chain_counts(
    core_two_n: int, exponents: Sequence[int], mode: str
) -> tuple[int, ...]:
    """per_length of every n whose 2n has core 2^e2 * 3^e3 = core_two_n and
    the exponents a_p of its primes p >= 5, in any order."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    e2 = e3 = 0
    rest = core_two_n
    while rest > 0 and rest % 2 == 0:
        rest, e2 = rest // 2, e2 + 1
    while rest > 0 and rest % 3 == 0:
        rest, e3 = rest // 3, e3 + 1
    if e2 < 1 or rest != 1:
        raise ValueError(f"core must be 2^e2 * 3^e3 with e2 >= 1, got {core_two_n}")
    core = _core_chain_counts(e2, e3, mode)
    top = len(core) + sum(exponents)
    zeta = [0] + [
        sum(cj * comb(k, j) for j, cj in enumerate(core, 1))
        * prod(comb(a + k - 1, k - 1) for a in exponents)
        for k in range(1, top + 1)
    ]
    return tuple(
        sum((-1) ** (j - k) * comb(j, k) * zeta[k] for k in range(1, j + 1))
        for j in range(1, top + 1)
    )


def count_chains(params: GroupParams, mode: str) -> ChainCounts:
    """Chain counts of the `mode` ("all" or "normal") lattice of U_6n.

    Counts from the factorization shape of 2n, as the module docstring
    derives; the result equals chain_counts(compute_chain_table(
    build_lattice(params, mode))).
    """
    per_length = shape_chain_counts(*factorization_shape(params.two_n), mode)
    return ChainCounts(n=params.n, mode=mode, per_length=per_length)
