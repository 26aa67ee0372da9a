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

so count_chains multiplies the zeta polynomial of the core lattice
L(U_6n') by prod_p C(a_p + k - 1, k - 1) for k up to the product's
height, and inverts.  The cost does not depend on the divisors of m.

The core zeta polynomial has a closed form.  Node (kind, t, s) with
t = 2^i * 3^j sits at point (i, j) of the exponent grid of
2n' = 2^E2 * 3^E3; a node above it has t' | t, so i' <= i and j' <= j.
The containment rule subgroup_leq, which build_lattice applies pairwise
on the core nodes, becomes rules on the grid:

  nodes     F at every point; C at every point but (E2, E3), which is
            the trivial subgroup, and in normal mode only where i >= 1;
            T(s), s = 1, 2, in "all" mode only, where i = 0 or j < E3.
  above F   every F (the node itself excluded, here and below).
  above C   every F and every C; T at i' = 0 if i > 0; T at i' >= 1
            with j' < j.
  above T   with i = 0: every F, and T at i' = 0 with the same s;
  (i, j)    with i >= 1: every F, and T at j' = j, 1 <= i' < i, with
            s' = s for even i - i' and 3 - s for odd.

Nothing but F lies above F, and nothing but T or F above T, so the kinds
along a multichain 1 = K_0 <= ... <= K_k = G run C, then T, then F, and
its i and j coordinates are weakly decreasing lattice paths.  Write
W2 = C(E2+k-1, k-1) and W3 = C(E3+k-1, k-1) for the paths K_1 .. K_(k-1)
in each coordinate, D = C(E2+k-1, k-2), and C(x, -1) = 0.  With no T
node, a multichain is a pair of paths and the last C among K_0 .. K_(k-1):
k * W2 * W3 of them.  In normal mode there is no T and no C at i = 0, so
a last C at K_r, r >= 1, rules out the C(E2+r-1, r-1) i paths that reach
i = 0 by K_r; by hockey-stick these sum over r = 1 .. k-1 to D:

    normal:  Z(k) = W3 * (k * W2 - D).

In "all" mode a T segment has two cases, each with 2 choices of s for
its first node (the parity rule fixes the rest):
  - at i = 0 with fixed s, entered from a C with i >= 1: summing over
    the segment's length and the i paths in [1, E2] by hockey-stick,
    twice, gives 2 * W3 * D;
  - at fixed j with i >= 1, entered by a strict step in j: shifting the
    j path after that step by one removes the strictness, and the sums
    over the segment's ends collapse by hockey-stick and, for the
    product term, by Vandermonde, sum_(a+b=N) C(E2+a, a) C(E3+b, b) =
    C(E2+E3+N+1, N), to
    2 * ((k-1) W2 W3 - W2 C(E3+k-1, k-2) - W3 D + C(E2+E3+k-1, k-2)).
With (k-1) W3 = (E3+1) C(E3+k-1, k-2) the three cases add up to

    all:     Z(k) = k W2 W3 + 2 E3 W2 C(E3+k-1, k-2) + 2 C(E2+E3+k-1, k-2).

L(U_6n) has height H = E2 + E3 + 1 + sum_p a_p.  With Z(0) = 0, c_j is
the j-th forward difference of Z(0), ..., Z(H) at 0: H^2 / 2 subtractions
and no binomial in the inversion.  A height above MAX_HEIGHT is refused
before any arithmetic.

The full-lattice path, build_lattice -> compute_chain_table ->
chain_counts, stays public as the cross-check: it builds every subgroup,
the strict order of the small core pairwise and the rest from product
coordinates, and each level of its table is the predecessor-sum of the
one before it.  It stops at the first all-zero level and leaves out the
trivial subgroup, so per_length[j-1] is c_j above.  So verify's
shape-vs-lattice holds the core zeta closed form and the difference
table to the level DP on the product lattice; lattice-vs-oracle holds
that lattice to the oracle's set inclusion.
Counts are plain Python ints: they outgrow 64 bits for divisor-rich n,
and nothing here ever rounds.

Doubling the total over all nodes and lengths gives the number of
equivalence classes of fuzzy subgroups (each proper chain ending at the
whole group corresponds to exactly two classes, with and without the
trivial subgroup prepended); the doubled-support variant count is one
less than twice that.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from math import prod
from operator import sub

from .group import GroupParams
from .lattice import MODES, Lattice
from .subgroups import factorize

#: The largest lattice height shape_chain_counts answers: at H = 2000
#: (n = 2^1998) count_chains took 0.27 to 0.38 s on a 2-vCPU Xeon, and
#: `count` 0.34 to 0.47 s with interpreter start; it grows about as H^2.
MAX_HEIGHT = 2000


class HeightLimitExceeded(ArithmeticError):
    """The lattice height of 2n is above MAX_HEIGHT."""


class ChainTable(namedtuple("ChainTable", (
    "lattice",
    "levels",  # levels[k][j] = number of (k+1)-node ascending chains from node j to top
))):
    __slots__ = ()


class ChainCounts(namedtuple("ChainCounts", (
    "n", "mode",
    "per_length",  # per_length[k] = number of proper chains with k+1 subgroups
))):
    __slots__ = ()

    def __new__(cls, n: int, mode: str, per_length: tuple[int, ...]) -> ChainCounts:
        if not per_length or per_length[0] != 1:
            raise ValueError("chain counts must start with the single chain (G)")
        if any(c < 0 for c in per_length) or per_length[-1] == 0:
            raise ValueError("chain counts must be nonnegative with nonzero tail")
        return tuple.__new__(cls, (n, mode, per_length))

    @classmethod
    def _make(cls, fields) -> ChainCounts:
        return cls(*fields)

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
    rows = [lat.row(i) for i in range(len(lat.nodes))]
    level = tuple(int(i == lat.top_index) for i in range(len(rows)))
    levels = []
    while any(level):
        levels.append(level)
        level = tuple(sum(map(level.__getitem__, ups)) for ups in rows)
    return ChainTable(lattice=lat, levels=tuple(levels))


def chain_counts(table: ChainTable) -> ChainCounts:
    return ChainCounts(
        n=table.lattice.params.n,
        mode=table.lattice.mode,
        per_length=tuple(sum(level) for level in table.levels),
    )


def _core_zeta(e2: int, e3: int, top: int, mode: str) -> Iterator[int]:
    """Z(1), ..., Z(top) of the core lattice of 2^e2 * 3^e3: the closed
    form of the module docstring.  Each C(x+k-1, k-1) steps to k+1 as
    C(x+k, k) = C(x+k-1, k-1) * (x+k) / k, and C(x+k-1, k-2) is
    C(x+k-1, k-1) * (k-1) / (x+1): one multiply and one exact divide."""
    w2 = w3 = w23 = 1  # C(x+k-1, k-1) at k = 1, for x = e2, e3, e2+e3
    for k in range(1, top + 1):
        if mode == "normal":
            yield w3 * (k * w2 - w2 * (k - 1) // (e2 + 1))
        else:
            yield (k * w2 * w3 + 2 * e3 * w2 * (w3 * (k - 1) // (e3 + 1))
                   + 2 * (w23 * (k - 1) // (e2 + e3 + 1)))
        w2 = w2 * (e2 + k) // k
        w3 = w3 * (e3 + k) // k
        w23 = w23 * (e2 + e3 + k) // k


def factorization_shape(two_n: int) -> tuple[int, int, tuple[int, ...]]:
    """(e2, e3, sorted a_p) of two_n = 2^e2 * 3^e3 * prod_p p^a_p, p >= 5:
    every n whose 2n has this shape has the same chain counts."""
    powers = dict(factorize(two_n))
    return powers.pop(2, 0), powers.pop(3, 0), tuple(sorted(powers.values()))


def shape_chain_counts(
    e2: int, e3: int, exponents: Sequence[int], mode: str
) -> tuple[int, ...]:
    """per_length of every n whose 2n is 2^e2 * 3^e3 times primes p >= 5
    with the exponents a_p, in any order."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if e2 < 1 or e3 < 0:
        raise ValueError(f"shape needs e2 >= 1 and e3 >= 0, got {e2} and {e3}")
    top = e2 + e3 + 1 + sum(exponents)
    if top > MAX_HEIGHT:
        raise HeightLimitExceeded(
            f"lattice height {top} is above {MAX_HEIGHT}, the largest "
            "the chain count answers"
        )
    row = [0]
    factor = 1  # prod_p C(a_p + k - 1, k - 1), each stepped as in _core_zeta
    for k, z in enumerate(_core_zeta(e2, e3, top, mode), 1):
        row.append(z * factor)
        factor = factor * prod(a + k for a in exponents) // k ** len(exponents)
    counts = []
    for _ in range(top):
        row = list(map(sub, row[1:], row[:-1]))
        counts.append(row[0])
    return tuple(counts)


def count_chains(params: GroupParams, mode: str) -> ChainCounts:
    """Chain counts of the `mode` ("all" or "normal") lattice of U_6n.

    Counts from the factorization shape of 2n, as the module docstring
    derives; the result equals chain_counts(compute_chain_table(
    build_lattice(params, mode))).
    """
    per_length = shape_chain_counts(*factorization_shape(params.two_n), mode)
    return ChainCounts(n=params.n, mode=mode, per_length=per_length)
