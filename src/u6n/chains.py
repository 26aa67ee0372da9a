"""Counting ascending subgroup chains by dynamic programming.

Level k of the table holds, for every lattice node H, the number of
strictly ascending chains of k+1 subgroups from H up to the whole group.
Each level is the predecessor-sum of the one before it, and the table
stops at the first all-zero level, so its length never exceeds the
lattice height.  Counts are plain Python ints: they outgrow 64 bits for
divisor-rich n, and nothing here ever rounds.

Doubling the total over all nodes and lengths gives the number of
equivalence classes of fuzzy subgroups (each proper chain ending at the
whole group corresponds to exactly two classes, with and without the
trivial subgroup prepended); the doubled-support variant count is one
less than twice that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import GroupParams
from .lattice import Lattice, build_lattice


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
    """Chain counts of the `mode` ("all" or "normal") lattice of U_6n."""
    return chain_counts(compute_chain_table(build_lattice(params, mode)))
