"""Strict containment order on the nontrivial subgroups of U_6n.

The lattice stores the full strict relation (every pair H < K), not just
the Hasse covers, because the chain-counting recurrence sums over all
strict successors.  For the normal-mode lattice the relation is simply
the restriction of containment to normal subgroups: every listed normal
subgroup is normal in the whole group, hence in any subgroup above it
(the verification suite re-checks this pairwise at small n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import GroupParams
from .subgroups import (
    Kind,
    SubgroupDescriptor,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    format_descriptor,
    subgroup_order,
)

MODES = ("all", "normal")


@dataclass(frozen=True)
class Lattice:
    params: GroupParams
    mode: str
    nodes: tuple[SubgroupDescriptor, ...]
    top_index: int
    #: strictly_below[i] = indices of the nodes strictly containing node i
    strictly_below: tuple[frozenset[int], ...]


def _strict_order_edges(nodes: tuple[SubgroupDescriptor, ...]) -> list[set[int]]:
    """Successor sets of the strict containment order.

    Grouping nodes by their divisor t and walking only the pairs with
    t2 | t1 evaluates the same generator-membership rule as subgroup_leq
    while skipping the quadratically many incomparable pairs; the test
    suite checks the result against the naive all-pairs loop.
    """
    by_t: dict[int, list[tuple[int, Kind, int]]] = {}
    for i, d in enumerate(nodes):
        by_t.setdefault(d.t, []).append((i, d.kind, d.s or 0))
    above: list[set[int]] = [set() for _ in nodes]
    for t1, group1 in by_t.items():
        for t2, group2 in by_t.items():
            if t1 % t2 != 0:
                continue
            k = t1 // t2
            t2_odd = t2 % 2 == 1
            km = k % 2 if t2_odd else k % 3
            for i, kind1, s1 in group1:
                for j, kind2, s2 in group2:
                    if i == j:
                        continue
                    if kind2 is Kind.FULL:
                        ok = True
                    elif kind1 is Kind.FULL:
                        ok = False  # b never lies in <a^t> or <a^t b^s>
                    elif kind1 is Kind.CYCLIC:
                        # a^t1 has trivial b-part
                        ok = (s2 * km) % 3 == 0 if kind2 is Kind.TWISTED else True
                    elif kind2 is Kind.CYCLIC:
                        ok = False  # twisted generator carries b^s1 != e
                    else:
                        ok = (s2 * km) % 3 == s1
                    if ok:
                        above[i].add(j)
    return above


def build_lattice(params: GroupParams, mode: str) -> Lattice:
    """Lattice of all (or all normal) subgroups, trivial subgroup excluded."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "all":
        descs = enumerate_subgroups(params)
    else:
        descs = enumerate_normal_subgroups(params)
    trivial = (Kind.CYCLIC, params.two_n)
    nodes = tuple(d for d in descs if (d.kind, d.t) != trivial)
    assert all(subgroup_order(params, d) > 1 for d in nodes)
    top_index = nodes.index(SubgroupDescriptor(Kind.FULL, 1))
    above = _strict_order_edges(nodes)
    return Lattice(
        params=params,
        mode=mode,
        nodes=nodes,
        top_index=top_index,
        strictly_below=tuple(frozenset(s) for s in above),
    )


def height(lat: Lattice) -> int:
    """Number of nodes on the longest chain ending at the top."""
    longest: dict[int, int] = {}
    preds: list[list[int]] = [[] for _ in lat.nodes]
    for i, ups in enumerate(lat.strictly_below):
        for j in ups:
            preds[j].append(i)

    order = sorted(range(len(lat.nodes)), key=lambda i: len(lat.strictly_below[i]),
                   reverse=True)
    # more successors = lower in the order, so predecessors resolve first
    for j in order:
        longest[j] = 1 + max((longest[i] for i in preds[j]), default=0)
    return longest[lat.top_index]


def hasse_edges(lat: Lattice) -> set[tuple[int, int]]:
    """Transitive reduction: (i, j) kept iff nothing sits strictly between."""
    edges = set()
    below = lat.strictly_below
    for i, ups in enumerate(below):
        for j in ups:
            if not any(j in below[k] for k in ups):
                edges.add((i, j))
    return edges


def export_dot(lat: Lattice) -> str:
    """DOT digraph, edges oriented subgroup -> supergroup, deterministic."""
    lines = [f"digraph u6n_lattice_{lat.mode} {{", "  rankdir=BT;"]
    for i, d in enumerate(lat.nodes):
        label = f"{format_descriptor(d)} (order {subgroup_order(lat.params, d)})"
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in sorted(hasse_edges(lat)):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(lat: Lattice) -> dict:
    """JSON-ready dict with nodes, the full strict relation and the covers."""
    strict = sorted((i, j) for i, ups in enumerate(lat.strictly_below) for j in ups)
    return {
        "n": lat.params.n,
        "mode": lat.mode,
        "nodes": [
            {
                "id": i,
                "desc": format_descriptor(d),
                "order": subgroup_order(lat.params, d),
            }
            for i, d in enumerate(lat.nodes)
        ],
        "edges_strict": [list(e) for e in strict],
        "edges_hasse": [list(e) for e in sorted(hasse_edges(lat))],
    }
