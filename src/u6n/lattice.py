"""Strict containment order on the nontrivial subgroups of U_6n.

Write 2n = c * m with core c = 2^e2 * 3^e3 and gcd(m, 6) = 1 (core_of).
As the chains.py docstring derives, U_6n = U_(c/2) x C_m with coprime
factor orders, so every subgroup, and every normal subgroup, is a pair
(x, u): a subgroup x of the core group U_(c/2) times the subgroup of
index u in C_m, for a divisor u of m.  Containment is the product order,

    (x, u) <= (y, v)   iff   x <= y in the core and v | u.

A descriptor (kind, t, s) has u = t / gcd(t, c) and core node
(kind, gcd(t, c), s'), where s' = s for odd t and s' = s * u mod 3 for
even t.  The relabel is needed because for even t the p-th power of
a^t b^s is a^(pt) b^(ps): T(p*t, s*p mod 3) lies in T(t, s), and a prime
p = 2 mod 3 swaps s.  As u is prime to 3, u * u = 1 mod 3 and the relabel
is its own inverse.

build_lattice applies the containment rule subgroup_leq pairwise
(_strict_order_edges) on the small core only, including the core's
trivial subgroup C(c), which is a proper subgroup of U_6n once m > 1.
Lattice.row(i) makes node i's strict successors from the coordinates; it
is the only form of the strict order that u6n reads, so the whole relation
is never kept.  The primes of m are the u with just two divisors among the
u, so 2n is factorized once, for the catalog.  m = 1 is the empty product:
every u is 1.

U_6n is supersolvable: the normal series 1 < <b> < ... < F(t) < F(t/p)
< ... < F(1) has factors of prime order.  So every maximal subgroup of a
subgroup has prime index (Huppert 1954), and in the normal lattice every
cover is a chief factor, of prime order.  With Lagrange's theorem for the
converse, a strict pair H < K is a cover exactly when |K|/|H| is prime,
in both modes: a prime step in one coordinate (hasse_edges).  The normal
lattice is the restriction of containment to normal subgroups, as each is
normal in every subgroup above it (verify re-checks this at small n).

The lattice command prints json.dumps(export_json(lat), indent=2).  json's
indent encoder is pure Python, so write_json produces the same bytes with
f-strings instead: the header and node records as one block, then each pair
list one sorted row per write, so no text of the whole relation is ever
held in memory.  The command makes each node's descriptor text once and
hands it to both dot_text and write_json; descriptors are plain ASCII, so
the node records need no json.dumps.  hasse_edges already lists the covers
in order, node by node, so neither export sorts them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from math import gcd

from .group import GroupParams
from .subgroups import (
    Kind,
    SubgroupDescriptor,
    core_of,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    format_descriptor,
    subgroup_leq,
)

MODES = ("all", "normal")


class Lattice(namedtuple("Lattice", (
    "params", "mode", "nodes",
    "orders",      # orders[i] = subgroup_order of nodes[i]
    "top_index",
    "coords",      # coords[i] = (x, u): core node x times the index-u subgroup of C_m
    "core_above",  # core_above[x] = the core nodes strictly containing core node x
    "column",      # column[u][x] = the nodes (x, v) for v | u, ascending in v,
                   # so the last one is node (x, u) itself
))):
    __slots__ = ()

    def row(self, i: int) -> list[int]:
        """The nodes strictly containing node (x, u) = coords[i], unsorted:
        (x, v) for v | u, v != u, and (y, v) for each core y > x and v | u.
        Each is a node: only the trivial (C(c), m) is not, and it is in no row."""
        x, u = self.coords[i]
        column = self.column[u]
        r = list(column[x][:-1])
        for y in self.core_above[x]:
            r += column[y]
        return r

    @property
    def strictly_below(self) -> tuple[frozenset[int], ...]:
        """Each row(i) as a set, made afresh on every read.  No u6n code reads
        it; it stays for perfbench's tracing._strict_pairs and make_table.py."""
        return tuple(frozenset(self.row(i)) for i in range(len(self.nodes)))


def _strict_order_edges(nodes: tuple[SubgroupDescriptor, ...]) -> list[set[int]]:
    """Successor sets of the strict containment order under subgroup_leq.

    Grouping nodes by their divisor t and testing only the pairs with
    t2 | t1 skips the quadratically many incomparable pairs.
    """
    by_t: dict[int, list[int]] = {}
    for i, d in enumerate(nodes):
        by_t.setdefault(d.t, []).append(i)
    above: list[set[int]] = [set() for _ in nodes]
    for t1, group1 in by_t.items():
        for t2, group2 in by_t.items():
            if t1 % t2 != 0:
                continue
            for i in group1:
                d1, ups = nodes[i], above[i]
                for j in group2:
                    if i != j and subgroup_leq(d1, nodes[j]):
                        ups.add(j)
    return above


def _product_coords(
    nodes: tuple[SubgroupDescriptor, ...], core_two_n: int
) -> tuple[tuple[SubgroupDescriptor, ...], list[tuple[int, int]]]:
    """The core nodes and each node's product coordinates (core index, u).

    The core nodes are the nodes with t | c, in node order; for m > 1 they
    include the core's trivial subgroup C(c).
    """
    core = tuple(d for d in nodes if core_two_n % d.t == 0)
    # keyed on (t, s, is Full), which tells the kinds apart without hashing
    # a Kind: Enum.__hash__ is Python code, and this runs once per node
    full = Kind.FULL
    core_index = {(d.t, d.s, d.kind is full): x for x, d in enumerate(core)}
    coords = []
    for d in nodes:
        g = gcd(d.t, core_two_n)
        u = d.t // g
        s = d.s if d.s is None or d.t % 2 else d.s * u % 3
        coords.append((core_index[g, s, d.kind is full], u))
    return core, coords


def build_lattice(params: GroupParams, mode: str) -> Lattice:
    """Lattice of all (or all normal) subgroups, trivial subgroup excluded."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "all":
        descs = enumerate_subgroups(params)
    else:
        descs = enumerate_normal_subgroups(params)
    two_n, cyclic, full = params.two_n, Kind.CYCLIC, Kind.FULL
    nodes = tuple(d for d in descs if d.t != two_n or d.kind is not cyclic)
    # the catalog is in (kind, t, s) order, so Full(1) is the first Full node
    top_index = next(i for i, d in enumerate(nodes) if d.kind is full)
    core, coords = _product_coords(nodes, core_of(two_n))
    divs = sorted({u for _, u in coords})  # every divisor of m, as F(u) is a node
    divs_of = {u: [v for v in divs if u % v == 0] for u in divs}
    grid = {u: [None] * len(core) for u in divs}  # None: the trivial (C(c), m)
    for i, (x, u) in enumerate(coords):
        grid[u][x] = i
    return Lattice(
        params=params,
        mode=mode,
        nodes=nodes,
        orders=tuple(3 * two_n // d.t if d.kind is full else two_n // d.t
                     for d in nodes),
        top_index=top_index,
        coords=tuple(coords),
        core_above=tuple(map(tuple, _strict_order_edges(core))),
        column={u: list(zip(*map(grid.__getitem__, vs))) for u, vs in divs_of.items()},
    )


def height(lat: Lattice) -> int:
    """Number of nodes on the longest chain ending at the top."""
    rows = [lat.row(i) for i in range(len(lat.nodes))]
    up: dict[int, int] = {}  # nodes on the longest chain from node i up to the top
    # fewer successors = higher in the order, so successors resolve first
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        up[i] = 1 + max((up[j] for j in rows[i]), default=0)
    return max(up.values())


def hasse_edges(lat: Lattice) -> list[tuple[int, int]]:
    """Covers (i, j): node j contains node i with nothing strictly between,
    each once, in sorted order; made node by node, so only each node's few
    covers are sorted.

    The strict pairs of prime index, in both modes (module docstring).  In
    product coordinates a pair of prime index is a step in one coordinate:
    (x, u) below (x, u/p) for each prime p | u, and (x, u) below (y, u) for
    each core pair x < y whose orders differ by a factor 2 or 3.
    """
    column, orders = lat.column, lat.orders
    core_order = [orders[col[-1]] for col in column[1]]
    core_covers = [[y for y in ups if core_order[y] // core_order[x] in (2, 3)]
                   for x, ups in enumerate(lat.core_above)]
    primes = [u for u, cols in column.items() if len(cols[0]) == 2]  # the primes of m
    down = {u: [u // p for p in primes if u % p == 0] for u in column}
    covers = []
    for i, (x, u) in enumerate(lat.coords):
        col = column[u]
        ups = [column[v][x][-1] for v in down[u]]
        ups += [col[y][-1] for y in core_covers[x]]
        ups.sort()
        covers += [(i, j) for j in ups]
    return covers


def dot_text(lat: Lattice, covers: list[tuple[int, int]], texts: list[str]) -> str:
    """export_dot(lat), given hasse_edges(lat) and the format_descriptor
    text of each node."""
    lines = [f"digraph u6n_lattice_{lat.mode} {{", "  rankdir=BT;"]
    lines += [f'  n{i} [label="{text} (order {o})"];'
              for i, (text, o) in enumerate(zip(texts, lat.orders))]
    lines += [f"  n{i} -> n{j};" for i, j in covers]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(lat: Lattice) -> str:
    """DOT digraph, edges oriented subgroup -> supergroup, deterministic."""
    return dot_text(lat, hasse_edges(lat), list(map(format_descriptor, lat.nodes)))


def export_json(lat: Lattice) -> dict:
    """JSON-ready dict with nodes, the full strict relation and the covers."""
    return {
        "n": lat.params.n,
        "mode": lat.mode,
        "nodes": [
            {"id": i, "desc": format_descriptor(d), "order": o}
            for i, (d, o) in enumerate(zip(lat.nodes, lat.orders))
        ],
        "edges_strict": [[i, j] for i in range(len(lat.nodes))
                         for j in sorted(lat.row(i))],
        "edges_hasse": [list(e) for e in hasse_edges(lat)],
    }


def _write_pairs(rows: Iterable[Iterable[int]], names: list[str],
                 write: Callable[[str], object], close: str) -> None:
    """Write the indent=2 JSON of the pairs [i, j], j in rows[i], rows
    sorted, one row per call, each with the separator before it; then close."""
    sep = "[\n"
    for i, js in enumerate(rows):
        if js:
            pre = f"    [\n      {i},\n      "
            body = f"\n    ],\n{pre}".join(map(names.__getitem__, js))
            write(f"{sep}{pre}{body}\n    ]")
            sep = ",\n"
    write(("[]" if sep == "[\n" else "\n  ]") + close)


def write_json(lat: Lattice, covers: list[tuple[int, int]], texts: list[str],
               write: Callable[[str], object]) -> None:
    """Write json.dumps(export_json(lat), indent=2) + "\n" through write,
    given hasse_edges(lat) and the node texts as for dot_text: the header
    and node records in one call, then one call per nonempty row of each pair list.  The
    mode and the texts are plain ASCII, so they are written unescaped."""
    nodes = ",\n".join(
        f'    {{\n      "id": {i},\n      "desc": "{text}",\n      "order": {o}\n    }}'
        for i, (text, o) in enumerate(zip(texts, lat.orders))
    )
    write(f'{{\n  "n": {lat.params.n},\n  "mode": "{lat.mode}",\n'
          f'  "nodes": [\n{nodes}\n  ],\n  "edges_strict": ')
    names = [str(j) for j in range(len(lat.nodes))]
    rows = (sorted(lat.row(i)) for i in range(len(lat.nodes)))
    _write_pairs(rows, names, write, ',\n  "edges_hasse": ')
    cover_rows: list[list[int]] = [[] for _ in lat.nodes]
    for i, j in covers:
        cover_rows[i].append(j)
    _write_pairs(cover_rows, names, write, "\n}\n")
