"""Regenerate the frozen reference table, frozen_table.json.

The table holds, for every factorization shape the workloads can draw, the
per-length chain counts and the lattice sizes (nodes, strict pairs, Hasse
covers) in both modes, computed with the program at the commit that defined
the benchmark.  Each entry is cross-checked before it is written:

- the node count against the closed form in numtheory.node_count;
- the level DP against depth-first enumeration (oracle_count_chains) wherever
  the chain total is small;
- the whole count against the brute-force oracle at the shape's smallest n,
  wherever that group is within the oracle's default size limit;
- every export shape at a second n of the same shape.

It also records the labels of the verify battery at the n-max values the
verify workload uses, and the factorization-cost targets that stratify
random_n (see workloads.cost_targets).  The table is frozen: regenerate it only when the
workloads change, from a commit whose counts are trusted.

Usage (from the repository root):
    PYTHONPATH=src python3 perfbench/make_table.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from numtheory import node_count, shape_key, shape_of, smallest_n  # noqa: E402
from workloads import (  # noqa: E402
    RICH_ANCHORS,
    RICH_COUNT_DIVISORS,
    RICH_EXPORT_DIVISORS,
    VERIFY_N_MAX,
    cost_targets,
    random_shapes,
    realize,
    rich_shapes,
)

from u6n.chains import chain_counts, compute_chain_table  # noqa: E402
from u6n.group import DEFAULT_ORACLE_LIMIT, GroupParams  # noqa: E402
from u6n.lattice import build_lattice, hasse_edges  # noqa: E402
from u6n.oracle import oracle_count_chains, oracle_count_set_chains  # noqa: E402
from u6n.verify import run_verification  # noqa: E402

TABLE_PATH = HERE / "frozen_table.json"
DFS_MAX_TOTAL = 200_000
COST_SAMPLE = 200_000


def lattice_entry(n: int, mode: str, covers: bool) -> dict:
    lat = build_lattice(GroupParams(n), mode)
    per_length = list(chain_counts(compute_chain_table(lat)).per_length)
    if sum(per_length) <= DFS_MAX_TOTAL and oracle_count_chains(lat) != per_length:
        raise AssertionError(f"n={n} {mode}: DP differs from DFS")
    return {
        "per_length": ",".join(map(str, per_length)),
        "nodes": len(lat.nodes),
        "strict_pairs": sum(map(len, lat.strictly_below)),
        "covers": len(hasse_edges(lat)) if covers else None,
    }


def shape_entry(shape: tuple, covers: bool, rng: random.Random) -> dict:
    n0 = smallest_n(shape)
    entry = {}
    for mode in ("all", "normal"):
        e = lattice_entry(n0, mode, covers)
        if e["nodes"] != node_count(shape, mode):
            raise AssertionError(f"{shape} {mode}: node count off the closed form")
        if 6 * n0 <= DEFAULT_ORACLE_LIMIT:
            oracle = oracle_count_set_chains(
                GroupParams(n0), normal_only=mode == "normal", include_trivial=False
            )
            if ",".join(map(str, oracle)) != e["per_length"]:
                raise AssertionError(f"n={n0} {mode}: DP differs from the oracle")
        if covers and lattice_entry(realize(rng, shape), mode, covers) != e:
            raise AssertionError(f"{shape} {mode}: differs at a second n")
        entry[mode] = e
    return entry


def main() -> None:
    rng = random.Random(0)
    export = set(rich_shapes(*RICH_EXPORT_DIVISORS))
    shapes = sorted(set(random_shapes()) | set(rich_shapes(*RICH_COUNT_DIVISORS)) | export
                    | {shape_of(n) for n in RICH_ANCHORS})
    table = {}
    for i, shape in enumerate(shapes):
        table[shape_key(shape)] = shape_entry(shape, shape in export, rng)
        if i % 100 == 0:
            print(f"{i}/{len(shapes)} shapes", file=sys.stderr, flush=True)
    verify = {}
    for n_max in VERIFY_N_MAX:
        results = run_verification(n_max)
        if not all(r.passed for r in results):
            raise AssertionError(f"verify --n-max {n_max} fails")
        verify[str(n_max)] = [f"n={r.n} {r.check}" for r in results]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=HERE).stdout.strip()
    payload = {"generated_at": commit, "shapes": table, "verify": verify,
               "random_n_cost_targets": cost_targets(COST_SAMPLE)}
    TABLE_PATH.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
