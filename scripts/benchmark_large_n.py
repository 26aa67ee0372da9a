"""Time the lattice build and chain DP at divisor-rich n.

The defaults walk up the highly-composite ladder; 360360 gives 2n with
240 divisors and a lattice of 831 nodes.

Usage:
    python3 scripts/benchmark_large_n.py
    python3 scripts/benchmark_large_n.py --n 720720 2162160
"""

import argparse
import time

from u6n import GroupParams, build_lattice, chain_counts, compute_chain_table


def bench(n: int) -> None:
    params = GroupParams(n)
    for mode in ("all", "normal"):
        start = time.perf_counter()
        lat = build_lattice(params, mode)
        built = time.perf_counter()
        counts = chain_counts(compute_chain_table(lat))
        done = time.perf_counter()
        print(
            f"n={n} mode={mode}: {len(lat.nodes)} nodes, "
            f"build {built - start:.3f}s, dp {done - built:.3f}s, "
            f"count has {len(str(counts.fuzzy_count))} digits"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+",
                        default=[5040, 55440, 360360])
    args = parser.parse_args()
    for n in args.n:
        bench(n)


if __name__ == "__main__":
    main()
