"""Time factorize and count_chains against the full-lattice build and chain
DP, and check that the two paths agree; also time hasse_edges, which steps
one product coordinate at a time (see the u6n.lattice docstring), and print
the cover count, and time the JSON export (the node texts and write_json,
as `u6n lattice` writes it) into a sink that only counts its bytes and the
DOT text (dot_text, as `u6n lattice --dot` writes it, from the same covers
and node texts), so every stage of `lattice --dot` is timed.  The
process's peak RSS (ru_maxrss) is printed after the DP: the peak so far in
the whole run, so a later n never reads below an earlier one.

count_chains counts from the factorization shape of 2n, with the closed-form
zeta polynomial of its 2^e2 * 3^e3 core; the lattice path builds every
nontrivial subgroup and runs the level DP over the strict order.  The
default ladder walks up the highly-composite numbers (360360 gives 2n with
240 divisors and a lattice of 831 nodes), then takes the prime 2^61 - 1
and 9999991 * 9999973, whose 2n has two prime factors near 1e7: there the
lattices are tiny and factorizing 2n is the whole cost.  It ends with the
core-heavy n = 2^15 * 3^10, whose 2n = 2^16 * 3^10 has no prime factor
above 3, so the whole lattice is the core.  Exits 1 if the two paths give
different counts.

Usage:
    python3 scripts/benchmark_large_n.py
    python3 scripts/benchmark_large_n.py --n 720720 2162160
"""

import argparse
import resource
import sys
import time

from u6n import (
    GroupParams,
    build_lattice,
    chain_counts,
    compute_chain_table,
    count_chains,
    factorize,
    format_descriptor,
    hasse_edges,
)
from u6n.cli import _POSITIVE
from u6n.lattice import dot_text, write_json

LADDER = [5040, 55440, 360360, 2**61 - 1, 9999991 * 9999973, 2**15 * 3**10]


def bench(n: int) -> bool:
    """Print the timings for both modes; False if the paths disagree."""
    params = GroupParams(n)
    start = time.perf_counter()
    factorize(params.two_n)
    factorize_s = time.perf_counter() - start
    agree = True
    for mode in ("all", "normal"):
        start = time.perf_counter()
        shape = count_chains(params, mode)
        counted = time.perf_counter()
        lat = build_lattice(params, mode)
        built = time.perf_counter()
        covers = hasse_edges(lat)
        reduced = time.perf_counter()
        sizes = []  # the JSON is ASCII: one byte per character
        texts = list(map(format_descriptor, lat.nodes))
        write_json(lat, covers, texts, lambda chunk: sizes.append(len(chunk)))
        exported = time.perf_counter()
        dot_bytes = len(dot_text(lat, covers, texts))
        dotted = time.perf_counter()
        counts = chain_counts(compute_chain_table(lat))
        done = time.perf_counter()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        same = shape == counts
        agree = agree and same
        print(
            f"n={n} mode={mode}: factorize {factorize_s:.4f}s, "
            f"count_chains {counted - start:.4f}s; "
            f"{len(lat.nodes)} nodes, build {built - counted:.3f}s, "
            f"hasse_edges {reduced - built:.3f}s ({len(covers)} covers), "
            f"export {exported - reduced:.3f}s ({sum(sizes)} bytes), "
            f"dot {dotted - exported:.3f}s ({dot_bytes} bytes), "
            f"dp {done - dotted:.3f}s, peak RSS {peak_mb:.1f} MB; "
            f"count has {len(str(counts.fuzzy_count))} digits, "
            f"{'paths agree' if same else 'PATHS DIFFER'}"
        )
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=_POSITIVE, nargs="+", default=LADDER)
    args = parser.parse_args()
    agree = True
    for n in args.n:
        agree = bench(n) and agree
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
