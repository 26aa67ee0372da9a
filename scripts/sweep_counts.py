"""Sweep fuzzy-subgroup counts over a range of n and print a table.

Usage:
    python3 scripts/sweep_counts.py --n-max 24
    python3 scripts/sweep_counts.py --n-max 60 --markdown
"""

import argparse

from u6n import GroupParams, build_lattice, count_chains


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=24)
    parser.add_argument("--markdown", action="store_true",
                        help="emit a Markdown table instead of plain columns")
    args = parser.parse_args()

    header = ("n", "order", "subgroups", "normal", "N_F", "N_NF")
    rows = []
    for n in range(1, args.n_max + 1):
        params = GroupParams(n)
        nodes_all = len(build_lattice(params, "all").nodes)
        nodes_normal = len(build_lattice(params, "normal").nodes)
        nf = count_chains(params, "all").fuzzy_count
        nnf = count_chains(params, "normal").fuzzy_count
        rows.append((n, params.order, nodes_all + 1, nodes_normal + 1, nf, nnf))

    widths = [
        max(len(str(header[i])), max(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    if args.markdown:
        print("| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |")
        print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for r in rows:
            print(
                "| "
                + " | ".join(str(v).rjust(w) for v, w in zip(r, widths))
                + " |"
            )
    else:
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))


if __name__ == "__main__":
    main()
