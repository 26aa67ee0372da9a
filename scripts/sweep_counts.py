"""Sweep fuzzy-subgroup counts over a range of n and print a table.

Usage:
    python3 scripts/sweep_counts.py --n-max 24
    python3 scripts/sweep_counts.py --n-max 60 --markdown
"""

import argparse

from u6n import GroupParams, count_chains, enumerate_subgroups
from u6n.cli import _POSITIVE
from u6n.group import MODES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=_POSITIVE, default=24)
    parser.add_argument("--markdown", action="store_true",
                        help="emit a Markdown table instead of plain columns")
    args = parser.parse_args()

    header = ("n", "order", "subgroups", "normal", "N_F", "N_NF")
    rows = []
    for n in range(1, args.n_max + 1):
        params = GroupParams(n)
        subgroups, normal = [len(enumerate_subgroups(params, m)) for m in MODES]
        nf, nnf = [count_chains(params, m).fuzzy_count for m in MODES]
        rows.append((n, params.order, subgroups, normal, nf, nnf))

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
