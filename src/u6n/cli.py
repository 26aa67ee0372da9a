"""Command-line interface: enumeration, counting, export, verification.

Exit codes: 0 success, 1 invalid input or usage, 2 verification failure.
All outputs are deterministic for a given invocation; counts appear as
decimal strings in JSON and CSV so arbitrarily large values survive
consumers limited to 64-bit integers.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .chains import (
    ChainCounts,
    HeightLimitExceeded,
    count_chains,
    factorization_shape,
    shape_chain_counts,
)
from .group import DEFAULT_ORACLE_LIMIT, GroupParams, OracleLimitExceeded
from .lattice import build_lattice, dot_text, hasse_edges, write_json
from .subgroups import (
    FactorizationBudgetExceeded,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    format_descriptor,
    subgroup_order,
)

_RANGE_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


class CliError(Exception):
    """Invalid input or usage; mapped to exit code 1."""


class _ParserExit(Exception):
    """Raised where argparse would call sys.exit, after -h/--help; main
    returns the status, args[0]."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise CliError(f"{self.prog}: error: {message}")

    def exit(self, status: int = 0, message: str | None = None) -> None:
        if message:
            self._print_message(message, sys.stderr)
        raise _ParserExit(status)  # return from main, not sys.exit


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if not m:
        raise CliError(f"invalid range {text!r}: expected N or A..B")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if lo < 1 or hi < lo:
        raise CliError(f"invalid range {text!r}: need 1 <= A <= B")
    return lo, hi


# json and csv are imported where they are used, not with the module: most
# queries print neither.
def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _csv_writer():
    import csv

    return csv.writer(sys.stdout, lineterminator="\n")


def _params(n: int) -> GroupParams:
    if n < 1:
        raise CliError(f"n must be at least 1, got {n}")
    return GroupParams(n)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="u6n",
        description="Subgroup lattices and fuzzy-subgroup counts for U_6n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, handler, mode: bool = True, fmt: bool = True) -> None:
        p.set_defaults(handler=handler)
        p.add_argument("--n", type=int, required=True, help="group parameter n >= 1")
        if mode:
            p.add_argument("--mode", choices=("all", "normal"), default="all")
        if fmt:
            p.add_argument("--format", choices=("table", "json", "csv"),
                           default="table", dest="fmt")

    p = sub.add_parser("subgroups", help="list all subgroups with orders")
    add_common(p, _cmd_listing, mode=False)
    p = sub.add_parser("normal", help="list the normal subgroups with orders")
    add_common(p, _cmd_listing, mode=False)

    p = sub.add_parser("chains", help="per-length chain count table")
    add_common(p, _cmd_chains)

    p = sub.add_parser("count", help="fuzzy subgroup count")
    add_common(p, _cmd_count)
    p.add_argument("--relation", choices=("tarnauceanu", "murali"),
                   default="tarnauceanu",
                   help="murali reports 2*count - 1 instead")

    p = sub.add_parser("lattice", help="lattice JSON on stdout, optional DOT")
    add_common(p, _cmd_lattice, fmt=False)
    p.add_argument("--dot", dest="dot_path", help="also write DOT to this path")

    p = sub.add_parser("verify", help="run the oracle cross-check battery")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--fuzzy-n-max", type=int, default=4, dest="fuzzy_n_max",
                   help="largest n for the fuzzy-map end-to-end checks")
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT,
                   dest="oracle_limit", help="largest group order the "
                   "brute-force oracle will accept")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   dest="fmt")

    p = sub.add_parser("batch", help="CSV sweep over a range of n")
    p.set_defaults(handler=_cmd_batch)
    p.add_argument("--range", required=True, dest="n_range",
                   help="inclusive range A..B (or a single N)")
    p.add_argument("--mode", choices=("all", "normal"), default="all")
    return parser


def _cmd_listing(args: argparse.Namespace) -> int:
    params = _params(args.n)
    normal = args.command == "normal"
    descs = enumerate_normal_subgroups(params) if normal else enumerate_subgroups(params)
    rows = [(format_descriptor(d), subgroup_order(params, d)) for d in descs]
    if args.fmt == "json":
        payload = {
            "n": params.n,
            "mode": "normal" if normal else "all",
            "subgroups": [{"desc": d, "order": o} for d, o in rows],
        }
        _print_json(payload)
    elif args.fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["desc", "order"])
        writer.writerows(rows)
    else:
        width = max(len(d) for d, _ in rows)
        for d, o in rows:
            print(f"{d:<{width}}  {o}")
        print(f"{len(rows)} subgroups")
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    counts = count_chains(_params(args.n), args.mode)
    if args.fmt == "json":
        _print_json(counts.to_json_dict())
    elif args.fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["length", "count"])
        for k, c in enumerate(counts.per_length):
            writer.writerow([k + 1, str(c)])
    else:
        print("length  count")
        for k, c in enumerate(counts.per_length):
            print(f"{k + 1:>6}  {c}")
        print(f"counts are 0 for every length >= {len(counts.per_length) + 1}")
        print(f"total {counts.total}")
        print(f"fuzzy_count {counts.fuzzy_count}")
        print(f"mm_count {counts.mm_count}")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    counts = count_chains(_params(args.n), args.mode)
    value = counts.mm_count if args.relation == "murali" else counts.fuzzy_count
    if args.fmt == "json":
        payload = {
            "n": args.n,
            "mode": args.mode,
            "relation": args.relation,
            "count": str(value),
        }
        _print_json(payload)
    elif args.fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["n", "mode", "relation", "count"])
        writer.writerow([args.n, args.mode, args.relation, str(value)])
    else:
        print(value)
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    lat = build_lattice(_params(args.n), args.mode)
    covers, texts = hasse_edges(lat), list(map(format_descriptor, lat.nodes))
    if args.dot_path:
        try:
            with open(args.dot_path, "w") as fh:
                fh.write(dot_text(lat, covers, texts))
        except OSError as exc:
            raise CliError(
                f"cannot write DOT file {args.dot_path}: {exc.strerror or exc}"
            ) from exc
    write_json(lat, covers, texts, sys.stdout.write)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise CliError(f"--n-max must be at least 1, got {args.n_max}")
    for flag, value in (("--fuzzy-n-max", args.fuzzy_n_max),
                        ("--oracle-limit", args.oracle_limit)):
        if value < 0:
            raise CliError(f"{flag} must be at least 0, got {value}")
    from .verify import render_report, report_json, run_verification

    results = run_verification(
        args.n_max, fuzzy_n_max=args.fuzzy_n_max, oracle_limit=args.oracle_limit
    )
    if args.fmt == "json":
        _print_json(report_json(results))
    else:
        print(render_report(results))
    return 0 if all(r.passed for r in results) else 2


def _cmd_batch(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.n_range)
    writer = _csv_writer()
    writer.writerow(
        ["n", "mode", "per_length", "total", "fuzzy_count", "mm_count"]
    )
    # rows of the same factorization shape share their per_length
    by_shape: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    for n in range(lo, hi + 1):
        shape = factorization_shape(2 * n)
        if shape not in by_shape:
            by_shape[shape] = shape_chain_counts(*shape, args.mode)
        counts = ChainCounts(n=n, mode=args.mode, per_length=by_shape[shape])
        writer.writerow(
            [
                n,
                args.mode,
                ";".join(str(c) for c in counts.per_length),
                str(counts.total),
                str(counts.fuzzy_count),
                str(counts.mm_count),
            ]
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return status
    except BrokenPipeError:  # reader gone: devnull takes the shutdown flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _ParserExit as exc:
        return exc.args[0]
    except CliError as exc:
        print(exc, file=sys.stderr)
        return 1
    except OracleLimitExceeded as exc:
        print(
            f"error: {exc}\n"
            "hint: raise --oracle-limit or pick a smaller n",
            file=sys.stderr,
        )
        return 1
    except (FactorizationBudgetExceeded, HeightLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
