"""Command-line interface: enumeration, counting, export, verification.

Exit codes: 0 success, 1 invalid input or usage, 2 verification failure.
Every integer on the command line is read and bounded by the argparse types
below (`_integer`): ASCII digits 0-9 only, no sign, space or underscore.
All outputs are deterministic for a given invocation; counts appear as
decimal strings in JSON and CSV so arbitrarily large values survive
consumers limited to 64-bit integers.  CSV is written as csv.writer would:
fields joined by commas, a field quoted only when it holds a comma (only
T(t,s) does; none holds a quote or a line break).
"""

from __future__ import annotations

import argparse
import os
import sys

from .chains import HeightLimitExceeded, count_chains, factorization_shape
from .group import DEFAULT_FUZZY_N_MAX, DEFAULT_ORACLE_LIMIT, MODES, GroupParams
from .lattice import build_lattice, dot_text, hasse_edges, write_json
from .subgroups import (
    FactorizationBudgetExceeded,
    enumerate_subgroups,
    subgroup_order,
)


class CliError(Exception):
    """Invalid input or usage; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise CliError(f"{self.prog}: error: {message}")


def _integer(least: int, most: int | None = None):
    """argparse type: ASCII decimal digits, at least `least` and at most
    `most` if given."""

    def read(text: str) -> int:
        if not (text.isascii() and text.isdigit()):
            raise argparse.ArgumentTypeError(
                f"invalid integer {text!r}: use digits 0-9 only")
        try:
            value = int(text)
        except ValueError:  # longer than int() reads from a string
            raise argparse.ArgumentTypeError(
                f"{len(text)} digits is above Python's int() limit") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value

    return read


#: The largest --oracle-limit: at group order 6000 (n = 1000) the oracle's
#: table, subgroup family and normal family peak at 320 MB and take 7 s
MAX_ORACLE_LIMIT = 6000

# built once, not per build_parser call: the parser is most of a count query
_NATURAL, _POSITIVE = _integer(0), _integer(1)
_ORACLE_LIMIT = _integer(0, MAX_ORACLE_LIMIT)


def _group_n(text: str) -> int:
    """argparse type of --n: _POSITIVE, with 2n no longer than the digits
    str() prints (sys.get_int_max_str_digits(), 0 for no limit), since the
    listings print C(2n).  Refused before 2n is factorized."""
    n = _POSITIVE(text)
    limit = sys.get_int_max_str_digits()
    if limit and len(text) >= limit and 2 * n >= 10**limit:
        raise argparse.ArgumentTypeError(
            f"2n has more than {limit} digits, Python's limit for printing an int")
    return n


def _n_range(text: str) -> tuple[int, int]:
    """argparse type of --range: N or A..B, each end read by _POSITIVE."""
    a, dots, b = text.partition("..")
    lo = _POSITIVE(a)
    hi = _POSITIVE(b) if dots else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"invalid range {text!r}: need A <= B")
    return lo, hi


# json is imported on use, not with the module: most queries print none.
def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="u6n",
        description="Subgroup lattices and fuzzy-subgroup counts for U_6n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, handler, mode: bool = True, fmt: bool = True) -> None:
        p.set_defaults(handler=handler)
        p.add_argument("--n", type=_group_n, required=True,
                       help="group parameter n >= 1")
        if mode:
            p.add_argument("--mode", choices=MODES, default="all")
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
    p.add_argument("--n-max", type=_POSITIVE, required=True)
    p.add_argument("--fuzzy-n-max", type=_NATURAL, default=DEFAULT_FUZZY_N_MAX,
                   help="largest n for the fuzzy-map end-to-end checks")
    p.add_argument("--oracle-limit", type=_ORACLE_LIMIT, default=DEFAULT_ORACLE_LIMIT,
                   help="largest group order the brute-force oracle will accept, "
                        f"at most {MAX_ORACLE_LIMIT}")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   dest="fmt")

    p = sub.add_parser("batch", help="CSV sweep over a range of n")
    p.set_defaults(handler=_cmd_batch)
    p.add_argument("--range", type=_n_range, required=True, dest="n_range",
                   help="inclusive range A..B (or a single N)")
    p.add_argument("--mode", choices=MODES, default="all")
    return parser


def _cmd_listing(args: argparse.Namespace) -> int:
    params = GroupParams(args.n)
    mode = "normal" if args.command == "normal" else "all"
    rows = [(str(d), subgroup_order(params, d))
            for d in enumerate_subgroups(params, mode)]
    if args.fmt == "json":
        payload = {
            "n": params.n,
            "mode": mode,
            "subgroups": [{"desc": d, "order": o} for d, o in rows],
        }
        _print_json(payload)
    elif args.fmt == "csv":
        sys.stdout.write("desc,order\n" + "".join(
            f'"{d}",{o}\n' if "," in d else f"{d},{o}\n" for d, o in rows))
    else:
        width = max(len(d) for d, _ in rows)
        for d, o in rows:
            print(f"{d:<{width}}  {o}")
        print(f"{len(rows)} subgroups")
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    counts = count_chains(GroupParams(args.n), args.mode)
    if args.fmt == "json":
        _print_json(counts.to_json_dict())
    elif args.fmt == "csv":
        sys.stdout.write("length,count\n" + "".join(
            f"{k},{c}\n" for k, c in enumerate(counts.per_length, 1)))
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
    counts = count_chains(GroupParams(args.n), args.mode)
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
        sys.stdout.write("n,mode,relation,count\n"
                         f"{args.n},{args.mode},{args.relation},{value}\n")
    else:
        print(value)
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    lat = build_lattice(GroupParams(args.n), args.mode)
    covers, texts = hasse_edges(lat), list(map(str, lat.nodes))
    if args.dot_path is not None:
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
    lo, hi = args.n_range
    write = sys.stdout.write
    write("n,mode,per_length,total,fuzzy_count,mm_count\n")
    # rows of the same factorization shape share all text after n
    tails: dict[tuple[int, int, tuple[int, ...]], str] = {}
    for n in range(lo, hi + 1):
        shape = factorization_shape(2 * n)
        tail = tails.get(shape)
        if tail is None:
            c = count_chains(GroupParams(n), args.mode)
            tail = tails[shape] = (
                f",{c.mode},{';'.join(map(str, c.per_length))},"
                f"{c.total},{c.fuzzy_count},{c.mm_count}\n"
            )
        write(f"{n}{tail}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return status
    except SystemExit as exc:  # only argparse raises it, after -h/--help
        return exc.code
    except BrokenPipeError:  # reader gone: devnull takes the shutdown flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (FactorizationBudgetExceeded, HeightLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
