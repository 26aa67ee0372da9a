"""Command-line interface: enumeration, counting, export, verification.

Exit codes: 0 success, 1 invalid input or usage, 2 verification failure.
All outputs are deterministic for a given invocation; counts appear as
decimal strings in JSON and CSV so arbitrarily large values survive
consumers limited to 64-bit integers.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .chains import count_chains
from .group import DEFAULT_ORACLE_LIMIT, GroupParams, OracleLimitExceeded
from .lattice import build_lattice, export_dot, export_json
from .subgroups import (
    enumerate_normal_subgroups,
    enumerate_subgroups,
    format_descriptor,
    subgroup_order,
)

_RANGE_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


class CliError(Exception):
    """Invalid input or usage; mapped to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int | None = None
    n_range: tuple[int, int] | None = None
    mode: str = "all"
    relation: str = "tarnauceanu"
    fmt: str = "table"
    dot_path: str | None = None
    oracle_limit: int = DEFAULT_ORACLE_LIMIT
    fuzzy_n_max: int = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise CliError(f"{self.prog}: error: {message}")


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if not m:
        raise CliError(f"invalid range {text!r}: expected N or A..B")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if lo < 1 or hi < lo:
        raise CliError(f"invalid range {text!r}: need 1 <= A <= B")
    return lo, hi


def _params(n: int) -> GroupParams:
    try:
        return GroupParams(n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def build_parser() -> _Parser:
    parser = _Parser(
        prog="u6n",
        description="Subgroup lattices and fuzzy-subgroup counts for U_6n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, mode: bool = True, fmt: bool = True) -> None:
        p.add_argument("--n", type=int, required=True, help="group parameter n >= 1")
        if mode:
            p.add_argument("--mode", choices=("all", "normal"), default="all")
        if fmt:
            p.add_argument("--format", choices=("table", "json", "csv"),
                           default="table", dest="fmt")

    p = sub.add_parser("subgroups", help="list all subgroups with orders")
    add_common(p, mode=False)
    p = sub.add_parser("normal", help="list the normal subgroups with orders")
    add_common(p, mode=False)

    p = sub.add_parser("chains", help="per-length chain count table")
    add_common(p)

    p = sub.add_parser("count", help="fuzzy subgroup count")
    add_common(p)
    p.add_argument("--relation", choices=("tarnauceanu", "murali"),
                   default="tarnauceanu",
                   help="murali reports 2*count - 1 instead")

    p = sub.add_parser("lattice", help="lattice JSON on stdout, optional DOT")
    add_common(p, fmt=False)
    p.add_argument("--dot", dest="dot_path", help="also write DOT to this path")

    p = sub.add_parser("verify", help="run the oracle cross-check battery")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--fuzzy-n-max", type=int, default=4, dest="fuzzy_n_max",
                   help="largest n for the fuzzy-map end-to-end checks")
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT,
                   dest="oracle_limit", help="largest group order the "
                   "brute-force oracle will accept")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   dest="fmt")

    p = sub.add_parser("batch", help="CSV sweep over a range of n")
    p.add_argument("--range", required=True, dest="n_range",
                   help="inclusive range A..B (or a single N)")
    p.add_argument("--mode", choices=("all", "normal"), default="all")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    n_range = None
    if getattr(args, "n_range", None) is not None:
        n_range = _parse_range(args.n_range)
    n = getattr(args, "n", None)
    if args.command == "verify":
        n = args.n_max
    if n is not None and n < 1:
        raise CliError(f"n must be at least 1, got {n}")
    return RunConfig(
        command=args.command,
        n=n,
        n_range=n_range,
        mode=getattr(args, "mode", "all"),
        relation=getattr(args, "relation", "tarnauceanu"),
        fmt=getattr(args, "fmt", "table"),
        dot_path=getattr(args, "dot_path", None),
        oracle_limit=getattr(args, "oracle_limit", DEFAULT_ORACLE_LIMIT),
        fuzzy_n_max=getattr(args, "fuzzy_n_max", 4),
    )


def _print_descriptor_listing(config: RunConfig, normal: bool) -> int:
    params = _params(config.n)
    descs = (
        enumerate_normal_subgroups(params)
        if normal
        else enumerate_subgroups(params)
    )
    rows = [(format_descriptor(d), subgroup_order(params, d)) for d in descs]
    mode = "normal" if normal else "all"
    if config.fmt == "json":
        payload = {
            "n": params.n,
            "mode": mode,
            "subgroups": [{"desc": d, "order": o} for d, o in rows],
        }
        print(json.dumps(payload, indent=2))
    elif config.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["desc", "order"])
        writer.writerows(rows)
    else:
        width = max(len(d) for d, _ in rows)
        for d, o in rows:
            print(f"{d:<{width}}  {o}")
        print(f"{len(rows)} subgroups")
    return 0


def _cmd_chains(config: RunConfig) -> int:
    counts = count_chains(_params(config.n), config.mode)
    if config.fmt == "json":
        print(json.dumps(counts.to_json_dict(), indent=2))
    elif config.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
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


def _cmd_count(config: RunConfig) -> int:
    counts = count_chains(_params(config.n), config.mode)
    value = counts.mm_count if config.relation == "murali" else counts.fuzzy_count
    if config.fmt == "json":
        payload = {
            "n": config.n,
            "mode": config.mode,
            "relation": config.relation,
            "count": str(value),
        }
        print(json.dumps(payload, indent=2))
    elif config.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "mode", "relation", "count"])
        writer.writerow([config.n, config.mode, config.relation, str(value)])
    else:
        print(value)
    return 0


def _cmd_lattice(config: RunConfig) -> int:
    lat = build_lattice(_params(config.n), config.mode)
    if config.dot_path:
        try:
            Path(config.dot_path).write_text(export_dot(lat))
        except OSError as exc:
            raise CliError(
                f"cannot write DOT file {config.dot_path}: {exc.strerror or exc}"
            ) from exc
    print(json.dumps(export_json(lat), indent=2))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    from .verify import render_report, report_json, run_verification

    results = run_verification(
        config.n, fuzzy_n_max=config.fuzzy_n_max, oracle_limit=config.oracle_limit
    )
    if config.fmt == "json":
        print(json.dumps(report_json(results), indent=2))
    else:
        print(render_report(results))
    return 0 if all(r.passed for r in results) else 2


def _cmd_batch(config: RunConfig) -> int:
    lo, hi = config.n_range
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["n", "mode", "per_length", "total", "fuzzy_count", "mm_count"]
    )
    for n in range(lo, hi + 1):
        counts = count_chains(_params(n), config.mode)
        writer.writerow(
            [
                n,
                config.mode,
                ";".join(str(c) for c in counts.per_length),
                str(counts.total),
                str(counts.fuzzy_count),
                str(counts.mm_count),
            ]
        )
    return 0


def run(config: RunConfig) -> int:
    if config.command == "subgroups":
        return _print_descriptor_listing(config, normal=False)
    if config.command == "normal":
        return _print_descriptor_listing(config, normal=True)
    if config.command == "chains":
        return _cmd_chains(config)
    if config.command == "count":
        return _cmd_count(config)
    if config.command == "lattice":
        return _cmd_lattice(config)
    if config.command == "verify":
        return _cmd_verify(config)
    if config.command == "batch":
        return _cmd_batch(config)
    raise CliError(f"unknown command {config.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        return run(config)
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


if __name__ == "__main__":
    sys.exit(main())
