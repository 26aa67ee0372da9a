"""References for every query, computed before timing, and the output checks.

Where a count comes from:

1. The brute-force oracle (`oracle_count_set_chains`, which never sees the
   closed-form catalog) at the smallest n with the same factorization shape
   as the query's n, whenever that group is within ORACLE_MAX_ORDER.  For
   small n this is n itself or a smaller n of equal shape; counts depend only
   on the shape, which is what `check_divisor_shape_dependence` asserts.
   Oracle answers are memoized on disk per source-tree hash, so only the
   first run in a checkout pays for them.
2. Otherwise the frozen table (frozen_table.json, see make_table.py).

Lattice exports are checked against the closed-form node count and the frozen
strict-pair and cover counts; verify reports against the frozen check labels.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from numtheory import node_count, shape_key, shape_of, smallest_n

#: The oracle's default group-order limit at the commit that defined the
#: benchmark; the oracle takes up to ~1 s per mode at this size.
ORACLE_MAX_ORDER = 300


def source_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class References:
    def __init__(self, table: dict, memo_path: Path, src: Path) -> None:
        self.shapes = table["shapes"]
        self.verify_labels = table["verify"]
        self.memo_path = memo_path
        self.src_hash = source_hash(src)
        try:
            memo = json.loads(memo_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            memo = {}
        self.memo = memo if memo.get("src") == self.src_hash else {"src": self.src_hash}
        self.from_oracle = 0
        self.from_table = 0

    def per_length(self, n: int, mode: str) -> list[int]:
        shape = shape_of(n)
        n0 = smallest_n(shape)
        if 6 * n0 <= ORACLE_MAX_ORDER:
            self.from_oracle += 1
            key = f"{n0}:{mode}"
            if key not in self.memo:
                from u6n.group import GroupParams
                from u6n.oracle import oracle_count_set_chains

                self.memo[key] = oracle_count_set_chains(
                    GroupParams(n0), normal_only=mode == "normal",
                    include_trivial=False, limit=ORACLE_MAX_ORDER)
                self.memo_path.write_text(json.dumps(self.memo))
            return self.memo[key]
        self.from_table += 1
        return [int(c) for c in self.entry(n, mode)["per_length"].split(",")]

    def entry(self, n: int, mode: str) -> dict:
        key = shape_key(shape_of(n))
        if key not in self.shapes:
            raise KeyError(f"n={n}: shape {key} is not in the frozen table")
        return self.shapes[key][mode]

    def for_query(self, argv: list[str]):
        """What the output of this query must match."""
        opts = options(argv)
        if argv[0] in ("count", "chains"):
            return self.per_length(int(opts["--n"]), opts["--mode"])
        if argv[0] == "lattice":
            n, mode = int(opts["--n"]), opts["--mode"]
            return {**self.entry(n, mode), "closed_form_nodes": node_count(shape_of(n), mode)}
        if argv[0] == "verify":
            return self.verify_labels[opts["--n-max"]]
        raise ValueError(f"no reference for {argv}")


def options(argv: list[str]) -> dict[str, str]:
    opts = {"--mode": "all", "--format": "table", "--relation": "tarnauceanu"}
    opts.update(zip(argv[1::2], argv[2::2]))
    return opts


class Mismatch(Exception):
    """An output that differs from its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def totals(per_length: list[int]) -> dict[str, int]:
    """The chain total and both class counts: fuzzy = 2 * total (each chain
    with and without the trivial subgroup), mm = 2 * fuzzy - 1."""
    total = sum(per_length)
    return {"total": total, "fuzzy": 2 * total, "mm": 4 * total - 1}


def check_counts(argv: list[str], text: str, ref: list[int]) -> None:
    """count/chains output against the reference per-length counts.

    Also checks the identities fuzzy = 2 * total and mm = 2 * fuzzy - 1 on
    the numbers the program printed.
    """
    opts = options(argv)
    n, mode, fmt = int(opts["--n"]), opts["--mode"], opts["--format"]
    want = totals(ref)
    if argv[0] == "count":
        value = want["mm"] if opts["--relation"] == "murali" else want["fuzzy"]
        if fmt == "table":
            expect(text == f"{value}\n", f"count {text.strip()!r} != {value}")
        elif fmt == "json":
            expect(json.loads(text) == {"n": n, "mode": mode, "relation": opts["--relation"],
                                        "count": str(value)}, "count json differs")
        else:
            expect(text == f"n,mode,relation,count\n{n},{mode},{opts['--relation']},{value}\n",
                   "count csv differs")
        return
    if fmt == "json":
        data = json.loads(text)
        expect((data["n"], data["mode"]) == (n, mode), "chains json n/mode differ")
        got = [int(c) for c in data["per_length"]]
        printed = [int(data[k]) for k in ("total", "fuzzy_count", "mm_count")]
    elif fmt == "csv":
        lines = text.splitlines()
        expect(lines[0] == "length,count", "chains csv header differs")
        rows = [line.split(",") for line in lines[1:]]
        expect([int(k) for k, _ in rows] == list(range(1, len(rows) + 1)), "csv lengths")
        got = [int(c) for _, c in rows]
        printed = [sum(got), 2 * sum(got), 4 * sum(got) - 1]
    else:
        lines = text.splitlines()
        expect(lines[0] == "length  count", "chains table header differs")
        body = lines[1:-4]
        expect([int(line.split()[0]) for line in body] == list(range(1, len(body) + 1)),
               "table lengths")
        got = [int(line.split()[1]) for line in body]
        expect(lines[-4] == f"counts are 0 for every length >= {len(got) + 1}",
               "table zero line differs")
        printed = [int(line.split()[1]) for line in lines[-3:]]
    expect(got == ref, f"per_length {got} != reference {ref}")
    total, fuzzy, mm = printed
    expect(total == sum(got) and fuzzy == 2 * total and mm == 2 * fuzzy - 1,
           f"identities fail: total {total}, fuzzy {fuzzy}, mm {mm}")
    expect(printed == [want["total"], want["fuzzy"], want["mm"]], "totals differ")


_DESC = re.compile(r"^([CFT])\((\d+)(?:,([12]))?\)$")
_DOT_NODE = re.compile(r'^  n(\d+) \[label="(.*) \(order (\d+)\)"\];$')
_DOT_EDGE = re.compile(r"^  n(\d+) -> n(\d+);$")


def check_lattice(argv: list[str], text: str, dot: str | None, ref: dict) -> None:
    """lattice JSON (and DOT) against the closed form and the frozen sizes."""
    opts = options(argv)
    n, mode = int(opts["--n"]), opts["--mode"]
    data = json.loads(text)
    expect((data["n"], data["mode"]) == (n, mode), "lattice n/mode differ")
    nodes = data["nodes"]
    expect(len(nodes) == ref["closed_form_nodes"] == ref["nodes"],
           f"{len(nodes)} nodes, closed form {ref['closed_form_nodes']}")
    for i, node in enumerate(nodes):
        m = _DESC.match(node["desc"])
        expect(node["id"] == i and m is not None, f"bad node {node}")
        t = int(m.group(2))
        order = (2 * n // t) * (3 if m.group(1) == "F" else 1)
        expect((2 * n) % t == 0 and node["order"] == order, f"bad order {node}")
    strict = {tuple(e) for e in data["edges_strict"]}
    hasse = {tuple(e) for e in data["edges_hasse"]}
    expect(len(strict) == len(data["edges_strict"]) == ref["strict_pairs"],
           f"{len(data['edges_strict'])} strict pairs, reference {ref['strict_pairs']}")
    expect(len(hasse) == len(data["edges_hasse"]) == ref["covers"],
           f"{len(data['edges_hasse'])} covers, reference {ref['covers']}")
    expect(hasse <= strict, "a Hasse cover is not a strict pair")
    if "--dot" not in argv:
        return
    expect(dot is not None, "DOT file missing")
    lines = dot.splitlines()
    expect(lines[0] == f"digraph u6n_lattice_{mode} {{" and lines[-1] == "}", "DOT frame")
    labels = [_DOT_NODE.match(line) for line in lines if "[label=" in line]
    expect(all(labels) and [(m.group(2), int(m.group(3))) for m in labels]
           == [(nd["desc"], nd["order"]) for nd in nodes], "DOT nodes differ")
    edges = {(int(m.group(1)), int(m.group(2)))
             for m in map(_DOT_EDGE.match, lines) if m}
    expect(edges == hasse, "DOT edges differ from the Hasse covers")


_VERIFY_LINE = re.compile(r"^n=(\d+) (\S+): (ok|FAIL)")


def check_verify(argv: list[str], text: str, labels: list[str]) -> tuple[int, int]:
    """(checks, failed checks) of a verify report.  Every check the battery
    ran at the defining commit must be present and pass; new checks count."""
    if options(argv)["--format"] == "json":
        data = json.loads(text)
        got = {f"n={c['n']} {c['check']}": c["passed"] for c in data["checks"]}
        expect(data["passed"] == all(got.values()), "verify json summary differs")
    else:
        lines = text.splitlines()
        got = {}
        for line in lines[:-1]:
            m = _VERIFY_LINE.match(line)
            expect(m is not None, f"bad verify line {line!r}")
            got[f"n={m.group(1)} {m.group(2)}"] = m.group(3) == "ok"
        failed = sum(not ok for ok in got.values())
        summary = (f"{failed} of {len(got)} checks FAILED" if failed
                   else f"all {len(got)} checks passed")
        expect(lines[-1] == summary, f"verify summary {lines[-1]!r} differs")
    missing = [label for label in labels if label not in got]
    return max(len(got), len(labels)), len(missing) + sum(not ok for ok in got.values())
