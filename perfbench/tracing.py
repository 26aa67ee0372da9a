"""Spans around the program's public functions, recorded from outside.

The tracer replaces a function at every module attribute that holds it, so
`u6n.cli.build_lattice` is traced as well as `u6n.lattice.build_lattice`, and
calls through a module global inside the package are caught too.  Spans stay
in memory as small lists and are written out when the run ends.

Per-element functions of `u6n.group` are never wrapped: they run millions of
times, and their cost shows up in the self time of whatever called them.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Span record fields, kept as a list for speed.
NAME, START, END, PARENT, QUERY, COUNTS = range(6)


def _strict_pairs(lat) -> int:
    return sum(map(len, lat.strictly_below))


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions it wraps and the metrics it yields."""

    span: str
    module: str
    functions: tuple[str, ...]
    calls_metric: str
    self_metric: str
    counters: dict[str, Callable] = field(default_factory=dict)


def _layer(span: str, module: str, *functions: str, **counters: Callable) -> Layer:
    return Layer(span, module, functions, f"{span}.calls", f"{span}.self_s",
                 {name.replace("__", "."): fn for name, fn in counters.items()})


ORACLE_FUNCTIONS = (
    "oracle_all_subgroups", "oracle_is_normal", "oracle_normal_subgroups",
    "oracle_count_chains", "oracle_count_set_chains", "representative_from_sets",
    "chain_to_representative", "is_fuzzy_subgroup", "is_normal_fuzzy",
    "rank_signature", "equivalent", "equivalent_by_pairs",
    "oracle_count_equivalence_classes",
)

VERIFY_CHECKS = (
    "group_laws", "count_formula", "subgroup_family", "normal_family",
    "membership", "containment", "subgroup_closure", "lattice_order_laws",
    "normal_restriction", "normal_in_supergroup", "hasse_closure", "dp_vs_dfs",
    "set_chains", "fuzzy_axioms", "equivalence_count", "divisor_shape_dependence",
)

LAYERS = (
    _layer("subgroups.factorize", "u6n.subgroups", "factorize"),
    _layer("subgroups.enumerate", "u6n.subgroups", "enumerate_subgroups",
           "enumerate_normal_subgroups", subgroups__enumerate__descriptors=len),
    _layer("lattice.build", "u6n.lattice", "build_lattice",
           lattice__nodes=lambda r: len(r.nodes), lattice__strict_pairs=_strict_pairs),
    _layer("chains.dp", "u6n.chains", "compute_chain_table",
           chains__dp__levels=lambda r: len(r.levels),
           chains__dp__additions=lambda r: _strict_pairs(r.lattice) * len(r.levels)),
    _layer("lattice.hasse", "u6n.lattice", "hasse_edges", lattice__hasse__covers=len),
    _layer("lattice.export", "u6n.lattice", "export_json", "export_dot"),
    Layer("oracle", "u6n.oracle", ORACLE_FUNCTIONS, "oracle.calls", "oracle.self_s"),
    _layer("verify.run", "u6n.verify", "run_verification"),
    *(_layer(f"verify.{c}", "u6n.verify", f"check_{c}") for c in VERIFY_CHECKS),
    Layer("cli.main", "u6n.cli", ("main",), "cli.main.calls", "cli.self_s"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1

    def wrap(self, name: str, fn: Callable, counters: dict[str, Callable]) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counters:
                span[COUNTS] = _count(counters, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, layers=LAYERS) -> dict[str, int]:
        """Wrap every layer function wherever the package holds it.

        A function that no longer exists is skipped, so its layer reports zero
        calls.  Returns the number of import sites wrapped per span name.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "u6n" or name.startswith("u6n."))]
        sites: dict[str, int] = {}
        for layer in layers:
            home = sys.modules.get(layer.module)
            for fname in layer.functions:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    continue
                wrapped = self.wrap(layer.span, fn, layer.counters)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapped)
                            sites[layer.span] = sites.get(layer.span, 0) + 1
        return sites

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "query": s[QUERY],
                                     "counts": s[COUNTS]}) + "\n")


def _count(counters: dict[str, Callable], result) -> dict[str, int] | None:
    try:
        return {metric: fn(result) for metric, fn in counters.items()}
    except (AttributeError, TypeError):  # a later return type: count nothing
        return None


def self_times(spans: list[list], first: int = 0, holes=()) -> list[float]:
    """Self time of spans[first:]: each span's duration minus the part of its
    interval that its direct children cover, and minus the holes (intervals
    spent outside the program, such as the calibration handler) that it is
    the innermost span around."""
    covered: dict[int, list[tuple[float, float]]] = {}
    for s in spans[first:]:
        if s[PARENT] >= first:
            covered.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i in range(first, len(spans)):
        s = spans[i]
        busy, reach = 0.0, s[START]
        for lo, hi in sorted(covered.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                busy += hi - lo
                reach = hi
        out.append(s[END] - s[START] - busy)
    # Spans are listed in start order and nest, so a sweep with a stack of
    # open spans finds the innermost one around each hole.
    pending = sorted(holes)
    k, open_spans = 0, []
    for i in [*range(first, len(spans)), None]:
        start = spans[i][START] if i is not None else float("inf")
        while k < len(pending) and pending[k][0] < start:
            lo, hi = pending[k]
            while open_spans and spans[open_spans[-1]][END] <= lo:
                open_spans.pop()
            if open_spans and hi <= spans[open_spans[-1]][END]:
                out[open_spans[-1] - first] -= hi - lo
            k += 1
        if i is not None:
            while open_spans and spans[open_spans[-1]][END] <= start:
                open_spans.pop()
            open_spans.append(i)
    return out


def aggregate(spans: list[list], first: int, last: int, holes=(), layers=LAYERS) -> dict:
    """Per-layer calls, self time and counters over spans[first:last]."""
    metrics: dict[str, float] = {}
    for layer in layers:
        metrics[layer.calls_metric] = 0
        metrics[layer.self_metric] = 0.0
        for name in layer.counters:
            metrics[name] = 0
    by_span = {layer.span: layer for layer in layers}
    window = spans[:last]
    for s, own in zip(window[first:], self_times(window, first, holes)):
        layer = by_span[s[NAME]]
        metrics[layer.calls_metric] += 1
        metrics[layer.self_metric] += own
        for name, value in (s[COUNTS] or {}).items():
            metrics[name] += value
    return metrics
