"""Seeded workload generators: each returns the argv lists of one pass.

The same seed always yields the same lists.  The program under test sees only
these lists; the seed never reaches it.

Every workload is stratified so that one pass costs about the same for any
seed while the inputs themselves change.  Without this, a single unlucky draw
(n near 1e14 with a large prime factor, or the biggest lattice in the pool)
would decide the pass time, and which query sits at the median would decide
query_p50_ms.  random_n takes a fresh random n near each of a fixed set of
factorization-cost quantiles; the rich workloads take the middle shape of
each of K equal strata of their shape pool, ranked by strict pairs, and the
seed picks the primes that realize each shape, the commands, the formats and
the order.
"""

from __future__ import annotations

import bisect
import math
import random

from numtheory import (
    SMALL_PRIMES,
    divisor_count,
    parse_shape_key,
    shape_of,
    shapes_between,
    trial_division_cost,
)

WORKLOADS = ("random_n", "rich_count", "rich_export", "verify")

#: random_n: n is drawn log-uniformly from [1, RANDOM_N_MAX].
RANDOM_N_MAX = 10**14
RANDOM_QUERIES = 160
#: Draws whose 2n has more divisors are redrawn: divisor-rich n are what
#: rich_count measures, and they would make a random_n pass seed-dependent.
RANDOM_MAX_DIVISORS = 128
RANDOM_POOL_PER_QUERY = 50

RICH_COUNT_SHAPES = 10
RICH_COUNT_DIVISORS = (100, 500)
RICH_ANCHORS = (360360, 36756720)

RICH_EXPORT_QUERIES = 30
RICH_EXPORT_DIVISORS = (50, 200)

VERIFY_N_MAX = (12, 16)

#: Primes other than 2 and 3 that realize a rich shape: 2n stays 23-smooth.
RICH_PRIMES = tuple(p for p in SMALL_PRIMES if 3 < p <= 23)
DOT_DIR = ".bench_build/dot"


def random_shapes() -> list[tuple]:
    """Every shape a random_n draw can have."""
    return shapes_between(1, RANDOM_MAX_DIVISORS, 60, 40, 14, 60, RANDOM_N_MAX)


def rich_shapes(lo: int, hi: int) -> list[tuple]:
    """Divisor-rich shapes with small exponents, as highly composite n have."""
    return shapes_between(lo, hi, 6, 4, len(RICH_PRIMES), 3)


def stratified_pick(ranked: list, k: int) -> list:
    """The middle item of each of k equal rank strata."""
    return [ranked[(2 * i + 1) * len(ranked) // (2 * k)] for i in range(k)]


def draw_random_n(rng: random.Random) -> int:
    """n log-uniform in [1, RANDOM_N_MAX], redrawn while 2n is divisor-rich."""
    while True:
        n = max(1, int(math.exp(rng.uniform(0.0, math.log(RANDOM_N_MAX)))))
        if divisor_count(shape_of(n)) <= RANDOM_MAX_DIVISORS:
            return n


def cost_targets(sample: int, seed: int = 0) -> list[int]:
    """The factorization cost at the midpoint of each of RANDOM_QUERIES equal
    quantile strata of the random_n distribution, estimated from a large
    sample.  make_table.py freezes these; a pass then holds one n near each."""
    rng = random.Random(seed)
    costs = sorted(trial_division_cost(2 * draw_random_n(rng)) for _ in range(sample))
    return [costs[(2 * i + 1) * sample // (2 * RANDOM_QUERIES)] for i in range(RANDOM_QUERIES)]


def realize(rng: random.Random, shape: tuple) -> int:
    """A random n with this shape whose 2n is 23-smooth."""
    e2, e3, rest = shape
    primes = rng.sample(RICH_PRIMES, len(rest))
    two_n = 2**e2 * 3**e3 * math.prod(p**e for p, e in zip(primes, rest))
    return two_n // 2


#: Every (command, mode, format) a counting query can take.
COUNT_COMBOS = tuple(
    (command, mode, fmt)
    for command in ("count", "chains")
    for mode in ("all", "normal")
    for fmt in ("table", "json", "csv")
)


def _count_queries(rng: random.Random, ns: list[int]) -> list[list[str]]:
    """Counting queries that cycle through COUNT_COMBOS, so every combination
    appears equally often whatever the seed."""
    combos = list(COUNT_COMBOS)
    rng.shuffle(combos)
    queries = []
    for i, n in enumerate(ns):
        command, mode, fmt = combos[i % len(combos)]
        argv = [command, "--n", str(n), "--mode", mode, "--format", fmt]
        if command == "count":
            argv += ["--relation", rng.choice(("tarnauceanu", "murali"))]
        queries.append(argv)
    rng.shuffle(queries)
    return queries


def gen_random_n(rng: random.Random, targets: list[int]) -> list[list[str]]:
    """For each frozen cost target, a fresh random n whose factorization cost
    is nearest to it (ties broken at random).  The tail of the distribution is
    then the same for every seed, and so is the cost of a pass."""
    pool = sorted((trial_division_cost(2 * n), rng.random(), n)
                  for n in (draw_random_n(rng)
                            for _ in range(RANDOM_QUERIES * RANDOM_POOL_PER_QUERY)))
    costs = [c for c, _, _ in pool]
    used: set[int] = set()
    picked = []
    for target in targets:
        at = bisect.bisect_left(costs, target)
        window = [j for j in range(max(0, at - RANDOM_POOL_PER_QUERY),
                                   min(len(pool), at + RANDOM_POOL_PER_QUERY))
                  if j not in used]
        best = min(window, key=lambda j: (abs(math.log(costs[j] / target)), pool[j][1]))
        used.add(best)
        picked.append(pool[best][2])
    rng.shuffle(picked)
    return _count_queries(rng, picked)


def gen_rich_count(rng: random.Random, cost: dict) -> list[list[str]]:
    """Each picked shape is counted in both modes, like the anchors: the
    normal lattice is much smaller, so a seed must not choose the modes."""
    ranked = sorted(rich_shapes(*RICH_COUNT_DIVISORS), key=lambda s: (cost[s], s))
    ns = [realize(rng, s) for s in stratified_pick(ranked, RICH_COUNT_SHAPES)]
    queries = []
    for n in ns + list(RICH_ANCHORS):
        for mode in ("all", "normal"):
            command = rng.choice(("count", "chains"))
            argv = [command, "--n", str(n), "--mode", mode,
                    "--format", rng.choice(("table", "json", "csv"))]
            if command == "count":
                argv += ["--relation", rng.choice(("tarnauceanu", "murali"))]
            queries.append(argv)
    rng.shuffle(queries)
    return queries


def gen_rich_export(rng: random.Random, cost: dict) -> list[list[str]]:
    """Half the queries per mode, and half of each mode with --dot; strata
    alternate so neighbouring (similar) shapes get different options."""
    ranked = sorted(rich_shapes(*RICH_EXPORT_DIVISORS), key=lambda s: (cost[s], s))
    queries = []
    for i, shape in enumerate(stratified_pick(ranked, RICH_EXPORT_QUERIES)):
        argv = ["lattice", "--n", str(realize(rng, shape)), "--mode", ("all", "normal")[i % 2]]
        if i // 2 % 2:
            argv += ["--dot", f"{DOT_DIR}/q{i}.dot"]
        queries.append(argv)
    rng.shuffle(queries)
    return queries


def gen_verify(rng: random.Random) -> list[list[str]]:
    queries = [["verify", "--n-max", str(n), "--format", rng.choice(("table", "json"))]
               for n in VERIFY_N_MAX]
    rng.shuffle(queries)
    return queries


def generate(workload: str, seed: int, table: dict) -> list[list[str]]:
    """The argv lists of one pass, given the frozen table (make_table.py)."""
    rng = random.Random(f"{workload}:{seed}")
    cost = {parse_shape_key(k): v["all"]["strict_pairs"] + v["normal"]["strict_pairs"]
            for k, v in table["shapes"].items()}
    if workload == "random_n":
        return gen_random_n(rng, table["random_n_cost_targets"])
    if workload == "rich_count":
        return gen_rich_count(rng, cost)
    if workload == "rich_export":
        return gen_rich_export(rng, cost)
    if workload == "verify":
        return gen_verify(rng)
    raise ValueError(f"unknown workload {workload!r}")
