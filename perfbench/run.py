"""The u6n benchmark: one workload, one seed, one result line.

Usage (from the repository root):
    python3 perfbench/run.py --workload random_n --seed 1 --seconds 20 --trace 0

Steps: time `import u6n.cli` in fresh interpreters (set-up), generate the
workload's argv lists from the seed, compute every reference, run the timed
closed loop in a fresh worker process, check every output, then print a
human-readable report followed by one JSON line with the metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run also
makes traced passes and reports the per-layer metrics instead.

Exit status: 0 when every output matched its reference, 1 on a mismatch (the
result line is still printed), 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

from reference import (  # noqa: E402
    Mismatch,
    References,
    check_counts,
    check_lattice,
    check_verify,
)
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_RUNS = 9
IMPORTTIME_RUNS = 5
#: Modules whose cumulative import time the traced run reports.
IMPORT_MODULES = (
    "u6n", "u6n.cli", "u6n.verify", "u6n.oracle", "u6n.chains", "u6n.lattice",
    "u6n.subgroups", "u6n.group", "u6n.cache", "concurrent.futures", "fractions",
    "argparse", "json", "csv",
)
#: The worker's deadline is 3 * --seconds plus this (its last pass overruns).
WORKER_GRACE_S = 60
#: The percentile rule: a percentile is reported only with this many samples
#: beyond it.
MIN_SAMPLES_BEYOND = 10


def child_env() -> dict[str, str]:
    """The environment of every child: the program from src/, no cache, fixed
    string hashing, bytecode kept under .bench_build."""
    dropped = ("U6N_CACHE", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(PYTHONPATH=f"{SRC}{os.pathsep}{HERE}", PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    return env


def python(args: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout, check=True)


def setup_seconds() -> float:
    """Median time to import u6n.cli inside fresh interpreters, each scaled by
    the calibration kernel timed in the same interpreter.  The first
    interpreter only compiles bytecode and is not counted."""
    code = ("import time; t = time.perf_counter(); import u6n.cli; "
            "t = time.perf_counter() - t; import calibrate; print(t * calibrate.speed_scale(21))")
    python(["-c", code])
    return statistics.median(float(python(["-c", code]).stdout) for _ in range(SETUP_RUNS))


def import_seconds() -> dict[str, float]:
    """setup.import_s.<module>: median cumulative import time from
    -X importtime, scaled like setup_s; 0 for a module that `import u6n.cli`
    no longer loads."""
    code = "import u6n.cli, calibrate; print(calibrate.speed_scale(21))"
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        proc = python(["-X", "importtime", "-c", code])
        scale = float(proc.stdout)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1e6 * scale)
        for m in IMPORT_MODULES:
            samples[m].append(seen.get(m, 0.0))
    return {f"setup.import_s.{m}": statistics.median(v) for m, v in samples.items()}


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile, or None when fewer than MIN_SAMPLES_BEYOND
    samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


def check_outputs(queries, refs, passes, out_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every row of every pass.  Each
    distinct output of a query is checked once; equal bytes share the verdict."""
    verdicts: dict[tuple[int, str], tuple[int, int, str]] = {}
    attempted = failed = 0
    problems = []
    for rows in passes:
        for qid, (rc, digest, *_rest) in enumerate(rows):
            argv = queries[qid]
            if (qid, digest) not in verdicts:
                text = (out_dir / f"{qid}-{digest}.out").read_text()
                dot_file = out_dir / f"{qid}-{digest}.dot"
                dot = dot_file.read_text() if dot_file.exists() else None
                verdicts[qid, digest] = verdict(argv, text, dot, refs[qid])
            units, bad, why = verdicts[qid, digest]
            expected_rc = 2 if argv[0] == "verify" and bad else 0
            if rc != expected_rc:
                bad, why = max(bad, 1), f"exit code {rc}"
            attempted += units
            failed += bad
            if bad and len(problems) < 10:
                problems.append(f"{' '.join(argv)}: {why}")
    return attempted, failed, problems


def verdict(argv, text, dot, ref) -> tuple[int, int, str]:
    """(units attempted, units failed, reason) for one output."""
    try:
        if argv[0] == "verify":
            units, bad = check_verify(argv, text, ref)
            return units, bad, f"{bad} checks failed"
        if argv[0] == "lattice":
            check_lattice(argv, text, dot, ref)
        else:
            check_counts(argv, text, ref)
    except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
        units = len(ref) if argv[0] == "verify" else 1
        return units, units, f"{type(exc).__name__}: {exc}"
    return 1, 0, ""


def machine() -> dict:
    cpu = platform.processor()
    try:
        cpu = re.search(r"^model name\s*:\s*(.*)$", Path("/proc/cpuinfo").read_text(),
                        re.M).group(1)
    except (OSError, AttributeError):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def scaled(passes: list) -> list[list[float]]:
    """Query latencies per pass, scaled to the reference host speed."""
    return [[row[2] * row[5] for row in rows] for rows in passes]


def end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    raw = result["untraced"]
    passes = scaled(raw)
    latencies = [x for lat in passes for x in lat]
    p90 = percentile(latencies, 0.9)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(map(sum, passes)), "s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    extra = {
        "queries_per_pass": len(passes[0]), "passes": len(passes), "samples": len(latencies),
        "query_p90_ms": f"not reported: fewer than {MIN_SAMPLES_BEYOND} of "
        f"{len(latencies)} samples beyond p90" if p90 is None else p90 * 1e3,
        "unscaled_wall_s": statistics.median(sum(r[2] for r in rows) for rows in raw),
        "unscaled_query_p50_ms": statistics.median(r[2] for rows in raw for r in rows) * 1e3,
        "speed_scale": [round(statistics.median(r[5] for r in rows), 3) for rows in raw],
    }
    return metrics, extra


def per_layer(result: dict, imports: dict, queries: list[list[str]]) -> dict:
    """Self times are scaled per pass like the end-to-end times."""
    untraced = statistics.median(map(sum, scaled(result["untraced"])))
    traced_lat = scaled(result["traced"])
    traced = [sum(lat) for lat in traced_lat]
    # self times scale with their pass: scaled pass time over unscaled
    factors = [sum(lat) / sum(r[2] for r in rows)
               for lat, rows in zip(traced_lat, result["traced"])]
    layers = result["layers"]
    self_metrics = {layer.self_metric for layer in LAYERS}
    metrics = {}
    for name in layers[0]:
        values = [pass_metrics[name] for pass_metrics in layers]
        if name in self_metrics:
            metrics[name] = (statistics.median(v * f for v, f in zip(values, factors)), "s")
        else:
            if len(set(values)) != 1:
                raise RuntimeError(f"{name} differs between passes: {values}")
            metrics[name] = (values[0], "count")
    rows = result["traced"][0]
    metrics["cli.stdout_bytes"] = (sum(r[3] for r in rows), "bytes")
    metrics["lattice.export.bytes"] = (sum(r[3] + r[4] for r, argv in zip(rows, queries)
                                           if argv[0] == "lattice"), "bytes")
    metrics.update({k: (v, "s") for k, v in imports.items()})
    remainder = [wall - f * sum(p[m] for m in self_metrics)
                 for wall, f, p in zip(traced, factors, layers)]
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - untraced, "s")
    metrics["trace.remainder_s"] = (statistics.median(remainder), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "u6n" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'u6n' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    os.environ.pop("U6N_CACHE", None)
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(BUILD / "pycache")
    BUILD.mkdir(exist_ok=True)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = BUILD / "runs" / run_id
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    table = json.loads((HERE / "frozen_table.json").read_text())
    queries = generate(args.workload, args.seed, table)
    refs = References(table, BUILD / "oracle_memo.json", SRC)
    references = [refs.for_query(argv) for argv in queries]

    if args.trace:
        imports, setup_s = import_seconds(), None
    else:
        imports, setup_s = {}, setup_seconds()

    job = {"queries": queries, "seconds": args.seconds, "trace": bool(args.trace),
           "out_dir": str(run_dir / "out"), "result_path": str(run_dir / "result.json"),
           "spans_path": str(run_dir / "spans.jsonl")}
    (run_dir / "job.json").write_text(json.dumps(job))
    try:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(run_dir / "job.json")],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=3 * args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        print("error: the worker did not finish in time", file=sys.stderr)
        return 2
    if worker.returncode != 0:
        print(f"error: worker exited {worker.returncode}\n{worker.stderr}", file=sys.stderr)
        return 2
    result = json.loads((run_dir / "result.json").read_text())
    passes = result["untraced"] + result.get("traced", [])
    attempted, failed, problems = check_outputs(queries, references, passes, run_dir / "out")
    shutil.rmtree(run_dir / "out")

    if args.trace:
        metrics = per_layer(result, imports, queries)
        extra = {"wrapped_sites": result["wrapped_sites"], "spans": result["span_count"]}
    else:
        metrics, extra = end_to_end(result, setup_s)
    extra.update(error_rate=failed / attempted, attempted=attempted, failed=failed,
                 references={"oracle": refs.from_oracle, "table": refs.from_table},
                 **machine())
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "metrics": metrics, **extra}
    (BUILD / "results").mkdir(exist_ok=True)
    (BUILD / "results" / f"{run_id}.json").write_text(json.dumps(report, indent=1))

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in extra.items():
        print(f"# {key}: {value}")
    for problem in problems:
        print(f"# MISMATCH {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
