"""Timed closed loop over one workload, in a fresh interpreter.

One client: each query is an argv list passed to `u6n.cli.main` with stdout
captured, and the next starts when it returns.  The loop repeats the pass
(the whole query list) until the time budget is spent, always finishing the
pass it is in.  A timer signal times the calibration kernel (calibrate.py)
throughout, and each latency is later scaled by the host speed around it.  Each output is hashed outside the timed region, and the first
output with a given hash is saved for the parent to check, so the parent
checks every output while this process holds no more than the program does.

Usage: python3 worker.py JOB.json   (run.py writes the job and reads RESULT)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate
from tracing import Tracer, aggregate


def dot_path(argv: list[str]) -> str | None:
    return argv[argv.index("--dot") + 1] if "--dot" in argv else None


def call(main, argv: list[str], sampler: calibrate.Sampler) -> tuple[int, str, float, float, float]:
    """(exit code, stdout, latency, start, end); the latency leaves out the
    time the calibration handler took inside the call."""
    buf = io.StringIO()
    spent = sampler.spent
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed query, not a failed benchmark
        rc = -1
        print(f"query {argv} raised {exc!r}", file=sys.stderr)
    end = time.perf_counter()
    return rc, buf.getvalue(), end - start - (sampler.spent - spent), start, end


def run_passes(cli, queries, seconds, out_dir: Path, seen: set, tracer=None):
    """(passes, span ranges, holes).  A pass is a list of rows [rc, digest,
    latency_s, stdout_bytes, dot_bytes, speed_scale], one per query (see
    calibrate.py); with a tracer, each pass also has the index range of its
    spans; holes are the calibration handler's intervals."""
    passes, bounds, windows = [], [], []
    with calibrate.Sampler() as sampler:
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < seconds:
            rows = []
            first_span = len(tracer.spans) if tracer else 0
            for qid, argv in enumerate(queries):
                if tracer:
                    tracer.query = qid
                rc, out, latency, start, end = call(cli.main, argv, sampler)
                windows.append((start, end))
                data, dot, dot_file = out.encode(), None, dot_path(argv)
                if dot_file:
                    with contextlib.suppress(FileNotFoundError):
                        dot = Path(dot_file).read_bytes()
                        os.unlink(dot_file)
                digest = hashlib.sha256(
                    data + (b"\0" + dot if dot is not None else b"")).hexdigest()
                if (qid, digest) not in seen:
                    seen.add((qid, digest))
                    (out_dir / f"{qid}-{digest}.out").write_bytes(data)
                    if dot is not None:
                        (out_dir / f"{qid}-{digest}.dot").write_bytes(dot)
                rows.append([rc, digest, latency, len(data),
                             len(dot) if dot is not None else 0])
            passes.append(rows)
            bounds.append((first_span, len(tracer.spans) if tracer else 0))
        time.sleep(2 * calibrate.INTERVAL_S)  # a sample after the last query
    scales = iter([sampler.scale(start, end) for start, end in windows])
    for rows in passes:
        for row in rows:
            row.append(next(scales))
    return passes, bounds, sampler.windows


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    import u6n.cli as cli

    out_dir = Path(job["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for argv in job["queries"]:
        if dot_path(argv):
            Path(dot_path(argv)).parent.mkdir(parents=True, exist_ok=True)
    seen: set = set()
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    result = {"untraced": run_passes(cli, job["queries"], seconds, out_dir, seen)[0]}
    if job["trace"]:
        tracer = Tracer()
        result["wrapped_sites"] = tracer.install()
        passes, bounds, holes = run_passes(cli, job["queries"], seconds, out_dir, seen, tracer)
        result["traced"] = passes
        result["layers"] = [aggregate(tracer.spans, lo, hi, holes) for lo, hi in bounds]
        result["span_count"] = len(tracer.spans)
        tracer.dump(job["spans_path"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result_path"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
