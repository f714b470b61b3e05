"""One workload in one fresh process: set-up, whole rounds of CLI jobs, timings.

Started by run.py with the thread pools pinned and ``src`` on PYTHONPATH.
Jobs are in-process calls of ``subzurek.cli.main`` with the argv a user
types, run in the output directory.  Only timings, exit codes, captured
output and digests of the written files are recorded here; the content
checks run in the parent so that they add nothing to this process's memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
import traceback

CLOCK = time.CLOCK_MONOTONIC  # shared with the parent, so set-up counts from spawn


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _call(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a failed benchmark
            rc = None
            err.write(traceback.format_exc())
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _round(cli, jobs) -> dict:
    clock = time.perf_counter
    job_s, records = [], []
    start = clock()
    for job in jobs:
        t0 = clock()
        recs = [_call(cli, op.argv) for op in job.ops]
        job_s.append(clock() - t0)
        records.append(recs)
    wall = clock() - start
    for job, recs in zip(jobs, records):
        for op, rec in zip(job.ops, recs):
            rec["digests"] = {f: _digest(f) for f in op.outputs if rec["rc"] == 0}
    return {"wall_s": wall, "job_s": job_s, "ops": records}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    from subzurek import cli

    import_s = time.perf_counter() - t0
    import workloads

    jobs = workloads.plan(args.workload, args.seed).jobs
    cli.resolve_scenario(cli.build_parser().parse_args(list(jobs[0].ops[0].argv)))
    setup_s = time.clock_gettime(CLOCK) - args.spawned_at
    result = {"setup_s": setup_s, "import_s": import_s}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(_round(cli, jobs))
            if len(rounds) == 1:
                # later rounds reuse a heap the first one grew, so only the
                # first is comparable between runs of different round counts
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.budget:
                break
        result["rounds"] = rounds
        if tracer is not None:
            result["trace"] = tracer.stats
            result["traced_s"] = tracer.covered_s()

    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
