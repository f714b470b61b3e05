"""subzurek benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload figures|scan|survey --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding ``src/subzurek``).
The workload runs in a fresh worker process with OpenBLAS/OpenMP pinned to
one thread, doing whole rounds of its jobs for about S seconds.  Set-up is
measured in that process and in SETUP_PROBES more that only import and
resolve a scenario, half of them before the workload and half after it.
With --trace 1 an untraced worker and a traced worker each get S/2
seconds, and the per-layer self times come from the traced one.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Outputs go to .bench_out/ and are removed at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
# The machine's speed drifts over tens of seconds, and probes in a row all
# see the same state, so they are split around the workload.
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # glibc raises its mmap and trim thresholds as large blocks are freed,
    # so whether a grid-sized array reuses the heap or gets a fresh mapping,
    # and with it the peak RSS, hangs on unrelated small allocations: a few
    # more lines of bench code moved the figures peak from 217 to 252 MB.
    # Fixed at the values they reach by themselves (32 MiB, twice that), the
    # layout repeats and the program runs as fast as with the default.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    # set-up is timed as an installed package runs it: from cached bytecode
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(root: Path, outdir: Path, workload: str, seed: int, budget: float,
           trace: int = 0, setup_only: bool = False) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    result = outdir / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget), "--trace", str(trace), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=outdir, env=_env(root),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def _verdicts(plan, worker: dict, outdir: Path, seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, unexpected failures) over every round of one worker."""
    jobs, last = plan.jobs, worker["rounds"][-1]["ops"]
    verdicts = {}
    for j, job in enumerate(jobs):
        for k, op in enumerate(job.ops):
            try:
                op.check(op, last[j][k], outdir, np.random.default_rng([seed, j, k]))
                verdicts[(j, k)] = None
            except workloads.Fail as exc:
                verdicts[(j, k)] = exc
            except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
                verdicts[(j, k)] = workloads.Fail(f"unreadable output: {exc!r}")
    if plan.check is not None:
        verdicts.update(plan.check(jobs, last))
    attempted = failed = 0
    unexpected = []
    for r, rnd in enumerate(worker["rounds"]):
        for j, job in enumerate(jobs):
            for k, op in enumerate(job.ops):
                attempted += 1
                fail = verdicts[(j, k)]
                rec, final = rnd["ops"][j][k], last[j][k]
                if any(rec[f] != final[f] for f in ("rc", "stdout", "digests")):
                    fail = workloads.Fail(f"round {r} output differs from the last round")
                if fail is not None:
                    failed += 1
                    if not fail.known:
                        unexpected.append(f"{' '.join(op.argv)}: {fail}")
                    elif r == 0:
                        print(f"known fault: {' '.join(op.argv)}: {fail}", file=sys.stderr)
    return attempted, failed, unexpected


def _layer_metrics(stats: dict, rounds: int, job_s: float, traced_s: float) -> dict:
    def per_round(name, i):
        return stats.get(name, [0, 0.0, 0.0])[i] / rounds

    def rate(name):
        s = stats.get(name, [0, 0.0, 0.0])
        return s[2] / s[1] if s[1] > 0 else 0.0

    out = {}
    for name in sorted({t[2] for t in tracing.TARGETS}):
        out[f"{name}.s"] = (per_round(name, 1), "s")
    out["export.grid_to_csv.mb_per_s"] = (rate("export.grid_to_csv"), "MB/s")
    out["export.write.mb"] = (per_round("export.write", 2), "MB")
    out["wigner.eval_grid.calls"] = (per_round("wigner.eval_grid", 0), "count")
    out["wigner.eval_grid.msamples_per_s"] = (rate("wigner.eval_grid") / 1e6, "Msample/s")
    out["analysis.overlap_decay_scan.steps_per_s"] = (rate("analysis.overlap_decay_scan"), "steps/s")
    out["oracle.wigner_quadrature.calls"] = (per_round("oracle.wigner_quadrature", 0), "count")
    out["cli.other.s"] = ((job_s - traced_s) / rounds, "s")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.PLANS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    root = Path.cwd()
    if not (root / "src" / "subzurek" / "cli.py").is_file():
        sys.exit(f"no src/subzurek under {root}: run from the root of a subzurek source tree")
    outdir = root / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        def probe(i):
            return _spawn(root, outdir / f"probe{i}", args.workload, args.seed, 0.0, setup_only=True)

        probes = [probe(i) for i in range(SETUP_PROBES // 2)]
        plan = workloads.plan(args.workload, args.seed)
        runs = []
        budgets = [(0, args.seconds)] if not args.trace else [(0, args.seconds / 2), (1, args.seconds / 2)]
        attempted = failed = 0
        unexpected = []
        for trace, budget in budgets:
            wdir = outdir / f"worker{trace}"
            w = _spawn(root, wdir, args.workload, args.seed, budget, trace=trace)
            a, f, u = _verdicts(plan, w, wdir, args.seed)
            attempted, failed, unexpected = attempted + a, failed + f, unexpected + u
            shutil.rmtree(wdir)
            runs.append(w)
        probes += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for line in unexpected:
        print(f"FAILED: {line}", file=sys.stderr)

    def e2e(w):
        return {
            "wall_s": (statistics.median(r["wall_s"] for r in w["rounds"]), "s"),
            "job_s.p50": (statistics.median(s for r in w["rounds"] for s in r["job_s"]), "s"),
        }

    untraced = runs[0]
    if not args.trace:
        metrics = e2e(untraced)
        metrics["setup_s"] = (statistics.median([p["setup_s"] for p in probes] + [untraced["setup_s"]]), "s")
        metrics["peak_rss_mb"] = (untraced["peak_rss_mb"], "MB")
    else:
        traced = runs[1]
        rounds = len(traced["rounds"])
        job_s = sum(s for r in traced["rounds"] for s in r["job_s"])
        metrics = _layer_metrics(traced["trace"], rounds, job_s, traced["traced_s"])
        metrics["setup.import.s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["trace.overhead_s"] = (e2e(traced)["wall_s"][0] - e2e(untraced)["wall_s"][0], "s")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
