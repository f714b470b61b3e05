"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 bench/steady.py

Run from the root of the source tree.  Each of two sets runs every workload
of BENCHMARK.json once per seed (set s uses seeds 1000*s+1 .. 1000*s+10,
workloads interleaved), for run_seconds, untraced.  For each (workload,
end-to-end metric) it prints each set's median and spread, the distance
between the first and third quartile as a share of the median, and the
drift of the second set's median from the first's, against the metric's
bound.  A spread or a drift in either direction above the bound is refused;
a spread above a third of it is wide.  setup_s is the one exception: its
spread is shown but only its drift is refused.  A run samples its set-up
within a few seconds, so the value follows the machine's speed at that
moment, and one set's runs read from 0.17 s to 0.26 s on the 2-vCPU VM of
the README.  The share of failed operations must be identical in every
run of a workload.  Raw results are kept in
.bench_out/steady-<time>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

RUNS = 10  # seeds per set


def main() -> int:
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    results = {w: ([], []) for w in names}
    for s in range(2):
        for i in range(RUNS):
            seed = 1000 * s + i + 1
            for w in names:
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
                took = time.perf_counter() - t0
                if proc.returncode != 0:
                    print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    return 1
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                out["seed"], out["run_s"] = seed, took
                results[w][s].append(out)
                m = {k: round(v["value"], 4) for k, v in out["metrics"].items()}
                print(f"set {s} seed {seed:5d} {w:8s} {took:6.1f}s correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']} {m}", flush=True)

    Path(".bench_out").mkdir(exist_ok=True)
    raw = Path(".bench_out") / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    raw.write_text(json.dumps(results))

    ok = True
    print(f"\n{'workload':8s} {'metric':12s} " + " ".join(
        f"{'median' + str(s):>10s} {'spread' + str(s):>8s}" for s in range(2))
        + f" {'drift':>7s} {'bound':>6s}  verdict")
    for w in names:
        shares = {Fraction(r["failed"], r["attempted"]) for runs in results[w] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in results[w] for r in runs):
            ok = False
            print(f"{w}: failed shares {sorted(shares)} or incorrect runs")
        for m in spec["end_to_end"]:
            cols, medians, verdict = [], [], "steady"
            for runs in results[w]:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                cols.append(f"{med:10.4f} {spread:8.3f}")
                if spread > m["bound"] and m["name"] != "setup_s":
                    verdict = "REFUSED"
                elif spread > m["bound"] / 3 and verdict == "steady":
                    verdict = "wide"
            drift = medians[1] / medians[0] - 1.0
            if abs(drift) > m["bound"]:
                verdict = "REFUSED"
            ok = ok and verdict != "REFUSED"
            print(f"{w:8s} {m['name']:12s} {' '.join(cols)} {drift:+7.3f} {m['bound']:6.2f}  {verdict}")
    print(f"\nraw results: {raw}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
