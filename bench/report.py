"""Run the benchmark over workloads and seeds and print every metric.

    python3 bench/report.py [--workloads certify,em-scan-oracles]
                            [--seeds 1-10] [--trace]

The workloads default to those of BENCHMARK.json; the parts em, scan and
oracles are accepted too.  For each workload, runs bench/run.py once per
seed (one process at a time), printing how long each run took, and
prints each end-to-end metric with its unit: median, first and
third quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) /
median against a third of the metric's bound in BENCHMARK.json, plus
fail_frac.  With --trace, adds one traced run per workload (first seed)
and prints its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            start = time.monotonic()
            runs.append(run_once(workload, seed, spec["run_seconds"], False))
            print("  %s seed %d: %s, run took %.1f s" % (
                workload, seed, json.dumps(
                    {k: round(v["value"], 4) for k, v in
                     runs[-1]["metrics"].items()}),
                time.monotonic() - start), flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print("%s: %d run(s), fail_frac %.4g ratio (%d/%d), correct %s"
              % (workload, len(runs), failed / attempted, failed, attempted,
                 all(r["correct"] for r in runs)))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            line = "  %-12s median %.6g %s" % (m["name"], med, m["unit"])
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                third = bounds[m["name"]] / 3
                line += ("  q1 %.6g  q3 %.6g  spread %.4f (bound/3 %.4f)%s"
                         % (q1, q3, spread, third,
                            "" if spread < third else "  WIDE"))
            print(line, flush=True)
        if args.trace:
            traced = run_once(workload, seeds[0], spec["run_seconds"], True)
            for name, m in traced["metrics"].items():
                print("  %-34s %.6g %s" % (name, m["value"], m["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
