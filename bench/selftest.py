"""Self-test of the benchmark at a tiny size: python3 bench/selftest.py

Runs every workload on a small job list through the same code as run.py,
untraced and traced, and checks that
  * every end-to-end and per-layer metric in BENCHMARK.json is reported,
    with its unit, and nothing else;
  * the tiny jobs pass their checks;
  * a corrupted reference registers as a failed, incorrect job;
  * a forced non-zero exit registers as a failed job;
  * the command line of run.py ends in the result line.
Takes about a minute.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import common

import run
import workloads

SEED = 7


def tiny_jobs(workload: str, refs: dict, workdir) -> list:
    if workload == "certify":
        return workloads.certify_jobs(SEED, refs, workdir)[:1]
    if workload == "em":
        # before the potential is switched on the element vanishes exactly
        point = {"x": [0.2, 0.1, 0.0, 0.2], "value": [0.0, 0.0]}
        return [workloads.em_job(refs["em"], point, flag="causal_exterior")]
    if workload == "scan":
        return workloads.scan_jobs(SEED, refs, workdir, steps=11)
    if workload == "oracles":
        return workloads.oracles_jobs(SEED, refs, workdir,
                                      suites=("spectral", "geometry"))
    return [job for part in workload.split("-")
            for job in tiny_jobs(part, refs, workdir)]


def main() -> int:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    package = common.import_seacausal()
    with open(common.REFS_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    workdir = common.WORK_DIR / "selftest"
    problems = []

    def expect(cond: bool, what: str) -> None:
        print("%s %s" % ("ok  " if cond else "FAIL", what), flush=True)
        if not cond:
            problems.append(what)

    try:
        for name in workloads.WORKLOADS:
            jobs = tiny_jobs(name, refs, workdir)
            for trace, want in ((False, end_to_end), (True, per_layer)):
                tally, metrics = run.measure(package, jobs, 0.0, trace,
                                             "selftest-" + name)
                if not trace:
                    metrics["setup_s"] = {
                        "value": run.measure_setup(name, SEED), "unit": "s"}
                out = run.result(tally, metrics)
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                kind = "per-layer" if trace else "end-to-end"
                expect(got == want, "%s: %s metrics and units" % (name, kind))
                expect(out["correct"] and out["failed"] == 0
                       and out["attempted"] >= 1,
                       "%s: tiny jobs pass (%s)" % (name, kind))

        bad = copy.deepcopy(refs)
        bad["certify"]["p4@0.1"]["value"] *= 1.02
        tally, _ = run.measure(package, tiny_jobs("certify", bad, workdir),
                               0.0, False, "selftest-corrupt")
        out = run.result(tally, {})
        expect(out["failed"] == 1 and not out["correct"],
               "corrupted reference counts as a failed, incorrect job")

        jobs = tiny_jobs("oracles", refs, workdir)
        jobs.append(workloads.Job("forced exit 2",
                                  ["integrate", "p4", "--epsilon", "-1"],
                                  workloads._check_integral({"value": 1.0},
                                                            0.005)))
        tally, _ = run.measure(package, jobs, 0.0, False, "selftest-exit")
        out = run.result(tally, {})
        expect(out["failed"] == 1 and out["correct"],
               "forced non-zero exit counts as a failed job")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload",
         "scan", "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    expect(done.returncode == 0 and set(last) == {
        "correct", "attempted", "failed", "metrics"}
        and set(last["metrics"]) == set(end_to_end),
        "run.py prints the result as its last line")

    print("selftest: %d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
