"""seacausal benchmark: drives ``seacausal.cli.main`` in-process.

    python3 bench/run.py --workload {certify,em-scan-oracles} --seed N
                         --seconds S --trace {0,1}

(em, scan and oracles, the parts of em-scan-oracles, also run alone.)

One process, one caller, one BLAS thread.  The workload's jobs run in
order as a round; rounds repeat while the next one is expected to end
within S seconds, and at least one round always runs.  Each job's output
is checked against bench/refs.json outside the timed span.

--trace 0 reports the end-to-end metrics:
  wall_s       median over rounds of the round's time, first job start to
               last job end, failed jobs included (checks excluded)
  setup_s      median of SETUP_PROBES fresh processes, each timed from
               its start to the end of set-up: imports, input generation
               and reference loading
  peak_rss_mb  peak resident memory of this process
fail_frac (failed / attempted) can be 0, so it is not a result metric: it
is printed in the summary line, and its parts are the result's "failed"
and "attempted".

--trace 1 runs one round traced and reports the per-layer metrics of
bench/tracer.py.  Spans go to .bench_trace/<workload>-seed<N>.json.

The last line of stdout is the JSON result.  The lines before it give
the environment (package origin, versions, CPU count, load average) and
a summary with fail_frac.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import common
import numpy
import scipy
import workloads

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def setup(workload: str, seed: int):
    """Everything before the first job: imports, inputs, references."""
    package = common.import_seacausal()
    with open(common.REFS_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    workdir = common.WORK_DIR / ("%s-%d-%d" % (workload, seed, os.getpid()))
    jobs = workloads.build(workload, seed, refs, workdir)
    return package, jobs, workdir


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time of fresh interpreter processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            check=True, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def execute(package, job):
    """Run one job through the CLI entry point; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = package.cli.main(job.argv)
    except SystemExit as exc:          # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:           # a raising job is a failed job
        error = "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    return workloads.JobRun(rc, out.getvalue(), err.getvalue(), error, seconds)


def run_round(package, jobs, tally, tracer=None) -> float:
    """Run every job once; return the summed job time."""
    wall = 0.0
    for job in jobs:
        if job.output is not None:
            job.output.parent.mkdir(parents=True, exist_ok=True)
        if tracer is None:
            run = execute(package, job)
        else:                          # trace the job, not its check
            cpu0 = time.process_time()
            tracer.install(package)
            try:
                run = execute(package, job)
            finally:
                tracer.uninstall()
            tracer.counts["process.cpu_s"] += time.process_time() - cpu0
            tracer.counts["cli.rows"] += job.rows(run)
        wall += run.seconds
        for status, message in job.check(run):
            tally[status] += 1
            if status != "ok":
                print("%s: %s: %s" % (status, job.name, message),
                      file=sys.stderr)
        if job.output is not None:
            job.output.unlink(missing_ok=True)
    return wall


def environment(package) -> dict:
    return {"seacausal": package.__file__,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()),
            "threads": {v: os.environ[v] for v in common.THREAD_VARS}}


def measure(package, jobs, seconds: float, trace: bool, label: str):
    """Run the jobs as the benchmark does; return (tally, metrics).

    Metrics are the end-to-end ones untraced (setup_s is left to the
    caller) and the per-layer ones traced."""
    tally = {"ok": 0, "failed": 0, "wrong": 0}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        run_round(package, jobs, tally, tracer)
        tracer.dump(common.TRACE_DIR / ("%s.json" % label),
                    {"label": label, "env": environment(package)})
        return tally, tracer.metrics()
    rounds = []
    began = time.perf_counter()
    while True:
        rounds.append(run_round(package, jobs, tally))
        elapsed = time.perf_counter() - began
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally, {"wall_s": {"value": statistics.median(rounds), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}


def result(tally: dict, metrics: dict) -> dict:
    failed = tally["failed"] + tally["wrong"]
    return {"correct": tally["wrong"] == 0, "attempted": failed + tally["ok"],
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.monotonic())
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    package, jobs, workdir = setup(args.workload, args.seed)
    try:
        tally, metrics = measure(package, jobs, args.seconds, bool(args.trace),
                                 "%s-seed%d" % (args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            common.WORK_DIR.rmdir()
    if not args.trace:
        metrics = {"wall_s": metrics["wall_s"],
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": metrics["peak_rss_mb"]}
    out = result(tally, metrics)

    print("env %s" % json.dumps(environment(package), sort_keys=True))
    summary = ["fail_frac %.4g ratio (%d/%d failed)"
               % (out["failed"] / out["attempted"], out["failed"],
                  out["attempted"])]
    if not args.trace:
        summary += ["%s %.6g %s" % (name, m["value"], m["unit"])
                    for name, m in metrics.items()]
    print("%s seed %d: %s" % (args.workload, args.seed, ", ".join(summary)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
