"""One measured child process of the benchmark (started by run.py).

Sets up the workload (import strathom from the checkout's ``src``,
generate the seeded inputs), then runs its job set in whole passes, one
job at a time in a closed loop, for up to ``--seconds``; at least one pass
always runs.  Every job is checked against its expected
groups; a mismatch, an exception or a job over JOB_TIMEOUT_S counts as
failed.  Only the job itself is timed: reading its result and checking it
happen after the clock stops.  The last line of standard output is one JSON record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
JOB_TIMEOUT_S = 120


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"over {JOB_TIMEOUT_S} s")


def run_job(run, tracer, run_id):
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        if tracer is None:
            return run()
        tracer.run_id = run_id
        return tracer.call("job", run)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure(jobs, seconds: float, tracer, check):
    """Closed loop over passes of the job set: one pass, then another while
    it is expected (at the median pass time so far) to end within
    ``seconds``.  Returns per-pass times, attempted and failed counts,
    failure messages and the first pass's results."""
    pass_s, failures, first = [], [], {}
    attempted = 0
    start = time.perf_counter()
    while not pass_s or (time.perf_counter() - start
                         + statistics.median(pass_s) <= seconds):
        total = 0.0
        for label, run, read, want in jobs:
            attempted += 1
            t0 = time.perf_counter()
            try:
                try:
                    raw = run_job(run, tracer, (len(pass_s), label))
                finally:
                    total += time.perf_counter() - t0
                observed = read(raw)
                bad = check(observed, want)
            except Exception as e:  # any raise is a failed job, not a crash
                observed, bad = None, [f"{type(e).__name__}: {e}"]
            if bad:
                failures.append(f"pass {len(pass_s)} {label}: {'; '.join(bad)}")
            if not pass_s:
                first[label] = observed
        pass_s.append(total)
    return pass_s, attempted, failures, first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "strathom" / "__init__.py").is_file():
        print(f"error: no strathom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        signal.signal(signal.SIGALRM, _alarm)
        pass_s, attempted, failures, first = measure(jobs, args.seconds, tracer,
                                                   workloads.check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = hashlib.sha256(json.dumps(sorted(first.items()), sort_keys=True,
                                       default=list).encode()).hexdigest()
    record = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest,
        "layers": tracer.metrics() if tracer else None,
    }
    if tracer:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent", "run_id", "attrs"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
