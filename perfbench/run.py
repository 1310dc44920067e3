"""strathom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in fresh
child processes (perfbench/worker.py), one at a time, with
PYTHONHASHSEED pinned: one child that sets up and runs the workload's
jobs in a closed loop, in whole passes, for up to S seconds (at least one
pass).  Untraced runs add SETUP_PROBES children that only set up, half of
them before the measuring child and half after, so that set-up is sampled
over the whole run.  With --trace 0
the run reports the end-to-end metrics:

    wall_s       median time of one pass of the job set, building included
    setup_s      median over the children of process start -> first job
    peak_rss_mb  ru_maxrss of the measuring child
    failed_ratio failed jobs / attempted jobs (printed; must be 0)

With --trace 1 the measuring child wraps strathom's layer functions and
the run reports the per-layer metrics instead (see tracing.py).  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every job gave its expected groups.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 10
HASH_SEED = "0"
RUN_LIMIT_S = 170


def spawn(args, deadline: float, setup_only: bool):
    """One worker child; returns (exit code or None if killed, record, stderr)."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        return None, None, f"killed after the run limit of {RUN_LIMIT_S} s"
    finally:
        if proc.poll() is None:  # over the run limit, or this process is ending
            proc.kill()
            proc.communicate()
            shutil.rmtree(HERE / ".work" / f"{args.workload}-{proc.pid}",
                          ignore_errors=True)
    lines = out.strip().splitlines()
    record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, record, err


def environment() -> str:
    with open("/proc/loadavg") as fh:
        load = " ".join(fh.read().split()[:3])
    return (f"python {platform.python_version()} | nproc {os.cpu_count()} | "
            f"loadavg {load} | PYTHONHASHSEED={HASH_SEED}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # stop the child too
    if not (SRC / "strathom" / "__init__.py").is_file():
        print(f"error: no strathom package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    print(f"workload {args.workload} | seed {args.seed} | trace {args.trace} | "
          + environment())
    probes = 0 if args.trace else SETUP_PROBES  # a traced run reports no setup_s
    setups, record = [], None
    for measuring in [False] * (probes // 2) + [True] + [False] * (probes - probes // 2):
        code, rec, err = spawn(args, deadline, setup_only=not measuring)
        if rec is None:
            sys.stderr.write(err)
            if code is None and measuring:  # a hung job: report the run as failed
                print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                                  "metrics": {}}))
            return code or 1
        setups.append(rec["setup_s"])
        if measuring:
            record = rec

    attempted, failed = record["attempted"], record["failed"]
    wall = statistics.median(record["pass_s"])
    if args.trace:
        metrics = dict(record["layers"], **{"trace.wall_s": (wall, "s")})
    else:
        metrics = {"wall_s": (wall, "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (record["rss_mb"], "MB")}
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"passes {len(record['pass_s'])} | jobs attempted {attempted} | "
          f"failed {failed} | groups digest {record['digest'][:16]}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"{name:<40} {shown} {unit}")
    print(f"{'failed_ratio':<40} {failed / attempted:>14.6f} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
