"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 perfbench/spread.py --seeds 1-10 [--traced-seed N]
                                [--out perfbench/baseline/BENCH_<tag>.json]

Run from the root of a checkout.  Runs ``perfbench/run.py`` with the
workloads and run_seconds of BENCHMARK.json, once per (seed, workload),
cycling through the workloads for each seed so that a slow drift of the
machine's speed spreads over all of them, then one traced run per
workload.  For each end-to-end metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, and the
tracing overhead (traced wall_s - untraced median wall_s).  Exits non-zero
if a run fails or a spread exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stdout}{proc.stderr}")
    result["run_s"] = time.monotonic() - t0
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--traced-seed", type=int, default=None,
                    help="seed of one traced run per workload (default: none)")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    with open("/proc/loadavg") as fh:
        load_start = fh.read().split()[:3]

    results = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            r = run(w, seed, seconds, 0)
            results[w].append(r)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4f}" for n, m in r["metrics"].items())
                + f" ({r['run_s']:.1f} s)", flush=True)

    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_at_start": load_start, "run_seconds": seconds,
              "seeds": args.seeds, "hash_seed": "0", "workloads": {}}
    ok = True
    for w in workloads:
        rs = results[w]
        entry = {"attempted": sum(r["attempted"] for r in rs),
                 "failed": sum(r["failed"] for r in rs),
                 "run_s": statistics.median(r["run_s"] for r in rs),
                 "end_to_end": {}}
        entry["failed_ratio"] = entry["failed"] / entry["attempted"]
        for name in bounds:
            s = summary([r["metrics"][name]["value"] for r in rs])
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            flag = ""
            if s["spread"] > bounds[name]:
                ok, flag = False, "  OVER BOUND"
            elif s["spread"] > bounds[name] / 3:
                flag = "  over a third of the bound"
            print(f"{w:<22} {name:<12} median {s['median']:10.4f}  "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        if args.traced_seed is not None:
            t = run(w, args.traced_seed, seconds, 1)
            entry["traced_seed"] = args.traced_seed
            entry["per_layer"] = {n: m["value"] for n, m in t["metrics"].items()}
            entry["trace_overhead_s"] = (t["metrics"]["trace.wall_s"]["value"]
                                         - entry["end_to_end"]["wall_s"]["median"])
            print(f"{w:<22} tracing overhead {entry['trace_overhead_s']:.4f} s")
        report["workloads"][w] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
