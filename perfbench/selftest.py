#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Run from the repository root.  For each workload it checks that

  * an untouched run passes every output check (failed == 0);
  * a run with --flip-result 0, which flips one bit in the first
    delivered result, is caught: failed > 0 and correct is false, and
    so is a flip in result 30, which in the in-process workloads only
    the check that a slot's repetitions repeat bit for bit can catch;
  * two traced runs of one seed report identical deterministic work
    counts, and the Chrome trace file each writes is valid JSON.

Exits 1 on the first broken expectation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_campaigns", "contended_campaigns", "knob_sweep",
             "repeat_fleet"]
DETERMINISTIC = [
    "sim.stretches_per_run", "process.allocs_per_run",
    "profiler.lois_per_campaign", "worker_fleet.workers_spawned",
    "campaign_cache.memory_hits", "campaign_cache.disk_hits",
    "campaign_cache.misses",
]


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    for w in args.workload or WORKLOADS:
        clean = run(w, args.seed, 0)
        expect(clean["correct"] and clean["failed"] == 0,
               f"{w}: untouched run passes its output checks")
        for k in ("0", "30"):
            flipped = run(w, args.seed, 0, ["--flip-result", k])
            expect(not flipped["correct"] and flipped["failed"] > 0,
                   f"{w}: one flipped bit in result {k} makes failed_frac "
                   f"non-zero ({flipped['failed']} of "
                   f"{flipped['attempted']})")
        first = run(w, args.seed, 1)
        second = run(w, args.seed, 1)
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            expect(a == b, f"{w}: {name} repeats exactly ({a})")
        path = os.path.join(".bench_out", f"trace-{w}-{args.seed}.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        expect(len(events) > 0 and all(e["ph"] == "X" for e in events),
               f"{w}: {path} holds {len(events)} complete spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
