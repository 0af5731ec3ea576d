#!/usr/bin/env python3
"""Benchmark regression gate: compare a BENCH_*.json against a baseline.

Replaces the fixed speedup floors as the trend check (ROADMAP item): CI
downloads the previous run's uploaded benchmark artifact and warns when
any scenario regressed by more than the threshold relative to it.

A missing baseline is *informational*, not an error: a bench that has
never run before (e.g. a freshly added BENCH_campaign.json) has nothing
to regress against, so the gate prints the current per-metric table and
exits clean; the artifact this run uploads becomes the next run's
baseline.

Comparison rules, per scenario:
  * metrics named "speedup" (higher is better): warn when
        current < baseline * (1 - threshold)
  * metrics ending in "_wall_ms" or "_us_p50" (host time, lower is
    better): warn when
        current > baseline * (1 + threshold)
  * metrics ending in "_mb_per_s" (throughput, higher is better): warn
    when
        current < baseline * (1 - threshold)
  * notes named "bit_identical" / "bytes_conserved" /
    "zero_reexecutions" / "all_from_disk" / "journal_nonempty": warn on
    any value that is not an affirmative "yes" (these are correctness
    canaries the benches themselves enforce; the gate just surfaces
    them in the diff).

A per-metric delta table is printed for every scenario so the run log
shows the full trajectory, not only the violations.

Wall-clock numbers from shared CI runners are noisy, so regressions are
*warnings* (GitHub "::warning::" annotations), not failures — the gate
exits non-zero only on malformed input.  Scenarios present on one side
only are reported and skipped.

Usage:
    bench_regression.py CURRENT.json [BASELINE.json] [--threshold 0.20]
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"bench_regression: cannot read {path}: {exc}")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict):
        sys.exit(f"bench_regression: {path} has no 'scenarios' object")
    return doc.get("bench", "?"), scenarios


def warn(message):
    print(f"::warning::{message}")


def fmt(value):
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def print_metric_table(name, cur, base=None):
    """Per-metric delta table for one scenario (base may be absent)."""
    rows = []
    for key, cur_val in cur.items():
        base_val = base.get(key) if base else None
        delta = ""
        if (
            isinstance(cur_val, (int, float))
            and isinstance(base_val, (int, float))
            and not isinstance(cur_val, bool)
            and base_val
        ):
            delta = f"{(cur_val / base_val - 1) * 100:+.1f}%"
        rows.append((key, fmt(cur_val),
                     fmt(base_val) if base_val is not None else "-", delta))
    width = max((len(r[0]) for r in rows), default=8)
    print(f"  {name}:")
    header = f"    {'metric':<{width}}  {'current':>12}  {'baseline':>12}  delta"
    print(header)
    for key, cur_s, base_s, delta in rows:
        print(f"    {key:<{width}}  {cur_s:>12}  {base_s:>12}  {delta}")


def check_canaries(name, cur):
    regressions = 0
    for key, cur_val in cur.items():
        if key in (
            "bit_identical",
            "bytes_conserved",
            "zero_reexecutions",
            "all_from_disk",
            "journal_nonempty",
        ):
            if str(cur_val).lower() != "yes":
                warn(f"{name}: {key} = {cur_val!r} (expected 'yes')")
                regressions += 1
    return regressions


def compare_scenario(name, cur, base, threshold):
    regressions = check_canaries(name, cur)
    for key, cur_val in cur.items():
        if key in (
            "bit_identical",
            "bytes_conserved",
            "zero_reexecutions",
            "all_from_disk",
            "journal_nonempty",
        ):
            continue
        if key not in base:
            continue
        base_val = base[key]
        if not isinstance(cur_val, (int, float)) or not isinstance(
            base_val, (int, float)
        ):
            continue
        if key == "speedup" or key.endswith("_speedup"):
            if base_val > 0 and cur_val < base_val * (1.0 - threshold):
                warn(
                    f"{name}: speedup {cur_val:.2f}x is "
                    f"{(1 - cur_val / base_val) * 100:.0f}% below the "
                    f"previous run's {base_val:.2f}x"
                )
                regressions += 1
        elif key.endswith("_wall_ms") or key.endswith("_us_p50"):
            unit = "ms" if key.endswith("_wall_ms") else "us"
            if base_val > 0 and cur_val > base_val * (1.0 + threshold):
                warn(
                    f"{name}: {key} {cur_val:.1f} {unit} is "
                    f"{(cur_val / base_val - 1) * 100:.0f}% above the "
                    f"previous run's {base_val:.1f} {unit}"
                )
                regressions += 1
        elif key.endswith("_mb_per_s"):
            if base_val > 0 and cur_val < base_val * (1.0 - threshold):
                warn(
                    f"{name}: {key} {cur_val:.0f} MB/s is "
                    f"{(1 - cur_val / base_val) * 100:.0f}% below the "
                    f"previous run's {base_val:.0f} MB/s"
                )
                regressions += 1
    return regressions


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.20)
    args = parser.parse_args()

    if not os.path.exists(args.current):
        # The bench artifact is entirely absent (step skipped, bench not
        # run on this configuration).  That is a pipeline-shape fact, not
        # a performance regression: report it informationally and exit
        # clean — malformed JSON, by contrast, still fails the gate.
        print(
            f"bench_regression: current artifact {args.current!r} does "
            "not exist; nothing to gate — informational run"
        )
        if args.baseline is not None and os.path.exists(args.baseline):
            base_name, baseline = load(args.baseline)
            print(
                f"bench_regression: previous run of {base_name!r} for "
                "reference:"
            )
            for name, scenario in baseline.items():
                print_metric_table(name, scenario)
        return 0

    cur_name, current = load(args.current)

    if args.baseline is None or not os.path.exists(args.baseline):
        # First run of a new bench: nothing to regress against.  The
        # correctness canaries still apply; metrics print informationally.
        missing = args.baseline or "(none given)"
        print(
            f"bench_regression: no baseline for {cur_name!r} "
            f"({missing}); informational run — current metrics:"
        )
        regressions = 0
        for name, scenario in current.items():
            regressions += check_canaries(name, scenario)
            print_metric_table(name, scenario)
        if regressions:
            print(
                f"bench_regression: {regressions} correctness canary "
                "warning(s) — see above"
            )
        return 0

    base_name, baseline = load(args.baseline)
    if cur_name != base_name:
        warn(
            f"comparing different benches: {cur_name!r} vs {base_name!r};"
            " artifact names probably drifted"
        )

    regressions = 0
    print(f"bench_regression: {cur_name} vs previous run:")
    for name, scenario in current.items():
        if name not in baseline:
            print(f"bench_regression: new scenario {name!r} (no baseline)")
            regressions += check_canaries(name, scenario)
            print_metric_table(name, scenario)
            continue
        print_metric_table(name, scenario, baseline[name])
        regressions += compare_scenario(
            name, scenario, baseline[name], args.threshold
        )
    for name in baseline:
        if name not in current:
            warn(f"scenario {name!r} disappeared from the benchmark")
            regressions += 1

    if regressions:
        print(
            f"bench_regression: {regressions} regression(s) beyond "
            f"{args.threshold:.0%} — see warnings above"
        )
    else:
        print(
            f"bench_regression: {cur_name} within {args.threshold:.0%} "
            "of the previous run"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
