#!/usr/bin/env python3
"""Summarize a pasta trace: top phases by total time plus thread balance.

Usage: scripts/trace_summary.py TRACE [--top N]

TRACE is a <stem>.trace.json (Chrome trace-event JSON as written by the
bench suites with PASTA_TRACE=spans/full).

Two tables are printed:
  - the top-N phases by cumulative duration (count, total, mean, max),
    which answers "where does the suite spend its time";
  - per-thread busy time over top-level spans only (nested spans would
    double-count), with a max/mean imbalance figure mirroring the
    *.worker_items counters the kernels record.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_spans(path):
    """Yield (name, tid, depth, dur_us) from a Chrome trace."""
    with open(path) as f:
        doc = json.load(f)
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue  # counter/metadata events carry no duration
        args = event.get("args", {})
        yield (event.get("name", "?"), event.get("tid", 0),
               args.get("depth", 0), float(event.get("dur", 0)))


def main():
    parser = argparse.ArgumentParser(
        description="Top-N phase and thread-imbalance report")
    parser.add_argument("trace", help="*.trace.json")
    parser.add_argument("--top", type=int, default=15,
                        help="phases to print (default 15)")
    args = parser.parse_args()

    phases = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, max
    threads = defaultdict(float)                 # tid -> top-level busy us
    total_spans = 0
    for name, tid, depth, dur_us in load_spans(args.trace):
        total_spans += 1
        entry = phases[name]
        entry[0] += 1
        entry[1] += dur_us
        entry[2] = max(entry[2], dur_us)
        if depth == 0:
            threads[tid] += dur_us
    if not total_spans:
        print(f"error: no spans in {args.trace} "
              "(was PASTA_TRACE=spans or full set?)", file=sys.stderr)
        return 1

    width = max(len(n) for n in phases)
    print(f"{total_spans} spans, {len(phases)} distinct phases, "
          f"{len(threads)} recording thread(s)\n")
    print(f"-- top {min(args.top, len(phases))} phases by total time --")
    print(f"{'phase':<{width}} {'count':>8} {'total ms':>12} "
          f"{'mean us':>12} {'max us':>12}")
    ranked = sorted(phases.items(), key=lambda kv: -kv[1][1])
    for name, (count, total, peak) in ranked[:args.top]:
        print(f"{name:<{width}} {count:>8} {total / 1e3:>12.3f} "
              f"{total / count:>12.2f} {peak:>12.2f}")
    hidden = len(ranked) - args.top
    if hidden > 0:
        rest = sum(total for _, (_, total, _) in ranked[args.top:])
        print(f"(+{hidden} more phases, {rest / 1e3:.3f} ms)")

    print("\n-- per-thread busy time (top-level spans) --")
    busy = sorted(threads.items())
    for tid, us in busy:
        print(f"tid {tid:<4} {us / 1e3:>12.3f} ms")
    values = [us for _, us in busy if us > 0]
    if len(values) > 1:
        mean = sum(values) / len(values)
        print(f"imbalance (max/mean): {max(values) / mean:.2f}")

    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
