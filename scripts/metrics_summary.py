#!/usr/bin/env python3
"""Render a pasta metrics heartbeat (PASTA_METRICS JSONL) for humans.

Usage: scripts/metrics_summary.py METRICS.jsonl [--tail N] [--top N]

METRICS.jsonl is a heartbeat written by the live metrics exporter (a
bench run's PASTA_METRICS file).  Each line is one snapshot
({"ts":..,"seq":..,"source":..,"counters":{},"gauges":{},"hists":{}});
torn final lines from a killed writer are skipped, matching the C++
loader's behavior.

Printed sections:
  - heartbeat tail: the last N snapshots with their inter-arrival gaps
    and the per-interval rate of the busiest counters — "is the run
    alive and how fast is it moving";
  - the newest snapshot's counters and gauges;
  - histogram percentiles (p50/p90/p95/p99/max) decoded from the
    log-linear buckets, matching obs/metrics.hpp's bucket math
    (32 sub-buckets per octave, values < 64 exact).
"""

import argparse
import json
import math
import sys

SUB_BITS = 5
HIST_BUCKETS = 1920


def bucket_lower(idx):
    """Inclusive lower edge of bucket idx (mirrors obs/metrics.hpp)."""
    if idx < 64:
        return idx
    hi = idx >> 5
    b = hi + 4
    m = idx - (hi - 1) * 32
    return m << (b - SUB_BITS)


def bucket_width(idx):
    if idx < 64:
        return 1
    return 1 << ((idx >> 5) + 4 - SUB_BITS)


def hist_percentile(hist, q):
    """Same rank convention as HistSample::percentile."""
    count = hist.get("count", 0)
    if not count:
        return 0.0
    rank = max(1, min(count, math.ceil(q * count)))
    cum = 0
    for idx, n in hist.get("buckets", []):
        cum += n
        if cum >= rank:
            w = bucket_width(idx)
            lo = bucket_lower(idx)
            return float(lo) if w == 1 else lo + w / 2.0
    return float(hist.get("max", 0))


def load_snapshots(path):
    """All parseable snapshots, in file order (torn lines skipped)."""
    snaps = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                snap = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a killed writer
            if isinstance(snap, dict) and "ts" in snap:
                snaps.append(snap)
    return snaps


def fmt_value(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:,.3f}"
    return f"{int(v):,}"


def report_tail(snaps, tail):
    last = snaps[-tail:]
    print(f"-- heartbeat tail (last {len(last)} of {len(snaps)} "
          "snapshots) --")
    # Busiest counters by delta across the tail window.
    first_c = last[0].get("counters", {})
    last_c = last[-1].get("counters", {})
    deltas = {k: last_c.get(k, 0) - first_c.get(k, 0) for k in last_c}
    busiest = [k for k, _ in sorted(deltas.items(),
                                    key=lambda kv: -abs(kv[1]))[:3]]
    header = f"{'seq':>6} {'ts':>14} {'gap s':>8}"
    for name in busiest:
        header += f" {name[:18]:>18}"
    print(header)
    prev_ts = None
    for snap in last:
        ts = snap.get("ts", 0.0)
        gap = f"{ts - prev_ts:8.2f}" if prev_ts is not None else "       -"
        row = f"{snap.get('seq', 0):>6} {ts:>14.2f} {gap}"
        for name in busiest:
            row += f" {snap.get('counters', {}).get(name, 0):>18,}"
        print(row)
        prev_ts = ts


def report_latest(snap, top):
    source = snap.get("source", "?")
    print(f"\n-- newest snapshot (source={source!r}, "
          f"seq={snap.get('seq', 0)}) --")
    counters = snap.get("counters", {})
    if counters:
        print("counters:")
        ranked = sorted(counters.items(), key=lambda kv: -kv[1])
        width = max(len(k) for k, _ in ranked)
        for name, v in ranked[:top]:
            print(f"  {name:<{width}} {fmt_value(v):>16}")
        if len(ranked) > top:
            print(f"  (+{len(ranked) - top} more)")
    gauges = snap.get("gauges", {})
    if gauges:
        print("gauges:")
        width = max(len(k) for k in gauges)
        for name in sorted(gauges):
            print(f"  {name:<{width}} {fmt_value(gauges[name]):>16}")
    hists = snap.get("hists", {})
    live = {k: h for k, h in hists.items() if h.get("count")}
    if live:
        print("histograms:")
        width = max(len(k) for k in live)
        print(f"  {'name':<{width}} {'count':>10} {'mean':>12} "
              f"{'p50':>12} {'p90':>12} {'p95':>12} {'p99':>12} "
              f"{'max':>12}")
        for name in sorted(live):
            h = live[name]
            count = h["count"]
            mean = h.get("sum", 0) / count
            cols = " ".join(f"{hist_percentile(h, q):>12,.1f}"
                            for q in (0.50, 0.90, 0.95, 0.99))
            print(f"  {name:<{width}} {count:>10,} {mean:>12,.1f} "
                  f"{cols} {h.get('max', 0):>12,}")


def main():
    parser = argparse.ArgumentParser(
        description="Heartbeat tail + latest-snapshot metrics report")
    parser.add_argument("metrics", help="PASTA_METRICS JSONL file")
    parser.add_argument("--tail", type=int, default=10,
                        help="heartbeat lines to show (default 10)")
    parser.add_argument("--top", type=int, default=20,
                        help="counters to show (default 20)")
    args = parser.parse_args()

    snaps = load_snapshots(args.metrics)
    if not snaps:
        print(f"error: no parseable snapshots in {args.metrics} "
              "(was PASTA_METRICS armed?)", file=sys.stderr)
        return 1
    report_tail(snaps, max(1, args.tail))
    report_latest(snaps[-1], max(1, args.top))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
