#!/usr/bin/env python3
"""Summarize a pasta trace: top phases by total time plus thread balance.

Usage: scripts/trace_summary.py TRACE [--top N]

TRACE is either a <stem>.trace.json (Chrome trace-event JSON as written
by the bench suites with PASTA_TRACE=spans/full) or a <stem>.spans.jsonl
(one span object per line); the format is chosen by file extension.
The leading pastaMeta header line of spans.jsonl files is skipped.

Two tables are printed:
  - the top-N phases by cumulative duration (count, total, mean, max),
    which answers "where does the suite spend its time";
  - per-thread busy time over top-level spans only (nested spans would
    double-count), with a max/mean imbalance figure mirroring the
    *.worker_items counters the kernels record.

Per-job span instances ("serve.wait#<id>" / "serve.exec#<id>" as
recorded by the serving scheduler) are folded into their base phase for
the tables above — thousands of one-shot names would drown the report.
When such spans are present a third, serving-specific table is printed:
the paired queue-wait vs execute time per job, the aggregate wait share
(time jobs sat queued versus running — the scheduler-saturation
figure), and the top-N slowest jobs by end-to-end (wait + exec) time.
"""

import argparse
import json
import re
import sys
from collections import defaultdict

# Per-instance span names: "<phase>#<job id>".
_INSTANCE = re.compile(r"^(.*)#(\d+)$")


def load_spans(path):
    """Yield (name, tid, depth, dur_us) from either trace format."""
    if path.endswith(".jsonl"):
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                span = json.loads(line)
                if "pastaMeta" in span:
                    continue  # writer-identity header, not a span
                yield (span.get("name", "?"), span.get("tid", 0),
                       span.get("depth", 0), float(span.get("dur_us", 0)))
        return
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
    parser.add_argument("trace", help="*.trace.json or *.spans.jsonl")
    parser.add_argument("--top", type=int, default=15,
                        help="phases to print (default 15)")
    args = parser.parse_args()

    phases = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, max
    threads = defaultdict(float)                 # tid -> top-level busy us
    jobs = defaultdict(lambda: defaultdict(float))  # id -> stage -> us
    total_spans = 0
    for name, tid, depth, dur_us in load_spans(args.trace):
        total_spans += 1
        # Fold "serve.wait#123" into "serve.wait" for the phase table,
        # and keep the per-job pairing for the serving section.
        m = _INSTANCE.match(name)
        if m:
            name = m.group(1)
            stage = name.rsplit(".", 1)[-1]
            if name.startswith("serve.") and stage in ("wait", "exec"):
                jobs[int(m.group(2))][stage] += dur_us
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

    if jobs:
        report_serve_jobs(jobs, args.top)
    return 0


def report_serve_jobs(jobs, top):
    """Queue-wait vs execute breakdown over paired serve.* job spans."""
    wait_total = sum(j["wait"] for j in jobs.values())
    exec_total = sum(j["exec"] for j in jobs.values())
    span_total = wait_total + exec_total
    print(f"\n-- serving: {len(jobs)} jobs "
          f"(queue-wait vs execute) --")
    print(f"total wait {wait_total / 1e3:>12.3f} ms  "
          f"({wait_total / span_total * 100.0 if span_total else 0:.1f}% "
          "of job time)")
    print(f"total exec {exec_total / 1e3:>12.3f} ms")
    ranked = sorted(jobs.items(),
                    key=lambda kv: -(kv[1]["wait"] + kv[1]["exec"]))
    n = min(top, len(ranked))
    print(f"\n-- top {n} slowest jobs by end-to-end time --")
    print(f"{'job':>8} {'wait us':>12} {'exec us':>12} "
          f"{'total us':>12} {'wait share':>11}")
    for job_id, stages in ranked[:n]:
        wait, execute = stages["wait"], stages["exec"]
        total = wait + execute
        share = wait / total * 100.0 if total else 0.0
        print(f"{job_id:>8} {wait:>12.2f} {execute:>12.2f} "
              f"{total:>12.2f} {share:>10.1f}%")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
