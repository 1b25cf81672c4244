#!/usr/bin/env python3
"""Compare two bench profiles and flag throughput regressions.

Usage: scripts/bench_compare.py BASELINE CANDIDATE [--threshold PCT]

Inputs may be google-benchmark JSON files (BENCH_kernels.json as written
by scripts/bench_smoke.sh) or pasta suite CSVs (written by the figure
binaries under PASTA_CSV_DIR); the format is chosen by file extension.
Benchmarks are matched by name (JSON) or by tensor/kernel/format (CSV,
plus the variant column when present — so a run forced to
PASTA_SIMD=scalar never gates against an avx2/avx512 run as a
"regression", it simply shows up as only-in-one-side); for each pair
the relative change in throughput (items_per_second or gflops) is
reported.
Entries with missing or malformed names/rates are skipped rather than
crashing, so profiles from newer or older binaries with extra keys
still compare.

CSV inputs that carry the roofline_pct column (PASTA_TRACE counters
armed) are additionally gated on roofline efficiency: a trial whose
"% of roofline" dropped by more than --threshold percent (relative) is
a regression even if raw GFLOPS merely shifted with the machine.

CSV inputs that carry the mem_peak column (governor-metered peak bytes
per trial, PASTA_MEM_BYTES plumbing) are compared too, but warn-only:
a trial whose peak resident working set GREW by more than --threshold
percent prints a loud warning without failing the gate, since peak
memory legitimately moves with partition counts and thread counts.

Either side may also be a PASTA_METRICS heartbeat (*.jsonl, as
written by the live metrics exporter): the LAST parseable snapshot's
histograms are decoded with the same log-linear bucket math as
obs/metrics.hpp and their p99s compared.
Histogram-derived p99s are a real gate when both sides carry them —
the histogram pools every recorded value, so a grown p99 there is
signal, not noise.

The script exits non-zero when any benchmark regressed by more than
--threshold percent (default 10), making it usable as a CI gate:

    scripts/bench_smoke.sh build-release baseline.json
    ... apply change ...
    scripts/bench_smoke.sh build-release candidate.json
    scripts/bench_compare.py baseline.json candidate.json

Benchmarks present in only one file are listed but never fail the
check, and aggregate entries (mean/median/stddev rows emitted under
--benchmark_repetitions > 1) are skipped.
"""

import argparse
import csv
import json
import math
import sys


def parse_rate(value):
    """float(value) or None for missing/malformed rates."""
    if value is None:
        return None
    try:
        rate = float(value)
    except (TypeError, ValueError):
        return None
    return rate if rate > 0 else None


def load_json_throughputs(path):
    """Map benchmark name -> items_per_second for one JSON profile."""
    with open(path) as f:
        doc = json.load(f)
    build_type = doc.get("context", {}).get("library_build_type", "")
    if build_type == "debug":
        print(f"warning: {path} used a debug google-benchmark library; "
              "timings may be noisy", file=sys.stderr)
    rates = {}
    for entry in doc.get("benchmarks", []):
        # Skip mean/median/stddev aggregates; compare raw iterations.
        if entry.get("run_type") == "aggregate":
            continue
        name = entry.get("name")
        rate = parse_rate(entry.get("items_per_second"))
        if name and rate:
            rates[name] = rate
    return rates, {}, {}, {}


# Log-linear histogram decoding, mirroring obs/metrics.hpp: 32
# sub-buckets per octave, values below 64 exact.
_SUB_BITS = 5


def _bucket_lower(idx):
    if idx < 64:
        return idx
    hi = idx >> 5
    return (idx - (hi - 1) * 32) << (hi + 4 - _SUB_BITS)


def _bucket_width(idx):
    return 1 if idx < 64 else 1 << ((idx >> 5) + 4 - _SUB_BITS)


def _hist_percentile(hist, q):
    """Same rank convention as HistSample::percentile."""
    count = hist.get("count", 0)
    if not count:
        return None
    rank = max(1, min(count, math.ceil(q * count)))
    cum = 0
    for idx, n in hist.get("buckets", []):
        cum += n
        if cum >= rank:
            width = _bucket_width(idx)
            lower = _bucket_lower(idx)
            return float(lower) if width == 1 else lower + width / 2.0
    return float(hist.get("max", 0))


def load_metrics_histograms(path):
    """Histogram p99s (in the histograms' own unit, typically µs) from
    the LAST parseable snapshot of a PASTA_METRICS heartbeat — same
    torn-tail tolerance as the C++ loader."""
    last = None
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
                last = snap
    hist_p99 = {}
    if last:
        for name, hist in last.get("hists", {}).items():
            p99 = _hist_percentile(hist, 0.99)
            if p99 is not None:  # a p99 of 0 is a value, not a gap
                hist_p99[name] = p99
    return {}, {}, {}, hist_p99


def load_csv_throughputs(path):
    """Map tensor/kernel/format -> gflops (plus roofline_pct and
    mem_peak when the CSV carries those columns) for one suite CSV."""
    rates = {}
    roofline = {}
    mem_peak = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            key = "/".join(row.get(col) or "?"
                           for col in ("tensor", "kernel", "format"))
            if key == "?/?/?":
                continue
            # Key per variant (e.g. atomic_avx2 vs atomic_scalar): rows
            # produced under different kernel/SIMD dispatch decisions
            # are different benchmarks, not regressions of one another.
            if row.get("variant"):
                key += "#" + row["variant"]
            rate = parse_rate(row.get("gflops"))
            if rate:
                rates[key] = rate
            pct = parse_rate(row.get("roofline_pct"))
            if pct:
                roofline[key] = pct
            peak = parse_rate(row.get("mem_peak"))
            if peak:
                mem_peak[key] = peak
    return rates, roofline, mem_peak, {}


def load_throughputs(path):
    """Loads one profile, parsed by file extension."""
    if path.endswith(".csv"):
        return load_csv_throughputs(path)
    if path.endswith(".jsonl"):
        return load_metrics_histograms(path)
    return load_json_throughputs(path)


def percent_change(old, new):
    """Relative change in percent; from a zero base it is 0 when the
    value stays zero and infinite otherwise."""
    if old == 0:
        return 0.0 if new == 0 else math.copysign(math.inf, new)
    return (new - old) / old * 100.0


def compare(base, cand, threshold, metric, regressions):
    """Print the diff of one metric map pair, appending regressions."""
    width = max((len(n) for n in base), default=0)
    for name in sorted(base):
        if name not in cand:
            print(f"{name:<{width}}  only in baseline")
            continue
        old, new = base[name], cand[name]
        change = percent_change(old, new)
        marker = ""
        if change < -threshold:
            marker = "  <-- REGRESSION"
            regressions.append((f"{name} [{metric}]", change))
        print(f"{name:<{width}}  {old:14.3e} -> {new:14.3e}  "
              f"{change:+7.2f}%{marker}")
    for name in sorted(set(cand) - set(base)):
        print(f"{name:<{width}}  only in candidate")


def compare_grew_gated(base, cand, threshold, metric, regressions):
    """Gated diff for a lower-is-better metric: growth beyond the
    threshold IS a regression (used for histogram-derived p99s, which
    pool every recorded value and so are stable enough to gate on)."""
    width = max((len(n) for n in base), default=0)
    for name in sorted(base):
        if name not in cand:
            print(f"{name:<{width}}  only in baseline")
            continue
        old, new = base[name], cand[name]
        change = percent_change(old, new)
        marker = ""
        if change > threshold:
            marker = "  <-- REGRESSION"
            regressions.append((f"{name} [{metric}]", change))
        print(f"{name:<{width}}  {old:14.3e} -> {new:14.3e}  "
              f"{change:+7.2f}%{marker}")
    for name in sorted(set(cand) - set(base)):
        print(f"{name:<{width}}  only in candidate")


def compare_grew_warn_only(base, cand, threshold, title, what):
    """Warn-only diff for a lower-is-better metric (peak bytes): growth
    beyond the threshold is loud but never fails the gate, since peak
    memory legitimately moves with partition and thread counts."""
    print(f"\n-- {title} (warn-only) --")
    width = max((len(n) for n in base), default=0)
    warnings = []
    for name in sorted(base):
        if name not in cand:
            continue
        old, new = base[name], cand[name]
        change = percent_change(old, new)
        marker = ""
        if change > threshold:
            marker = "  <-- GREW"
            warnings.append((name, change))
        print(f"{name:<{width}}  {old:14.3e} -> {new:14.3e}  "
              f"{change:+7.2f}%{marker}")
    for name, change in warnings:
        print(f"warning: {name} {what} grew {change:+.2f}% "
              f"(> {threshold:.1f}%); not failing the gate",
              file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(
        description="Diff two bench profiles (JSON or suite CSV)")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="max tolerated relative drop, percent "
                             "(default 10)")
    args = parser.parse_args()

    base, base_roof, base_mem, base_hist = load_throughputs(args.baseline)
    cand, cand_roof, cand_mem, cand_hist = load_throughputs(args.candidate)
    if not base and not base_hist:
        print(f"error: no throughput or histogram entries in "
              f"{args.baseline}", file=sys.stderr)
        return 2

    regressions = []
    if base:
        compare(base, cand, args.threshold, "throughput", regressions)
    if base_roof and cand_roof:
        print("\n-- roofline efficiency (% of roofline) --")
        compare(base_roof, cand_roof, args.threshold, "roofline_pct",
                regressions)
    if base_mem and cand_mem:
        compare_grew_warn_only(base_mem, cand_mem, args.threshold,
                               "peak memory (governor-metered bytes)",
                               "peak memory")
    if base_hist and cand_hist:
        print("\n-- histogram-derived p99 (gated) --")
        compare_grew_gated(base_hist, cand_hist, args.threshold,
                           "hist_p99", regressions)

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.1f}%:", file=sys.stderr)
        for name, change in regressions:
            print(f"  {name}: {change:+.2f}%", file=sys.stderr)
        return 1
    print(f"\nno regression beyond {args.threshold:.1f}% "
          f"({len(base)} baseline benchmarks, {len(base_hist)} "
          f"histograms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
