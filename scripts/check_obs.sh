#!/usr/bin/env bash
# Smoke-checks the instrumentation layer end to end: runs one small CPU
# figure and one simulated-GPU figure with PASTA_TRACE=full against a
# throwaway cache, then validates everything the obs subsystem promised
# to emit:
#   - <stem>.trace.json is valid JSON in Chrome trace-event form
#     (traceEvents array of "ph":"X" complete events) with a pastaMeta
#     block (pid, monoToEpochUs, spansDropped)
#   - the suite CSV carries the obs columns (variant, obs_flops,
#     obs_bytes, obs_ai, roofline_pct) with nonzero counter totals
#   - the run journal carries obs_flops/obs_bytes per trial
#   - the CPU figure's PASTA_METRICS heartbeat (hb.jsonl, every
#     200 ms) parses line by line, its seq is strictly
#     increasing, no gap between heartbeats exceeds 3x the interval,
#     and the last snapshot's trial.ok/trial.failed counters equal the
#     figure journal's ok/failed line counts plus its context-build
#     trials (one per tensor)
#
# Pass a sanitizer build dir (see scripts/check_sanitizers.sh) to run
# the same checks under ASan/UBSan; the script only needs the bench
# binaries to exist in ${BUILD_DIR}.
#
# Usage: scripts/check_obs.sh [build-dir]
#   build-dir  defaults to build
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
for target in bench_fig4_cpu_bluesky bench_fig6_gpu_p100; do
    if [[ ! -x "${BUILD_DIR}/bench/${target}" ]]; then
        cmake -B "${BUILD_DIR}" -S .
        cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${target}"
    fi
done

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT

PASTA_TRACE=full \
PASTA_CACHE="${WORK_DIR}/cache" \
PASTA_CSV_DIR="${WORK_DIR}" \
PASTA_TRACE_DIR="${WORK_DIR}" \
PASTA_SCALE=2e-5 \
PASTA_RUNS=1 \
PASTA_METRICS="${WORK_DIR}/hb.jsonl,200" \
PASTA_LOG=warn \
    "${BUILD_DIR}/bench/bench_fig4_cpu_bluesky" > /dev/null

PASTA_TRACE=full \
PASTA_CACHE="${WORK_DIR}/cache" \
PASTA_CSV_DIR="${WORK_DIR}" \
PASTA_TRACE_DIR="${WORK_DIR}" \
PASTA_SCALE=2e-5 \
PASTA_RUNS=1 \
PASTA_LOG=warn \
    "${BUILD_DIR}/bench/bench_fig6_gpu_p100" > /dev/null

python3 - "${WORK_DIR}" <<'EOF'
import csv
import glob
import json
import os
import sys

work = sys.argv[1]
interval_s = 0.2  # the PASTA_METRICS period above
failures = []

traces = glob.glob(os.path.join(work, "*.trace.json"))
if not traces:
    failures.append("no .trace.json written")
for path in traces:
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        failures.append(f"{path}: empty or missing traceEvents")
        continue
    for ev in events:
        if ev.get("ph") not in ("X", "C"):
            failures.append(f"{path}: unexpected phase {ev.get('ph')}")
            break
        if ev["ph"] == "X" and ("name" not in ev or "ts" not in ev
                                or "dur" not in ev):
            failures.append(f"{path}: X event missing name/ts/dur")
            break
    # The writer-identity block (DESIGN.md §11).
    meta = doc.get("pastaMeta")
    if not isinstance(meta, dict):
        failures.append(f"{path}: no pastaMeta block")
        continue
    for key in ("pid", "monoToEpochUs", "spansDropped"):
        value = meta.get(key)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < (1 if key == "pid" else 0):
            failures.append(f"{path}: pastaMeta.{key} is {value!r}")
    print(f"ok: {os.path.basename(path)} ({len(events)} events)")

obs_cols = {"variant", "obs_flops", "obs_bytes", "obs_ai",
            "roofline_pct"}
for path in glob.glob(os.path.join(work, "*.csv")):
    if path.endswith("_failures.csv"):
        continue
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = obs_cols - set(reader.fieldnames or [])
        if missing:
            failures.append(f"{path}: missing columns {sorted(missing)}")
            continue
        rows = list(reader)
    live = [r for r in rows if float(r["obs_flops"]) > 0]
    if not live:
        failures.append(f"{path}: no row carries counter-derived flops")
    print(f"ok: {os.path.basename(path)} "
          f"({len(live)}/{len(rows)} rows with counters)")

journals = glob.glob(os.path.join(work, "cache", "*.journal.jsonl"))
if not journals:
    failures.append("no run journal written")
for path in journals:
    with open(path) as f:
        entries = [json.loads(line) for line in f if line.strip()]
    bad = [e for e in entries
           if "obs_flops" not in e or "obs_bytes" not in e]
    if bad:
        failures.append(f"{path}: {len(bad)} entries missing obs fields")
    print(f"ok: {os.path.basename(path)} ({len(entries)} entries)")

# The heartbeat of the CPU figure, checked against that figure's journal.
# The exporter fsyncs whole lines and writes a final snapshot at exit,
# so every line must parse and the last one counts every trial.  Each
# tensor's context build is a guarded trial too: it adds one trial.ok
# per tensor in the journal, or one trial.failed per "*" failure row.
hb_path = os.path.join(work, "hb.jsonl")
beats = []
if os.path.exists(hb_path):
    with open(hb_path) as f:
        beats = [json.loads(line) for line in f if line.strip()]
if not beats:
    failures.append(f"{hb_path}: no heartbeat written")
else:
    seqs = [b["seq"] for b in beats]
    if any(cur <= prev for prev, cur in zip(seqs, seqs[1:])):
        failures.append(f"{hb_path}: seq not strictly increasing: {seqs}")
    gap = max((cur["ts"] - prev["ts"] for prev, cur in zip(beats, beats[1:])),
              default=0.0)
    if gap > 3 * interval_s:
        failures.append(f"{hb_path}: heartbeat gap {gap:.3f} s exceeds "
                        f"3 x {interval_s:.3f} s")
    counters = beats[-1].get("counters", {})
    got = (counters.get("trial.ok", 0), counters.get("trial.failed", 0))
    with open(os.path.join(work, "cache",
                           "fig4_cpu_bluesky.cpu.journal.jsonl")) as f:
        entries = [json.loads(line) for line in f if line.strip()]
    # Written only when some trial failed.
    fail_csv = os.path.join(work, "fig4_cpu_bluesky_failures.csv")
    context_failed = 0
    if os.path.exists(fail_csv):
        with open(fail_csv, newline="") as f:
            context_failed = sum(r["kernel"] == "*"
                                 for r in csv.DictReader(f))
    ok = sum(e["ok"] for e in entries)
    want = (ok + len({e["tensor"] for e in entries}),
            len(entries) - ok + context_failed)
    if got != want:
        failures.append(f"{hb_path}: trial.ok/trial.failed {got} != "
                        f"{want} from the journal")
    print(f"ok: hb.jsonl ({len(beats)} heartbeats, max gap {gap:.3f} s, "
          f"trial.ok={got[0]} trial.failed={got[1]})")

if failures:
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    sys.exit(1)
EOF

echo "obs smoke run passed"
