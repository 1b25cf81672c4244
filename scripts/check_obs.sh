#!/usr/bin/env bash
# Smoke-checks the instrumentation layer end to end: runs one small CPU
# figure and one simulated-GPU figure with PASTA_TRACE=full against a
# throwaway cache, then validates everything the obs subsystem promised
# to emit:
#   - <stem>.trace.json is valid JSON in Chrome trace-event form
#     (traceEvents array of "ph":"X" complete events)
#   - <stem>.spans.jsonl parses line by line: a pastaMeta header
#     (pid, monoToEpochUs, spansDropped), then spans with name/dur_us
#   - the suite CSV carries the obs columns (variant, obs_flops,
#     obs_bytes, obs_ai, roofline_pct) with nonzero counter totals
#   - the run journal carries obs_flops/obs_bytes per trial
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
    print(f"ok: {os.path.basename(path)} ({len(events)} events)")

jsonls = glob.glob(os.path.join(work, "*.spans.jsonl"))
if not jsonls:
    failures.append("no .spans.jsonl written")
for path in jsonls:
    with open(path) as f:
        lines = f.read().splitlines()
    # First line: the {"pastaMeta":{...}} header (DESIGN.md §11).
    meta = json.loads(lines[0]).get("pastaMeta") if lines else None
    if not isinstance(meta, dict):
        failures.append(f"{path}: first line is not a pastaMeta header")
        continue
    for key in ("pid", "monoToEpochUs", "spansDropped"):
        value = meta.get(key)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < (1 if key == "pid" else 0):
            failures.append(f"{path}: pastaMeta.{key} is {value!r}")
    n = 0
    for line in lines[1:]:
        span = json.loads(line)
        if "name" not in span or "dur_us" not in span:
            failures.append(f"{path}: span missing name/dur_us")
            break
        n += 1
    print(f"ok: {os.path.basename(path)} ({n} spans)")

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

if failures:
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    sys.exit(1)
EOF

echo "obs smoke run passed"
