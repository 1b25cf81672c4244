#!/usr/bin/env bash
# Smoke-checks the bounded-memory (out-of-core) stack end to end:
# bench_oocore runs against a throwaway cache with PASTA_MEM_BYTES set
# well below the synthesized tensor's COO footprint, and the script
# asserts everything ISSUE 6 promised:
#   - the budgeted entry points degrade to their streaming variants
#     (the report table carries a "mttkrp_stream_p<N>" label)
#   - the JSONL journal carries partitions_done / partitions_total and
#     a per-trial mem_peak that stays within the armed budget
#   - the finished MTTKRP sweep leaves no *.ckpt / *.ckpt.tmp behind
#   - a rerun against the same journal resumes every finished trial
#     ("journaled" status rows instead of re-running the sweeps)
#
# The tensor file is pre-generated in an unmetered pass (synthesis and
# PSTB writing legitimately need the full footprint resident); only the
# kernel trials run under the budget.
#
# Usage: scripts/check_oocore.sh [build-dir]
#   build-dir  defaults to build
#
# Environment:
#   OOCORE_BUDGET  byte budget to arm (default 100000, below the
#                  ~176 KB footprint of s1 at the default scale)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BUDGET="${OOCORE_BUDGET:-100000}"
if [[ ! -x "${BUILD_DIR}/bench/bench_oocore" ]]; then
    cmake -B "${BUILD_DIR}" -S .
    cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_oocore
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT

# Pass 1 (unmetered): synthesize + write the PSTB v3 file only; discard
# the journal so the metered pass starts with no completed trials.
PASTA_CACHE="${WORK_DIR}/cache" \
PASTA_SCALE=1e-2 \
PASTA_JOURNAL=0 \
PASTA_LOG=warn \
    "${BUILD_DIR}/bench/bench_oocore" > /dev/null
rm -f "${WORK_DIR}"/cache/*.journal.jsonl

# Pass 2 (metered): every trial must degrade to its partition sweep.
PASTA_CACHE="${WORK_DIR}/cache" \
PASTA_SCALE=1e-2 \
PASTA_MEM_BYTES="${BUDGET}" \
PASTA_LOG=warn \
    "${BUILD_DIR}/bench/bench_oocore" | tee "${WORK_DIR}/metered.out"

grep -q 'mttkrp_stream_p' "${WORK_DIR}/metered.out" || {
    echo "FAIL: metered run did not route MTTKRP to a streaming variant" >&2
    exit 1
}

# A finished sweep removes its checkpoint log; a leftover log (or a
# half-published header tmp) would make the next run resume stale work.
LEFTOVER="$(find "${WORK_DIR}/cache" \( -name '*.ckpt' -o -name '*.ckpt.tmp' \))"
if [[ -n "${LEFTOVER}" ]]; then
    echo "FAIL: metered run left checkpoint files behind:" >&2
    echo "${LEFTOVER}" >&2
    exit 1
fi

python3 - "${WORK_DIR}" "${BUDGET}" <<'EOF'
import glob
import json
import sys

work, budget = sys.argv[1], float(sys.argv[2])
journals = glob.glob(work + "/cache/*.journal.jsonl")
if not journals:
    sys.exit("FAIL: metered run wrote no journal")
entries = []
for path in journals:
    with open(path) as f:
        entries += [json.loads(line) for line in f if line.strip()]
ok = [e for e in entries if e.get("ok")]
if {e["kernel"] for e in ok} < {"MTTKRP", "TTV", "COALESCE"}:
    sys.exit(f"FAIL: journal missing successful trials: {ok}")
for e in ok:
    for field in ("partitions_done", "partitions_total", "mem_peak"):
        if field not in e:
            sys.exit(f"FAIL: journal entry missing {field}: {e}")
    if e["partitions_total"] < 2:
        sys.exit(f"FAIL: {e['kernel']} did not partition its sweep: {e}")
    if e["partitions_done"] != e["partitions_total"]:
        sys.exit(f"FAIL: {e['kernel']} finished with an incomplete sweep: {e}")
    if not 0 < e["mem_peak"] <= budget:
        sys.exit(f"FAIL: {e['kernel']} peak {e['mem_peak']} outside "
                 f"(0, {budget}]: {e}")
    if "stream" not in e.get("variant", ""):
        sys.exit(f"FAIL: {e['kernel']} did not stream: {e}")
print(f"ok: journal carries {len(ok)} streamed trials, "
      f"peaks within {int(budget)} bytes")
EOF

# Pass 3 (resume): the journal already has every trial; nothing reruns.
PASTA_CACHE="${WORK_DIR}/cache" \
PASTA_SCALE=1e-2 \
PASTA_MEM_BYTES="${BUDGET}" \
PASTA_LOG=warn \
    "${BUILD_DIR}/bench/bench_oocore" > "${WORK_DIR}/resume.out"

if [[ "$(grep -c 'journaled' "${WORK_DIR}/resume.out")" -lt 3 ]]; then
    echo "FAIL: rerun did not resume all three trials from the journal" >&2
    cat "${WORK_DIR}/resume.out" >&2
    exit 1
fi

echo "oocore smoke run passed (budget ${BUDGET} bytes)"
