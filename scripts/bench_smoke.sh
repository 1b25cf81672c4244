#!/usr/bin/env bash
# Builds the suite in Release mode and runs the bench_kernels_micro sweep
# on the small synthetic power-law workload, emitting a JSON profile
# (google-benchmark format, one entry per kernel/format point with
# items_per_second and a "flops" rate counter -- divide by 1e9 for
# GFLOPs).  Use it to smoke-check that a change did not regress kernel
# throughput: compare BENCH_kernels.json against a baseline run.
#
# Usage: scripts/bench_smoke.sh [build-dir] [output-json]
#   build-dir    defaults to build-release
#   output-json  defaults to BENCH_kernels.json (in the repo root)
#
# Environment:
#   OMP_NUM_THREADS  worker count for the parallel kernels (default 4)
#   BENCH_FILTER     regex passed to --benchmark_filter (default: all)
#   BENCH_STRICT     when 1, fail (exit 1) if the google-benchmark
#                    library itself was built in debug mode; otherwise a
#                    loud warning is printed (debug-library timings are
#                    not comparable across runs)
#   BENCH_OBS        when not 0, also run scripts/check_obs.sh against
#                    the same build dir (PASTA_TRACE=full smoke of the
#                    instrumentation layer); set BENCH_OBS=0 to skip
#   BENCH_SIMD       when not 0, also run scripts/check_simd.sh against
#                    the same build dir (kernel tests + PASTA_VALIDATE
#                    oracles under every forced PASTA_SIMD dispatch
#                    target the CPU supports); set BENCH_SIMD=0 to skip
#   BENCH_OOCORE     when not 0, also run scripts/check_oocore.sh
#                    against the same build dir (bounded-memory smoke:
#                    PASTA_MEM_BYTES forces the streaming kernels and
#                    the journal resume path); set BENCH_OOCORE=0 to
#                    skip
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-release}"
OUT_JSON="${2:-BENCH_kernels.json}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-4}"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_kernels_micro

"${BUILD_DIR}/bench/bench_kernels_micro" \
    --benchmark_filter="${BENCH_FILTER:-.*}" \
    --benchmark_out="${OUT_JSON}" \
    --benchmark_out_format=json \
    --benchmark_repetitions=1

# A debug google-benchmark library skews every timing; refuse to treat
# such a profile as a baseline silently.
if grep -q '"library_build_type": "debug"' "${OUT_JSON}"; then
    echo "=======================================================" >&2
    echo "WARNING: ${OUT_JSON} was produced with a DEBUG build of" >&2
    echo "the google-benchmark library (library_build_type=debug)." >&2
    echo "Timings are not comparable with release-library runs."    >&2
    echo "Set BENCH_STRICT=1 to make this an error."                >&2
    echo "=======================================================" >&2
    if [ "${BENCH_STRICT:-0}" = "1" ]; then
        echo "BENCH_STRICT=1: failing on debug benchmark library" >&2
        exit 1
    fi
fi

echo "wrote ${OUT_JSON} (OMP_NUM_THREADS=${OMP_NUM_THREADS})"

# Instrumentation smoke: the same build must produce a valid trace.json,
# spans.jsonl, and obs CSV/journal columns with PASTA_TRACE=full.
if [ "${BENCH_OBS:-1}" != "0" ]; then
    scripts/check_obs.sh "${BUILD_DIR}"
fi

# Cross-ISA smoke: the kernel tests and validation oracles must pass
# under every forced SIMD dispatch target this CPU supports.
if [ "${BENCH_SIMD:-1}" != "0" ]; then
    scripts/check_simd.sh "${BUILD_DIR}"
fi

# Bounded-memory smoke: the same build must degrade to the streaming
# kernels under PASTA_MEM_BYTES and resume trials from the journal.
if [ "${BENCH_OOCORE:-1}" != "0" ]; then
    scripts/check_oocore.sh "${BUILD_DIR}"
fi
