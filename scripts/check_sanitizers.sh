#!/usr/bin/env bash
# Builds the suite with sanitizers and runs the tier-1 tests under them.
#
# Default (address,undefined): every test, then a second pass with
# PASTA_VALIDATE=full.
#
# thread: ThreadSanitizer over the tests that exercise the lock-free and
# multi-threaded code — the telemetry registry (CAS-installed histogram
# shards, per-worker counter slots, the exporter thread), the serving
# scheduler's Chase-Lev deques and plan cache, the parallel runtime, and
# the block-parallel dense layer:
#   test_obs test_metrics test_serve test_common test_dense
# plus, with one OpenMP thread, the suite driver end to end: every
# kernel's counter and memory-governor updates, the guarded trials (run
# inline on the calling thread) and the journal, so a thread the driver
# or a kernel starts outside OpenMP is checked:
#   test_bench_common
# Only those targets are built, and the PASTA_VALIDATE=full pass is
# skipped (it re-checks kernel results, not concurrency).  libgomp is
# not built with TSan, so its barrier synchronisation is invisible to
# it; scripts/tsan.supp suppresses reports whose frames are in libgomp
# only.  test_bench_common's dataset generation sorts in back-to-back
# OpenMP regions whose team-thread stacks TSan cannot restore, so those
# reports carry no libgomp frame to match; with OMP_NUM_THREADS=1 the
# regions run on the calling thread and every thread it starts is
# checked.  test_dense runs its OpenMP regions on 3 and 4 threads
# whatever OMP_NUM_THREADS says; the dense layer announces each region's
# fork and join to TSan (tsan_release/tsan_acquire in
# common/parallel.hpp), so its hand-offs need no suppression.  ASLR is
# disabled for the run when setarch is available, since TSan cannot map
# its shadow memory under high mmap randomisation.
#
# Usage: scripts/check_sanitizers.sh [build-dir] [sanitizers]
#   build-dir   defaults to build-asan
#   sanitizers  defaults to address,undefined (passed to -fsanitize=)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"
SANITIZERS="${2:-address,undefined}"

cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPASTA_SANITIZE="${SANITIZERS}"

if [[ ",${SANITIZERS}," == *",thread,"* ]]; then
    TSAN_TESTS=(test_obs test_metrics test_serve test_common test_dense)
    cmake --build "${BUILD_DIR}" -j "$(nproc)" \
        --target "${TSAN_TESTS[@]}" test_bench_common
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=${PWD}/scripts/tsan.supp"
    NO_ASLR=()
    if setarch "$(uname -m)" -R true 2>/dev/null; then
        NO_ASLR=(setarch "$(uname -m)" -R)
    fi
    regex="^($(IFS='|'; echo "${TSAN_TESTS[*]}"))\$"
    "${NO_ASLR[@]}" ctest --test-dir "${BUILD_DIR}" --output-on-failure \
        -R "${regex}"
    OMP_NUM_THREADS=1 "${NO_ASLR[@]}" ctest --test-dir "${BUILD_DIR}" \
        --output-on-failure -R '^test_bench_common$'
    echo "sanitizer run (${SANITIZERS}: ${TSAN_TESTS[*]} test_bench_common)" \
        "passed"
    exit 0
fi

cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error: make UBSan failures fatal so ctest reports them.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"

ctest --test-dir "${BUILD_DIR}" --output-on-failure

# Second pass with every validation layer armed: structural checks after
# each conversion, differential kernel checks, and bounds-checked
# simulated GPU accesses all run under the sanitizers too.
PASTA_VALIDATE=full ctest --test-dir "${BUILD_DIR}" --output-on-failure

echo "sanitizer run (${SANITIZERS}, plus PASTA_VALIDATE=full pass) passed"
