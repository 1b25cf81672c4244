#!/usr/bin/env bash
# Builds the suite with sanitizers and runs the tier-1 tests under them.
#
# Default (address,undefined): every test, then a second pass with
# PASTA_VALIDATE=full.  The robustness harness detaches worker threads on
# watchdog timeout by design, so LSAN's exit-time leak check is told to
# ignore still-running detached workers' allocations.
#
# thread: ThreadSanitizer over the tests that exercise the lock-free and
# multi-threaded code — the telemetry registry (CAS-installed histogram
# shards, per-worker counter slots, the exporter thread), the serving
# scheduler's Chase-Lev deques and plan cache, the campaign supervisor,
# and the parallel runtime:
#   test_obs test_metrics test_serve test_campaign test_common
# Only those targets are built, and the PASTA_VALIDATE=full pass is
# skipped (it re-checks kernel results, not concurrency).  libgomp is
# not built with TSan, so its barrier synchronisation is invisible to
# it; scripts/tsan.supp suppresses reports whose frames are in libgomp
# only.  ASLR is disabled for the run when setarch is available, since
# TSan cannot map its shadow memory under high mmap randomisation.
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
    TSAN_TESTS=(test_obs test_metrics test_serve test_campaign test_common)
    cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TSAN_TESTS[@]}"
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=${PWD}/scripts/tsan.supp"
    NO_ASLR=()
    if setarch "$(uname -m)" -R true 2>/dev/null; then
        NO_ASLR=(setarch "$(uname -m)" -R)
    fi
    regex="^($(IFS='|'; echo "${TSAN_TESTS[*]}"))\$"
    "${NO_ASLR[@]}" ctest --test-dir "${BUILD_DIR}" --output-on-failure \
        -R "${regex}"
    echo "sanitizer run (${SANITIZERS}: ${TSAN_TESTS[*]}) passed"
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
