#!/usr/bin/env bash
# Runs the SIMD-sensitive kernel test binaries under every forced
# dispatch target (PASTA_SIMD=scalar|avx2|avx512), skipping ISAs the
# host CPU does not report in /proc/cpuinfo.  The vector paths promise
# bit-identical elementwise results and oracle-clean kernels under any
# forced ISA; this script is the cheap cross-ISA sweep that catches a
# path that only works under the auto-dispatch default.  test_serve is
# on the list because the serving executor calls the MTTKRP kernels
# directly and compares cached against uncached output bits.
#
# Each forced run also re-executes the kernel oracles with
# PASTA_VALIDATE=kernel so the differential validation layer (vs the
# deliberately scalar mttkrp_coo_seq reference) gates every SIMD
# variant, not just the one auto-dispatch picked.
#
# Usage: scripts/check_simd.sh [build-dir]
#   build-dir  defaults to build
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TESTS=(test_simd test_mttkrp test_ttv test_ttm test_tew_ts test_methods
       test_dense test_semisparse_kernels test_csf test_serve)

for t in "${TESTS[@]}"; do
    if [[ ! -x "${BUILD_DIR}/tests/${t}" ]]; then
        cmake -B "${BUILD_DIR}" -S .
        cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${t}"
    fi
done

isas=(scalar)
if grep -qw avx2 /proc/cpuinfo; then
    isas+=(avx2)
else
    echo "skip: avx2 not reported by /proc/cpuinfo"
fi
if grep -qw avx512f /proc/cpuinfo; then
    isas+=(avx512)
else
    echo "skip: avx512 not reported by /proc/cpuinfo"
fi

for isa in "${isas[@]}"; do
    for t in "${TESTS[@]}"; do
        echo "== PASTA_SIMD=${isa} ${t} =="
        PASTA_SIMD="${isa}" PASTA_VALIDATE=kernel PASTA_LOG=warn \
            "${BUILD_DIR}/tests/${t}" --gtest_brief=1
    done
done

echo "simd dispatch sweep passed (${isas[*]})"
