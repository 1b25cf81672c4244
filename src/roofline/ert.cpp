#include "roofline/ert.hpp"

#include <algorithm>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

namespace {

/// Bytes moved per element for each STREAM kernel.
struct StreamKernel {
    const char* name;
    int bytes_per_elem;
};

constexpr StreamKernel kKernels[] = {
    {"copy", 8},   // read a, write b
    {"scale", 8},  // read a, write b
    {"add", 12},   // read a+b, write c
    {"triad", 12}, // read a+b, write c
};

/// Runs one kernel over n floats until ~`seconds` elapse; returns the
/// GB/s of the fastest repetition.
double
measure_kernel(const char* name, float* a, float* b, float* c, Size n,
               int bytes_per_elem, double seconds)
{
    const float s = 1.0001f;
    auto run_once = [&] {
        if (name[0] == 'c' && name[1] == 'o') {  // copy
            parallel_for_ranges(0, n, [&](Size first, Size last) {
                for (Size i = first; i < last; ++i)
                    b[i] = a[i];
            });
        } else if (name[0] == 's') {  // scale
            parallel_for_ranges(0, n, [&](Size first, Size last) {
                for (Size i = first; i < last; ++i)
                    b[i] = s * a[i];
            });
        } else if (name[0] == 'a') {  // add
            parallel_for_ranges(0, n, [&](Size first, Size last) {
                for (Size i = first; i < last; ++i)
                    c[i] = a[i] + b[i];
            });
        } else {  // triad
            parallel_for_ranges(0, n, [&](Size first, Size last) {
                for (Size i = first; i < last; ++i)
                    c[i] = a[i] + s * b[i];
            });
        }
    };
    run_once();  // warm up
    // Each repetition is timed on its own and the fastest one counts, as
    // STREAM reports: a repetition the host descheduled shows a lower
    // rate, not the memory system's.
    Timer total;
    total.start();
    double best = 0.0;
    do {
        Timer rep;
        rep.start();
        run_once();
        const double elapsed = rep.elapsed_seconds();
        if (best == 0.0 || elapsed < best)
            best = elapsed;
    } while (total.elapsed_seconds() < seconds);
    const double bytes = static_cast<double>(n) * bytes_per_elem;
    return bytes / best / 1e9;
}

// Peak FLOPS: every thread runs kChains independent chains
// acc = acc * kMul + kAdd at the active ISA's width, with separate
// multiply and add like every kernel of the suite (no FMA: the SIMD
// bit-identity contract).  kChains covers the multiply and add
// latencies on two vector ports; the chains converge to 1, so no value
// overflows or turns subnormal.
constexpr int kChains = 12;
constexpr int kBatch = 1024;  ///< iterations per chain and call
constexpr float kMul = 0.999999f;
constexpr float kAdd = 1e-6f;

PASTA_SCALAR_REF float
chains_scalar()
{
    float acc[kChains];
    for (int c = 0; c < kChains; ++c)
        acc[c] = 1.0f + 1e-3f * static_cast<float>(c);
    for (int k = 0; k < kBatch; ++k)
        for (int c = 0; c < kChains; ++c)
            acc[c] = acc[c] * kMul + kAdd;
    float total = 0;
    for (int c = 0; c < kChains; ++c)
        total += acc[c];
    return total;
}

#if PASTA_SIMD_X86
PASTA_TARGET_AVX2 float
chains_avx2()
{
    const __m256 m = _mm256_set1_ps(kMul);
    const __m256 a = _mm256_set1_ps(kAdd);
    __m256 acc[kChains];
    for (int c = 0; c < kChains; ++c)
        acc[c] = _mm256_set1_ps(1.0f + 1e-3f * static_cast<float>(c));
    for (int k = 0; k < kBatch; ++k)
#pragma GCC unroll 12
        for (int c = 0; c < kChains; ++c)
            acc[c] = _mm256_add_ps(_mm256_mul_ps(acc[c], m), a);
    __m256 total = acc[0];
    for (int c = 1; c < kChains; ++c)
        total = _mm256_add_ps(total, acc[c]);
    return simd::detail::hsum_avx2(total);
}

PASTA_TARGET_AVX512 float
chains_avx512()
{
    const __m512 m = _mm512_set1_ps(kMul);
    const __m512 a = _mm512_set1_ps(kAdd);
    __m512 acc[kChains];
    for (int c = 0; c < kChains; ++c)
        acc[c] = _mm512_set1_ps(1.0f + 1e-3f * static_cast<float>(c));
    for (int k = 0; k < kBatch; ++k)
#pragma GCC unroll 12
        for (int c = 0; c < kChains; ++c)
            acc[c] = _mm512_add_ps(_mm512_mul_ps(acc[c], m), a);
    __m512 total = acc[0];
    for (int c = 1; c < kChains; ++c)
        total = _mm512_add_ps(total, acc[c]);
    return simd::detail::hsum_avx512(total);
}
#endif

/// One call of the chains at `isa`.
float
run_chains(simd::Isa isa)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case simd::Isa::kAvx512:
        return chains_avx512();
      case simd::Isa::kAvx2:
        return chains_avx2();
      default:
        break;
    }
#endif
    return chains_scalar();
}

/// Attainable GFLOP/s: the chains on every thread for ~`seconds`, the
/// per-thread rates summed.
double
measure_flops(simd::Isa isa, double seconds)
{
    const int nt = num_threads();
    const double flops_per_call = 2.0 * kChains * kBatch *
                                  static_cast<double>(simd::isa_lanes(isa));
    std::vector<double> rates(nt, 0.0);
    std::vector<float> sums(nt, 0.0f);
#pragma omp parallel for num_threads(nt) schedule(static)
    for (int t = 0; t < nt; ++t) {
        Timer timer;
        timer.start();
        Size calls = 0;
        do {
            sums[t] += run_chains(isa);
            ++calls;
        } while (timer.elapsed_seconds() < seconds);
        rates[t] = flops_per_call * static_cast<double>(calls) /
                   timer.elapsed_seconds();
    }
    volatile float sink = 0;
    double total = 0;
    for (int t = 0; t < nt; ++t) {
        sink = sink + sums[t];
        total += rates[t];
    }
    return total / 1e9;
}

}  // namespace

ErtResult
run_ert(const ErtOptions& options)
{
    ErtResult result;
    std::vector<float> a(options.max_bytes / sizeof(float), 1.0f);
    std::vector<float> b(options.max_bytes / sizeof(float), 2.0f);
    std::vector<float> c(options.max_bytes / sizeof(float), 0.0f);

    for (std::size_t bytes = options.min_bytes; bytes <= options.max_bytes;
         bytes *= 4) {
        const Size n = bytes / sizeof(float);
        for (const auto& kernel : kKernels) {
            ErtSample sample;
            sample.kernel = kernel.name;
            sample.bytes = bytes;
            sample.bandwidth_gbs =
                measure_kernel(kernel.name, a.data(), b.data(), c.data(),
                               n, kernel.bytes_per_elem,
                               options.seconds_per_point);
            result.samples.push_back(sample);
            if (bytes <= options.llc_boundary_bytes)
                result.llc_bw_gbs =
                    std::max(result.llc_bw_gbs, sample.bandwidth_gbs);
            else
                result.dram_bw_gbs =
                    std::max(result.dram_bw_gbs, sample.bandwidth_gbs);
        }
    }
    result.isa = simd::active_isa();
    result.peak_gflops =
        measure_flops(result.isa, 4 * options.seconds_per_point);
    // A machine where the "DRAM" sizes still fit in a huge cache can show
    // dram >= llc; clamp so the roofs stay ordered.
    result.llc_bw_gbs = std::max(result.llc_bw_gbs, result.dram_bw_gbs);
    return result;
}

MachineSpec
host_machine_spec(const ErtResult& ert)
{
    MachineSpec spec;
    spec.name = "host";
    spec.microarch = "measured";
    spec.cores = num_threads();
    spec.peak_sp_gflops = ert.peak_gflops;
    spec.mem_bw_gbs = ert.dram_bw_gbs;
    spec.ert_dram_gbs = ert.dram_bw_gbs;
    spec.ert_llc_gbs = ert.llc_bw_gbs;
    spec.is_gpu = false;
    return spec;
}

}  // namespace pasta
