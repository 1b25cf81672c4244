/// \file
/// Runtime SIMD dispatch for the rank-loop micro-kernels.
///
/// The per-non-zero inner loops of MTTKRP, TTV, TTM, TEW, and the CSF
/// walks iterate over contiguous rank-R value stripes; PR 5's roofline
/// columns showed every one of them sitting well below machine balance
/// with scalar code that merely hoped `#pragma omp simd` would fire.
/// This layer makes the vector path explicit: src/simd/microkernels.hpp
/// holds AVX-512/AVX2 intrinsic implementations of each primitive next
/// to a portable scalar fallback, and this header decides — once per
/// process — which implementation every kernel invocation uses.
///
/// Selection order:
///   1. $PASTA_SIMD=auto|avx512|avx2|scalar.  `auto` (or unset) picks
///      the widest ISA the CPU reports; forcing an ISA the CPU lacks
///      throws PastaError (strict env validation, like PASTA_VALIDATE).
///   2. Tests and benches may override with set_isa(); the override must
///      name a supported ISA.
///
/// The chosen path is observable: every kernel calls note_kernel(),
/// which stamps the "simd.isa" decision label and the "simd.width"
/// high-water counter into the PR 5 registry, so the ISA a trial ran
/// with lands in every CSV/journal row (variant suffix "_avx2" etc.).
#pragma once

#include <atomic>
#include <cstring>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "obs/counters.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PASTA_SIMD_X86 1
#else
#define PASTA_SIMD_X86 0
#endif

namespace pasta::simd {

/// Instruction-set level of a micro-kernel implementation.
enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline const char*
isa_name(Isa isa)
{
    switch (isa) {
      case Isa::kScalar:
        return "scalar";
      case Isa::kAvx2:
        return "avx2";
      case Isa::kAvx512:
        return "avx512";
    }
    return "?";
}

/// Value lanes per vector register (Value = float).
inline Size
isa_lanes(Isa isa)
{
    switch (isa) {
      case Isa::kScalar:
        return 1;
      case Isa::kAvx2:
        return 8;
      case Isa::kAvx512:
        return 16;
    }
    return 1;
}

/// True when the running CPU can execute `isa`.  Scalar always can.
inline bool
isa_supported(Isa isa)
{
#if PASTA_SIMD_X86
    if (isa == Isa::kAvx2)
        return __builtin_cpu_supports("avx2");
    if (isa == Isa::kAvx512)
        // avx512f covers every intrinsic the micro-kernels use
        // (512-bit fp math + masked loads/stores).
        return __builtin_cpu_supports("avx512f");
    return true;
#else
    return isa == Isa::kScalar;
#endif
}

/// Widest ISA the CPU supports.
inline Isa
best_supported_isa()
{
    if (isa_supported(Isa::kAvx512))
        return Isa::kAvx512;
    if (isa_supported(Isa::kAvx2))
        return Isa::kAvx2;
    return Isa::kScalar;
}

/// Parses one PASTA_SIMD value ("auto"/""/null = auto-detect).  Throws
/// PastaError for unknown names and for ISAs the CPU cannot execute.
inline Isa
parse_isa(const char* text)
{
    if (text == nullptr || *text == '\0' ||
        std::strcmp(text, "auto") == 0)
        return best_supported_isa();
    Isa isa;
    if (std::strcmp(text, "scalar") == 0)
        isa = Isa::kScalar;
    else if (std::strcmp(text, "avx2") == 0)
        isa = Isa::kAvx2;
    else if (std::strcmp(text, "avx512") == 0)
        isa = Isa::kAvx512;
    else
        PASTA_CHECK_MSG(false, "PASTA_SIMD='" << text
                                              << "' is not one of "
                                                 "auto|avx512|avx2|scalar");
    PASTA_CHECK_MSG(isa_supported(isa),
                    "PASTA_SIMD=" << isa_name(isa)
                                  << " requested but this CPU does not "
                                     "support it");
    return isa;
}

namespace detail {
// -1 = not yet resolved; otherwise static_cast<int>(Isa).
inline std::atomic<int> g_isa{-1};
}  // namespace detail

/// The process-wide active ISA: resolved from $PASTA_SIMD + cpuid on
/// first use, then cached.  Kernels read it once per invocation and pass
/// it down into their inner loops.
inline Isa
active_isa()
{
    int v = detail::g_isa.load(std::memory_order_relaxed);
    if (v < 0) {
        const Isa resolved =
            parse_isa(config::text("PASTA_SIMD").c_str());
        v = static_cast<int>(resolved);
        detail::g_isa.store(v, std::memory_order_relaxed);
    }
    return static_cast<Isa>(v);
}

/// Overrides the active ISA (tests, BM_RankLoop forced-dispatch sweeps).
/// The override must be executable on this CPU.
inline void
set_isa(Isa isa)
{
    PASTA_CHECK_MSG(isa_supported(isa),
                    "set_isa(" << isa_name(isa)
                               << "): unsupported on this CPU");
    detail::g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

/// Forgets the cached ISA so the next active_isa() re-reads PASTA_SIMD
/// (tests that exercise the env parsing).
inline void
reset_isa_cache()
{
    detail::g_isa.store(-1, std::memory_order_relaxed);
}

/// Stamps the active SIMD path into the counter registry: the
/// "simd.isa" decision label (the bench harness appends it to the trial
/// variant, e.g. "atomic_avx2") and the "simd.width" high-water lanes
/// counter.  Call once per kernel invocation; gated like all counters.
inline Isa
note_kernel()
{
    const Isa isa = active_isa();
    if (obs::counters_enabled()) {
        obs::set_label("simd.isa", isa_name(isa));
        obs::record_max("simd.width", isa_lanes(isa));
    }
    return isa;
}

}  // namespace pasta::simd
