// Tests for the SIMD micro-kernel layer: ISA dispatch/env parsing, every
// primitive bit-compared against the scalar path at widths 1..64
// (including non-multiple-of-lane remainders), forced-dispatch kernel
// runs, the heap-scratch fallback for rank > kMaxStackRank, and the
// fused CP-ALS / TTM-chain drivers against their unfused baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/rank_scratch.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttm_scoo.hpp"
#include "methods/cpd.hpp"
#include "methods/tucker.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "simd/microkernels.hpp"

namespace pasta {
namespace {

constexpr Size kMaxWidth = 64;

std::vector<simd::Isa>
supported_vector_isas()
{
    std::vector<simd::Isa> isas;
    if (simd::isa_supported(simd::Isa::kAvx2))
        isas.push_back(simd::Isa::kAvx2);
    if (simd::isa_supported(simd::Isa::kAvx512))
        isas.push_back(simd::Isa::kAvx512);
    return isas;
}

/// The dispatch caches and PASTA_SIMD* env are process-global; every
/// test starts and ends with a clean slate.
class SimdTest : public ::testing::Test {
  protected:
    void SetUp() override { clean(); }
    void TearDown() override
    {
        clean();
        obs::set_mode(obs::TraceMode::kOff);
        set_num_threads(0);
    }

  private:
    static void clean()
    {
        unsetenv("PASTA_SIMD");
        unsetenv("PASTA_SIMD_PREFETCH");
        simd::reset_isa_cache();
        simd::reset_prefetch_cache();
    }
};

std::vector<Value>
random_values(Size n, std::uint64_t seed, float lo = -1.0f,
              float hi = 1.0f)
{
    Rng rng(seed);
    std::vector<Value> v(n);
    for (Size i = 0; i < n; ++i)
        v[i] = lo + (hi - lo) * rng.next_float();
    return v;
}

/// Integer-valued floats: reductions over them are exact at any
/// association order (sums stay far below 2^24), so vdot/vdot_gather can
/// be compared for equality even though lanes reassociate.
std::vector<Value>
integer_values(Size n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Value> v(n);
    for (Size i = 0; i < n; ++i)
        v[i] = static_cast<Value>(static_cast<long>(rng.next_below(17)) -
                                  8);
    return v;
}

TEST_F(SimdTest, IsaNamesAndLanes)
{
    EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
    EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
    EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx512), "avx512");
    EXPECT_EQ(simd::isa_lanes(simd::Isa::kScalar), 1u);
    EXPECT_EQ(simd::isa_lanes(simd::Isa::kAvx2), 8u);
    EXPECT_EQ(simd::isa_lanes(simd::Isa::kAvx512), 16u);
}

TEST_F(SimdTest, ParseIsaAutoNamesAndErrors)
{
    EXPECT_EQ(simd::parse_isa(nullptr), simd::best_supported_isa());
    EXPECT_EQ(simd::parse_isa(""), simd::best_supported_isa());
    EXPECT_EQ(simd::parse_isa("auto"), simd::best_supported_isa());
    EXPECT_EQ(simd::parse_isa("scalar"), simd::Isa::kScalar);
    EXPECT_THROW(simd::parse_isa("sse42"), PastaError);
    EXPECT_THROW(simd::parse_isa("AVX2"), PastaError);
    for (simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kAvx512}) {
        if (simd::isa_supported(isa))
            EXPECT_EQ(simd::parse_isa(simd::isa_name(isa)), isa);
        else
            EXPECT_THROW(simd::parse_isa(simd::isa_name(isa)),
                         PastaError);
    }
}

TEST_F(SimdTest, ActiveIsaReadsAndCachesEnv)
{
    setenv("PASTA_SIMD", "scalar", 1);
    simd::reset_isa_cache();
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
    // Cached: changing the env without a reset does not re-resolve.
    setenv("PASTA_SIMD", "auto", 1);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
    simd::reset_isa_cache();
    EXPECT_EQ(simd::active_isa(), simd::best_supported_isa());
}

TEST_F(SimdTest, MalformedEnvThrows)
{
    setenv("PASTA_SIMD", "avx9000", 1);
    simd::reset_isa_cache();
    EXPECT_THROW(simd::active_isa(), PastaError);
}

TEST_F(SimdTest, PrefetchDistanceEnv)
{
    EXPECT_EQ(simd::prefetch_distance(), 8u);  // default
    setenv("PASTA_SIMD_PREFETCH", "32", 1);
    simd::reset_prefetch_cache();
    EXPECT_EQ(simd::prefetch_distance(), 32u);
    setenv("PASTA_SIMD_PREFETCH", "0", 1);
    simd::reset_prefetch_cache();
    EXPECT_EQ(simd::prefetch_distance(), 0u);
    for (const char* bad : {"abc", "-1", "8x", "5000"}) {
        setenv("PASTA_SIMD_PREFETCH", bad, 1);
        simd::reset_prefetch_cache();
        EXPECT_THROW(simd::prefetch_distance(), PastaError) << bad;
    }
}

TEST_F(SimdTest, ElementwisePrimitivesBitIdenticalToScalar)
{
    for (simd::Isa isa : supported_vector_isas()) {
        for (Size n = 1; n <= kMaxWidth; ++n) {
            const std::vector<Value> x = random_values(n, 11 * n + 1);
            const std::vector<Value> y =
                random_values(n, 13 * n + 2, 0.5f, 1.5f);
            const Value a = 0.75f;

            const auto run = [&](simd::Isa which, auto&& op) {
                std::vector<Value> acc = y;
                std::vector<Value> z(n, 0);
                op(which, acc, z);
                std::vector<Value> both = acc;
                both.insert(both.end(), z.begin(), z.end());
                return both;
            };
            const auto check = [&](const char* name, auto&& op) {
                const auto want = run(simd::Isa::kScalar, op);
                const auto got = run(isa, op);
                for (Size i = 0; i < want.size(); ++i)
                    ASSERT_EQ(want[i], got[i])
                        << name << " isa=" << simd::isa_name(isa)
                        << " n=" << n << " slot=" << i;
            };

            check("vfill", [&](simd::Isa w, std::vector<Value>& acc,
                               std::vector<Value>& z) {
                simd::vfill(w, z.data(), a, n);
                (void)acc;
            });
            check("vscale", [&](simd::Isa w, std::vector<Value>& acc,
                                std::vector<Value>& z) {
                simd::vscale(w, z.data(), x.data(), a, n);
                (void)acc;
            });
            check("vmul_accumulate",
                  [&](simd::Isa w, std::vector<Value>& acc,
                      std::vector<Value>& z) {
                      simd::vmul_accumulate(w, acc.data(), x.data(), n);
                      (void)z;
                  });
            check("vfma_rows", [&](simd::Isa w, std::vector<Value>& acc,
                                   std::vector<Value>& z) {
                simd::vfma_rows(w, acc.data(), x.data(), y.data(), n);
                (void)z;
            });
            check("vaxpy", [&](simd::Isa w, std::vector<Value>& acc,
                               std::vector<Value>& z) {
                simd::vaxpy(w, acc.data(), a, x.data(), n);
                (void)z;
            });
            check("vadd_inplace",
                  [&](simd::Isa w, std::vector<Value>& acc,
                      std::vector<Value>& z) {
                      simd::vadd_inplace(w, acc.data(), x.data(), n);
                      (void)z;
                  });
            check("vhadamard", [&](simd::Isa w, std::vector<Value>& acc,
                                   std::vector<Value>& z) {
                simd::vhadamard(w, z.data(), x.data(), y.data(), n);
                (void)acc;
            });
            check("vadd", [&](simd::Isa w, std::vector<Value>& acc,
                              std::vector<Value>& z) {
                simd::vadd(w, z.data(), x.data(), y.data(), n);
                (void)acc;
            });
            check("vsub", [&](simd::Isa w, std::vector<Value>& acc,
                              std::vector<Value>& z) {
                simd::vsub(w, z.data(), x.data(), y.data(), n);
                (void)acc;
            });
            check("vdiv", [&](simd::Isa w, std::vector<Value>& acc,
                              std::vector<Value>& z) {
                simd::vdiv(w, z.data(), x.data(), y.data(), n);
                (void)acc;
            });
        }
    }
}

TEST_F(SimdTest, DotReductionsExactOnIntegerValues)
{
    for (simd::Isa isa : supported_vector_isas()) {
        for (Size n = 1; n <= kMaxWidth; ++n) {
            const std::vector<Value> x = integer_values(n, 3 * n + 1);
            const std::vector<Value> y = integer_values(n, 5 * n + 2);
            EXPECT_EQ(simd::vdot(simd::Isa::kScalar, x.data(), y.data(),
                                 n),
                      simd::vdot(isa, x.data(), y.data(), n))
                << "vdot isa=" << simd::isa_name(isa) << " n=" << n;

            const Size table_size = 40;
            const std::vector<Value> table =
                integer_values(table_size, 7 * n + 3);
            Rng rng(9 * n + 4);
            std::vector<Index> idx(n);
            for (Size i = 0; i < n; ++i)
                idx[i] = rng.next_index(table_size);
            EXPECT_EQ(simd::vdot_gather(simd::Isa::kScalar, x.data(),
                                        idx.data(), table.data(), n),
                      simd::vdot_gather(isa, x.data(), idx.data(),
                                        table.data(), n))
                << "vdot_gather isa=" << simd::isa_name(isa)
                << " n=" << n;
        }
    }
}

TEST_F(SimdTest, DotReductionsWithinToleranceOnRandomValues)
{
    for (simd::Isa isa : supported_vector_isas()) {
        const Size n = 1000;
        const std::vector<Value> x = random_values(n, 21);
        const std::vector<Value> y = random_values(n, 22);
        const Value scalar =
            simd::vdot(simd::Isa::kScalar, x.data(), y.data(), n);
        const Value vec = simd::vdot(isa, x.data(), y.data(), n);
        EXPECT_NEAR(scalar, vec, 1e-4 * n);
    }
}

TEST_F(SimdTest, NoteKernelStampsLabelAndWidth)
{
    obs::set_mode(obs::TraceMode::kCounters);
    obs::reset_metrics();
    const simd::Isa isa = simd::best_supported_isa();
    simd::set_isa(isa);
    EXPECT_EQ(simd::note_kernel(), isa);
    const obs::MetricsSnapshot snap = obs::snapshot_counters();
    EXPECT_EQ(snap.label("simd.isa"), simd::isa_name(isa));
    EXPECT_EQ(snap.gauge("simd.width"),
              static_cast<double>(simd::isa_lanes(isa)));
}

TEST_F(SimdTest, SetIsaRejectsUnsupported)
{
    if (simd::isa_supported(simd::Isa::kAvx512))
        GTEST_SKIP() << "every ISA is supported on this CPU";
    EXPECT_THROW(simd::set_isa(simd::Isa::kAvx512), PastaError);
}

// ---- kernel-level forced dispatch ----------------------------------

struct Problem {
    CooTensor x;
    std::vector<DenseMatrix> mats;

    FactorList factors() const
    {
        FactorList list;
        for (const auto& m : mats)
            list.push_back(&m);
        return list;
    }
};

Problem
make_problem(const std::vector<Index>& dims, Size nnz, Size rank,
             std::uint64_t seed)
{
    Rng rng(seed);
    Problem prob;
    prob.x = CooTensor::random(dims, nnz, rng);
    for (Index d : dims)
        prob.mats.push_back(DenseMatrix::random(d, rank, rng));
    return prob;
}

TEST_F(SimdTest, MttkrpForcedDispatchBitIdenticalToScalarPath)
{
    // Single worker: the elementwise primitives are bit-identical per
    // ISA, so at a fixed schedule the whole kernel must be too.
    set_num_threads(1);
    // Ranks straddle lane boundaries (remainders included).
    for (Size rank : {1u, 7u, 8u, 16u, 19u, 33u}) {
        Problem prob = make_problem({24, 16, 20}, 400, rank, 77 + rank);
        const HiCooTensor hicoo = coo_to_hicoo(prob.x, 4);
        for (Size mode = 0; mode < 3; ++mode) {
            simd::set_isa(simd::Isa::kScalar);
            DenseMatrix want(prob.x.dim(mode), rank);
            mttkrp_coo_atomic(prob.x, prob.factors(), mode, want);
            DenseMatrix want_h(prob.x.dim(mode), rank);
            mttkrp_hicoo(hicoo, prob.factors(), mode, want_h);
            for (simd::Isa isa : supported_vector_isas()) {
                simd::set_isa(isa);
                DenseMatrix got(prob.x.dim(mode), rank);
                mttkrp_coo_atomic(prob.x, prob.factors(), mode, got);
                DenseMatrix got_h(prob.x.dim(mode), rank);
                mttkrp_hicoo(hicoo, prob.factors(), mode, got_h);
                for (Size i = 0; i < want.rows(); ++i)
                    for (Size r = 0; r < rank; ++r) {
                        ASSERT_EQ(want(i, r), got(i, r))
                            << "coo isa=" << simd::isa_name(isa)
                            << " rank=" << rank << " mode=" << mode;
                        ASSERT_EQ(want_h(i, r), got_h(i, r))
                            << "hicoo isa=" << simd::isa_name(isa)
                            << " rank=" << rank << " mode=" << mode;
                    }
            }
        }
    }
}

TEST_F(SimdTest, RankBeyondStackScratchRegression)
{
    // rank > kMaxStackRank historically overran (then was rejected);
    // the heap fallback must now produce the same result as the
    // sequential reference.
    const Size rank = kMaxStackRank + 5;
    Problem prob = make_problem({12, 10, 8}, 150, rank, 5);
    DenseMatrix ref(prob.x.dim(1), rank);
    mttkrp_coo_seq(prob.x, prob.factors(), 1, ref);

    DenseMatrix out(prob.x.dim(1), rank);
    mttkrp_coo_atomic(prob.x, prob.factors(), 1, out);
    DenseMatrix out_p(prob.x.dim(1), rank);
    mttkrp_coo_privatized(prob.x, prob.factors(), 1, out_p);
    const HiCooTensor hicoo = coo_to_hicoo(prob.x, 4);
    DenseMatrix out_h(prob.x.dim(1), rank);
    mttkrp_hicoo(hicoo, prob.factors(), 1, out_h);
    for (Size i = 0; i < ref.rows(); ++i)
        for (Size r = 0; r < rank; ++r) {
            ASSERT_NEAR(ref(i, r), out(i, r),
                        1e-3 * std::abs(ref(i, r)) + 1e-4);
            ASSERT_NEAR(ref(i, r), out_p(i, r),
                        1e-3 * std::abs(ref(i, r)) + 1e-4);
            ASSERT_NEAR(ref(i, r), out_h(i, r),
                        1e-3 * std::abs(ref(i, r)) + 1e-4);
        }
}

// ---- fused method drivers ------------------------------------------

TEST_F(SimdTest, CpAlsFusedMatchesUnfusedDriver)
{
    Rng rng(42);
    const CooTensor x = CooTensor::random({20, 18, 16}, 300, rng);
    CpdOptions fused;
    fused.rank = 8;
    fused.max_sweeps = 4;
    fused.tolerance = 0.0;  // run all sweeps in both drivers
    fused.fused = true;
    CpdOptions unfused = fused;
    unfused.fused = false;
    const CpdResult a = cp_als(x, fused);
    const CpdResult b = cp_als(x, unfused);
    ASSERT_EQ(a.sweeps, b.sweeps);
    ASSERT_EQ(a.fit_history.size(), b.fit_history.size());
    for (Size s = 0; s < a.fit_history.size(); ++s)
        EXPECT_NEAR(a.fit_history[s], b.fit_history[s], 1e-4) << s;
    for (Size m = 0; m < x.order(); ++m)
        for (Size i = 0; i < a.factors[m].rows(); ++i)
            for (Size r = 0; r < fused.rank; ++r)
                EXPECT_NEAR(a.factors[m](i, r), b.factors[m](i, r),
                            1e-2)
                    << m << "/" << i << "/" << r;
}

void
expect_coo_near(const CooTensor& a, const CooTensor& b, double tol)
{
    ASSERT_EQ(a.dims(), b.dims());
    ASSERT_EQ(a.nnz(), b.nnz());
    for (Size p = 0; p < a.nnz(); ++p) {
        ASSERT_EQ(a.coordinate(p), b.coordinate(p)) << "nnz " << p;
        ASSERT_NEAR(a.value(p), b.value(p),
                    tol * std::abs(a.value(p)) + tol)
            << "nnz " << p;
    }
}

TEST_F(SimdTest, TtmChainFusedMatchesStepwiseOrder3)
{
    Rng rng(7);
    const CooTensor x = CooTensor::random({24, 20, 16}, 500, rng);
    std::vector<DenseMatrix> mats;
    mats.push_back(DenseMatrix::random(24, 3, rng));
    mats.push_back(DenseMatrix::random(20, 4, rng));
    mats.push_back(DenseMatrix::random(16, 5, rng));
    const CooTensor fused = ttm_chain(x, mats, kNoMode, true);
    const CooTensor stepwise = ttm_chain(x, mats, kNoMode, false);
    expect_coo_near(fused, stepwise, 1e-3);
}

TEST_F(SimdTest, TtmChainFusedMatchesStepwiseOrder4)
{
    Rng rng(8);
    const CooTensor x = CooTensor::random({14, 12, 10, 8}, 400, rng);
    std::vector<DenseMatrix> mats;
    mats.push_back(DenseMatrix::random(14, 2, rng));
    mats.push_back(DenseMatrix::random(12, 3, rng));
    mats.push_back(DenseMatrix::random(10, 4, rng));
    mats.push_back(DenseMatrix::random(8, 5, rng));
    const CooTensor fused = ttm_chain(x, mats, kNoMode, true);
    const CooTensor stepwise = ttm_chain(x, mats, kNoMode, false);
    expect_coo_near(fused, stepwise, 1e-3);
}

TEST_F(SimdTest, TtmChainSkipModeUnaffectedByFuseFlag)
{
    Rng rng(9);
    const CooTensor x = CooTensor::random({24, 20, 16}, 500, rng);
    std::vector<DenseMatrix> mats;
    mats.push_back(DenseMatrix::random(24, 3, rng));
    mats.push_back(DenseMatrix::random(20, 4, rng));
    mats.push_back(DenseMatrix::random(16, 5, rng));
    // With a skipped mode only one contraction remains once the
    // intermediate is semi-sparse: the fused endgame must not fire.
    const CooTensor fused = ttm_chain(x, mats, 1, true);
    const CooTensor stepwise = ttm_chain(x, mats, 1, false);
    expect_coo_near(fused, stepwise, 0.0);
}

TEST_F(SimdTest, TtmScooFused2RejectsBadModeSets)
{
    Rng rng(10);
    const CooTensor x = CooTensor::random({12, 10, 8}, 200, rng);
    const DenseMatrix u0 = DenseMatrix::random(12, 3, rng);
    const DenseMatrix u1 = DenseMatrix::random(10, 4, rng);
    const DenseMatrix u2 = DenseMatrix::random(8, 5, rng);
    // ttm_coo leaves modes 1 and 2 sparse.
    const ScooTensor semi = ttm_coo(x, u0, 0);
    EXPECT_THROW(ttm_scoo_fused2(semi, u1, 1, u1, 1), PastaError);
    EXPECT_THROW(ttm_scoo_fused2(semi, u0, 0, u2, 2), PastaError);
    const CooTensor ok = ttm_scoo_fused2(semi, u1, 1, u2, 2);
    EXPECT_GT(ok.nnz(), 0u);
    // Swapped argument order contracts the same modes.
    const CooTensor swapped = ttm_scoo_fused2(semi, u2, 2, u1, 1);
    expect_coo_near(ok, swapped, 0.0);
}

}  // namespace
}  // namespace pasta
