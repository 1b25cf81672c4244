// Tests for the SIMD micro-kernel layer: ISA dispatch/env parsing, every
// primitive bit-compared against the scalar path at widths 1..64
// (including non-multiple-of-lane remainders), forced-dispatch kernel
// runs, the heap-scratch fallback for rank > kMaxStackRank, and the
// fused TTM-chain driver against its stepwise baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/rank_scratch.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttm_scoo.hpp"
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

/// The ISA cache and PASTA_SIMD are process-global; every
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
        simd::reset_isa_cache();
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

bool
same_bits(const DenseMatrix& a, const DenseMatrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(Value)) == 0;
}

TEST_F(SimdTest, MttkrpForcedDispatchBitIdenticalToScalarPath)
{
    // Single worker: every ISA's body does the scalar body's multiplies
    // and adds in the same order, so at a fixed schedule the whole kernel
    // gives the same bits.  Order 1 has no factor to multiply (the value
    // alone); ranks straddle lane boundaries and rank 300 exceeds
    // kMaxStackRank.
    set_num_threads(1);
    struct Shape {
        std::vector<Index> dims;
        Size nnz;
    };
    const Shape shapes[] = {{{60}, 40},
                            {{30, 40}, 300},
                            {{24, 16, 20}, 400},
                            {{9, 8, 7, 6}, 400},
                            {{5, 4, 5, 4, 5, 4, 5, 4}, 400}};
    for (const Shape& shape : shapes) {
        const Size order = shape.dims.size();
        for (Size rank : {1u, 7u, 16u, 17u, 33u, 300u}) {
            Problem prob = make_problem(shape.dims, shape.nnz, rank,
                                        77 + rank + order);
            const HiCooTensor hicoo = coo_to_hicoo(prob.x, 2);
            const FactorList f = prob.factors();
            for (Size mode = 0; mode < order; ++mode) {
                const Index dim = prob.x.dim(mode);
                const auto run_all = [&] {
                    std::vector<DenseMatrix> outs(4, DenseMatrix(dim, rank));
                    mttkrp_coo_atomic(prob.x, f, mode, outs[0]);
                    mttkrp_coo_privatized(prob.x, f, mode, outs[1]);
                    mttkrp_hicoo(hicoo, f, mode, outs[2]);
                    mttkrp_hicoo_privatized(hicoo, f, mode, outs[3]);
                    return outs;
                };
                simd::set_isa(simd::Isa::kScalar);
                const std::vector<DenseMatrix> want = run_all();
                for (simd::Isa isa : supported_vector_isas()) {
                    simd::set_isa(isa);
                    const std::vector<DenseMatrix> got = run_all();
                    const char* names[] = {"coo atomic", "coo privatized",
                                           "hicoo", "hicoo privatized"};
                    for (Size k = 0; k < want.size(); ++k)
                        ASSERT_TRUE(same_bits(want[k], got[k]))
                            << names[k] << " isa=" << simd::isa_name(isa)
                            << " order=" << order << " rank=" << rank
                            << " mode=" << mode;
                }
            }
        }
    }
}

// ---- fused MTTKRP bodies vs the per-primitive loops --------------------
//
// The kernels run one fused loop per range.  Before it they called one
// dispatched primitive per step per non-zero: vscale (or vfill at order
// 1), then acc[i] *= row[i] per further mode (the retired
// vmul_accumulate; an in-place vhadamard here, the same multiply), then
// vadd_inplace.  The copies of those loops below, on the same schedules,
// pin the fused bodies to the same multiplies and adds in the same
// order: a reordered or fused (FMA) multiply changes the bits.

/// An MTTKRP stream flattened in the kernel's order: per non-zero its
/// value, output row, non-mode factor rows (mode order) and block (0
/// for COO).
struct FlatStream {
    std::vector<Value> val;
    std::vector<Size> out;
    std::vector<std::vector<const Value*>> rows;
    std::vector<Size> block;
};

FlatStream
flatten(const CooTensor& x, const FactorList& f, Size mode)
{
    FlatStream s;
    for (Size p = 0; p < x.nnz(); ++p) {
        s.val.push_back(x.value(p));
        s.out.push_back(x.index(mode, p));
        s.rows.emplace_back();
        for (Size m = 0; m < x.order(); ++m)
            if (m != mode)
                s.rows.back().push_back(f[m]->row(x.index(m, p)));
        s.block.push_back(0);
    }
    return s;
}

FlatStream
flatten(const HiCooTensor& x, const FactorList& f, Size mode)
{
    FlatStream s;
    for (Size b = 0; b < x.num_blocks(); ++b)
        for (Size p = x.bptr()[b]; p < x.bptr()[b + 1]; ++p) {
            s.val.push_back(x.value(p));
            s.out.push_back(x.coordinate(mode, b, p));
            s.rows.emplace_back();
            for (Size m = 0; m < x.order(); ++m)
                if (m != mode)
                    s.rows.back().push_back(
                        f[m]->row(x.coordinate(m, b, p)));
            s.block.push_back(b);
        }
    return s;
}

/// tmp = the product of non-zero p, one dispatched primitive per step.
void
per_primitive_product(simd::Isa isa, const FlatStream& s, Size p,
                      Value* tmp, Size rank)
{
    const auto& rows = s.rows[p];
    if (rows.empty()) {
        simd::vfill(isa, tmp, s.val[p], rank);
        return;
    }
    simd::vscale(isa, tmp, rows[0], s.val[p], rank);
    for (Size k = 1; k < rows.size(); ++k)
        simd::vhadamard(isa, tmp, tmp, rows[k], rank);
}

/// Adds each product of `order` (stream positions) onto its row, serially.
DenseMatrix
per_primitive_serial(simd::Isa isa, const FlatStream& s, Size dim,
                     Size rank, const std::vector<Size>& order)
{
    DenseMatrix out(dim, rank);
    std::vector<Value> tmp(rank);
    for (Size p : order) {
        per_primitive_product(isa, s, p, tmp.data(), rank);
        simd::vadd_inplace(isa, out.row(s.out[p]), tmp.data(), rank);
    }
    return out;
}

/// The privatized schedule: one private copy per worker range, then
/// dst = private[0] + private[1] + ... row by row.
DenseMatrix
per_primitive_privatized(simd::Isa isa, const FlatStream& s, Size dim,
                         Size rank)
{
    std::vector<DenseMatrix> privates(num_threads(), DenseMatrix(dim, rank));
    parallel_for_worker_ranges(
        0, s.val.size(), [&](int worker, Size first, Size last) {
            std::vector<Value> tmp(rank);
            for (Size p = first; p < last; ++p) {
                per_primitive_product(isa, s, p, tmp.data(), rank);
                simd::vadd_inplace(isa, privates[worker].row(s.out[p]),
                                   tmp.data(), rank);
            }
        });
    DenseMatrix out(dim, rank);
    for (Size i = 0; i < dim; ++i) {
        std::copy_n(privates[0].row(i), rank, out.row(i));
        for (Size t = 1; t < privates.size(); ++t)
            simd::vadd_inplace(isa, out.row(i), privates[t].row(i), rank);
    }
    return out;
}

/// The atomic schedule at one worker: runs of one output row within a
/// block add up (vadd_inplace) before they are added onto the row.
DenseMatrix
per_primitive_runs(simd::Isa isa, const FlatStream& s, Size dim, Size rank)
{
    DenseMatrix out(dim, rank);
    std::vector<Value> acc(rank);
    std::vector<Value> tmp(rank);
    const auto flush = [&](Size row) {
        Value* dst = out.row(row);
        for (Size r = 0; r < rank; ++r)
            dst[r] += acc[r];
    };
    for (Size p = 0; p < s.val.size(); ++p) {
        per_primitive_product(isa, s, p, tmp.data(), rank);
        if (p > 0 && s.block[p] == s.block[p - 1] &&
            s.out[p] == s.out[p - 1]) {
            simd::vadd_inplace(isa, acc.data(), tmp.data(), rank);
        } else {
            if (p > 0)
                flush(s.out[p - 1]);
            acc = tmp;
        }
    }
    if (!s.val.empty())
        flush(s.out.back());
    return out;
}

/// Every MTTKRP schedule of `prob` against its per-primitive loop, per
/// mode, under each ISA at 1, 2 and 4 threads.  The shape must make
/// mttkrp_hicoo run the block-owner schedule at every thread count.
void
expect_fused_bodies_match(const Problem& prob, Size rank)
{
    std::vector<simd::Isa> isas = supported_vector_isas();
    isas.insert(isas.begin(), simd::Isa::kScalar);
    const HiCooTensor hicoo = coo_to_hicoo(prob.x, 4);
    const FactorList f = prob.factors();
    for (Size mode = 0; mode < prob.x.order(); ++mode) {
        const Size dim = prob.x.dim(mode);
        const FlatStream cs = flatten(prob.x, f, mode);
        const FlatStream hs = flatten(hicoo, f, mode);
        std::vector<Size> owner_order;
        for (Size b : hicoo.owner_schedule(mode).blocks)
            for (Size p = hicoo.bptr()[b]; p < hicoo.bptr()[b + 1]; ++p)
                owner_order.push_back(p);
        for (simd::Isa isa : isas) {
            simd::set_isa(isa);
            for (int threads : {1, 2, 4}) {
                set_num_threads(threads);
                const auto where = [&](const char* kernel) {
                    return std::string(kernel) + " order=" +
                           std::to_string(prob.x.order()) + " isa=" +
                           simd::isa_name(isa) + " threads=" +
                           std::to_string(threads) + " rank=" +
                           std::to_string(rank) + " mode=" +
                           std::to_string(mode);
                };
                DenseMatrix out(dim, rank);
                mttkrp_coo_privatized(prob.x, f, mode, out);
                ASSERT_TRUE(same_bits(
                    out, per_primitive_privatized(isa, cs, dim, rank)))
                    << where("coo privatized");
                mttkrp_hicoo_privatized(hicoo, f, mode, out);
                ASSERT_TRUE(same_bits(
                    out, per_primitive_privatized(isa, hs, dim, rank)))
                    << where("hicoo privatized");
                ASSERT_EQ(mttkrp_hicoo(hicoo, f, mode, out),
                          MttkrpVariant::kBlockOwner)
                    << where("hicoo");
                ASSERT_TRUE(same_bits(out, per_primitive_serial(
                                               isa, hs, dim, rank,
                                               owner_order)))
                    << where("hicoo block-owner");
                if (threads > 1)
                    continue;  // atomics have a fixed order on one worker
                mttkrp_coo_atomic(prob.x, f, mode, out);
                ASSERT_TRUE(
                    same_bits(out, per_primitive_runs(isa, cs, dim, rank)))
                    << where("coo atomic");
                mttkrp_hicoo_atomic(hicoo, f, mode, out);
                ASSERT_TRUE(
                    same_bits(out, per_primitive_runs(isa, hs, dim, rank)))
                    << where("hicoo atomic");
            }
        }
    }
}

TEST_F(SimdTest, MttkrpFusedBodiesMatchPerPrimitiveLoops)
{
    // 2 x threads x dim_mode > nnz refuses the private copies at 2 and 4
    // threads, and 16-wide blocks give every mode at least 8 owner
    // groups, so HiCOO runs block-owner at every thread count.  Order 3
    // takes the bodies specialized for two non-mode factors, order 4 the
    // general ones.
    const std::vector<Index> shapes[] = {{600, 500, 400},
                                         {600, 500, 450, 400}};
    for (const std::vector<Index>& dims : shapes)
        for (Size rank : {7u, 16u, 33u}) {
            expect_fused_bodies_match(
                make_problem(dims, 1500, rank, 5 + rank), rank);
            if (HasFatalFailure())
                return;
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

// ---- fused TTM chain ------------------------------------------------

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
