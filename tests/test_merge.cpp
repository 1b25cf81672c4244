// Tests for the parallel merge engine (core/merge.*) and every consumer
// rewired onto it: general TEW (CPU, HiCOO re-blocked, simulated GPU
// two-phase), COO duplicate coalescing, and the bulk-fill plan builders.
// The engine's contract is bit-identical output at every worker count,
// so the checks compare raw index/value arrays with operator==, not an
// epsilon.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "core/coo_tensor.hpp"
#include "core/merge.hpp"
#include "gpusim/gpu_kernels.hpp"
#include "kernels/tew.hpp"
#include "kernels/ttv.hpp"
#include "validate/diff.hpp"

namespace pasta {
namespace {

/// RAII thread-count override so a test can force a worker count without
/// leaking it into later tests.
class ScopedThreads {
  public:
    explicit ScopedThreads(int n) : saved_(num_threads())
    {
        set_num_threads(n);
    }
    ~ScopedThreads() { set_num_threads(saved_); }

  private:
    int saved_;
};

/// Two random tensors over the same dims whose patterns overlap in
/// roughly `overlap_pct` percent of coordinates: y reuses a prefix of
/// x's coordinates and draws the rest fresh.
std::pair<CooTensor, CooTensor>
overlapping_pair(const std::vector<Index>& dims, Size nnz,
                 unsigned overlap_pct, std::uint64_t seed)
{
    Rng rng(seed);
    CooTensor x = CooTensor::random(dims, nnz, rng);
    CooTensor fresh = CooTensor::random(dims, nnz, rng);
    const Size shared = nnz * overlap_pct / 100;
    CooTensor y(dims);
    for (Size p = 0; p < shared; ++p)
        y.append(x.coordinate(p), rng.next_float() + 0.5f);
    for (Size p = shared; p < nnz; ++p)
        y.append(fresh.coordinate(p), rng.next_float() + 0.5f);
    y.canonicalize(DuplicatePolicy::kSum);
    return {x, y};
}

/// Exact (bit-level) equality of two COO tensors: dims, every index
/// array, and the value array.
void
expect_identical(const CooTensor& got, const CooTensor& want,
                 const char* what)
{
    ASSERT_EQ(got.dims(), want.dims()) << what;
    ASSERT_EQ(got.nnz(), want.nnz()) << what;
    for (Size m = 0; m < want.order(); ++m)
        EXPECT_EQ(got.mode_indices(m), want.mode_indices(m))
            << what << " mode " << m;
    EXPECT_EQ(got.values(), want.values()) << what;
}

TEST(ExclusiveScan, TotalsAndOffsets)
{
    std::vector<Size> counts = {3, 0, 2, 5};
    EXPECT_EQ(merge::exclusive_scan(counts), 10u);
    EXPECT_EQ(counts, (std::vector<Size>{0, 3, 3, 5}));
    std::vector<Size> empty;
    EXPECT_EQ(merge::exclusive_scan(empty), 0u);
}

TEST(MergePartition, CoversBothStreamsMonotonically)
{
    Rng rng(11);
    CooTensor x = CooTensor::random({64, 64, 64}, 500, rng);
    CooTensor y = CooTensor::random({64, 64, 64}, 300, rng);
    merge::MergeKeys keys(x, y, x.dims());
    EXPECT_EQ(keys.path(), merge::MergePath::kMerged64Key);
    for (Size segments : {Size{1}, Size{2}, Size{3}, Size{7}, Size{16}}) {
        merge::MergePartition part = keys.partition(segments);
        ASSERT_GE(part.segments(), 1u);
        EXPECT_EQ(part.a.front(), 0u);
        EXPECT_EQ(part.b.front(), 0u);
        EXPECT_EQ(part.a.back(), x.nnz());
        EXPECT_EQ(part.b.back(), y.nnz());
        for (Size s = 0; s + 1 < part.a.size(); ++s) {
            EXPECT_LE(part.a[s], part.a[s + 1]);
            EXPECT_LE(part.b[s], part.b[s + 1]);
        }
    }
}

TEST(MergePartition, NeverSplitsMatchedPairs)
{
    // All coordinates shared: any boundary that splits a matched pair
    // would double-count it under intersection.
    auto [x, y] = overlapping_pair({32, 32}, 400, 100, 12);
    merge::MergeKeys keys(x, y, x.dims());
    for (Size segments : {Size{2}, Size{3}, Size{5}, Size{13}}) {
        merge::MergePartition part = keys.partition(segments);
        Size total = 0;
        for (Size s = 0; s < part.segments(); ++s)
            total += keys.count_segment(part, s,
                                        merge::MergeSemantics::kIntersect);
        EXPECT_EQ(total, x.nnz()) << segments << " segments";
    }
}

TEST(TewGeneralMerge, EmptyOperands)
{
    CooTensor x({8, 8});
    CooTensor y({8, 8});
    y.append({1, 2}, 3.0f);
    EXPECT_EQ(tew_coo_general(x, y, EwOp::kMul).nnz(), 0u);
    CooTensor z = tew_coo_general(x, y, EwOp::kAdd);
    ASSERT_EQ(z.nnz(), 1u);
    EXPECT_FLOAT_EQ(z.at({1, 2}), 3.0f);
    EXPECT_EQ(tew_coo_general(x, x, EwOp::kAdd).nnz(), 0u);
}

TEST(TewGeneralMerge, FullyDisjointPatterns)
{
    CooTensor x({8, 8});
    x.append({0, 0}, 1.0f);
    x.append({2, 2}, 2.0f);
    CooTensor y({8, 8});
    y.append({1, 1}, 10.0f);
    y.append({3, 3}, 20.0f);
    CooTensor add = tew_coo_general(x, y, EwOp::kAdd);
    EXPECT_EQ(add.nnz(), 4u);
    EXPECT_FLOAT_EQ(add.at({2, 2}), 2.0f);
    EXPECT_FLOAT_EQ(add.at({3, 3}), 20.0f);
    EXPECT_TRUE(add.is_sorted_lexicographic());
    EXPECT_EQ(tew_coo_general(x, y, EwOp::kMul).nnz(), 0u);
    EXPECT_EQ(tew_coo_general(x, y, EwOp::kDiv).nnz(), 0u);
}

TEST(TewGeneralMerge, MulAndDivDropUnmatched)
{
    auto [x, y] = overlapping_pair({16, 16, 16}, 120, 50, 13);
    for (EwOp op : {EwOp::kMul, EwOp::kDiv}) {
        CooTensor z = tew_coo_general(x, y, op);
        for (Size p = 0; p < z.nnz(); ++p) {
            const Coordinate c = z.coordinate(p);
            EXPECT_NE(x.at(c), 0.0f) << ew_op_name(op);
            EXPECT_NE(y.at(c), 0.0f) << ew_op_name(op);
        }
        validate::diff_tew_general(op, x, y, z).require();
    }
}

TEST(TewGeneralMerge, MismatchedDimsTakeMaxExtent)
{
    CooTensor x({4, 16});
    x.append({3, 15}, 1.0f);
    CooTensor y({16, 4});
    y.append({15, 3}, 2.0f);
    CooTensor z = tew_coo_general(x, y, EwOp::kSub);
    EXPECT_EQ(z.dims(), (std::vector<Index>{16, 16}));
    EXPECT_FLOAT_EQ(z.at({3, 15}), 1.0f);
    EXPECT_FLOAT_EQ(z.at({15, 3}), -2.0f);
}

TEST(TewGeneralMerge, BitIdenticalToSerialAtEveryThreadCount)
{
    auto [x, y] = overlapping_pair({64, 64, 64}, 1000, 50, 14);
    for (EwOp op : {EwOp::kAdd, EwOp::kSub, EwOp::kMul, EwOp::kDiv}) {
        const CooTensor want = tew_coo_general_serial(x, y, op);
        for (int threads : {1, 2, 3, 8}) {
            ScopedThreads scope(threads);
            merge::MergePath path;
            CooTensor got = tew_coo_general(x, y, op, &path);
            EXPECT_EQ(path, merge::MergePath::kMerged64Key);
            expect_identical(got, want, ew_op_name(op));
        }
    }
}

TEST(TewGeneralMerge, ComparatorFallbackPastSixtyFourBits)
{
    // 3 modes x 30 bits = 90 bits: no 64-bit key exists.
    const std::vector<Index> dims = {1u << 30, 1u << 30, 1u << 30};
    Rng rng(15);
    CooTensor x = CooTensor::random(dims, 300, rng);
    CooTensor y = CooTensor::random(dims, 300, rng);
    const CooTensor want = tew_coo_general_serial(x, y, EwOp::kAdd);
    for (int threads : {1, 3}) {
        ScopedThreads scope(threads);
        merge::MergePath path;
        CooTensor got = tew_coo_general(x, y, EwOp::kAdd, &path);
        EXPECT_EQ(path, merge::MergePath::kMergedCmp);
        EXPECT_STREQ(merge::merge_path_name(path), "merged-cmp");
        expect_identical(got, want, "fallback add");
    }
}

TEST(TewGeneralMerge, OracleAcceptsAllOpsAndRejectsCorruption)
{
    auto [x, y] = overlapping_pair({32, 32}, 200, 50, 16);
    for (EwOp op : {EwOp::kAdd, EwOp::kSub, EwOp::kMul, EwOp::kDiv}) {
        CooTensor z = tew_coo_general(x, y, op);
        validate::DiffReport report = validate::diff_tew_general(op, x, y, z);
        EXPECT_TRUE(report.ok()) << report.summary();
    }
    CooTensor z = tew_coo_general(x, y, EwOp::kAdd);
    z.values()[z.nnz() / 2] += 1.0f;
    EXPECT_FALSE(validate::diff_tew_general(EwOp::kAdd, x, y, z).ok());
}

TEST(TewHicooGeneral, MergesAcrossDifferentBlockings)
{
    auto [x, y] = overlapping_pair({64, 64, 64}, 600, 50, 17);
    HiCooTensor hx = coo_to_hicoo(x, 3);
    HiCooTensor hy = coo_to_hicoo(y, 5);  // non-identical blocking
    merge::MergePath path;
    HiCooTensor hz = tew_hicoo_general(hx, hy, EwOp::kAdd, 0, &path);
    EXPECT_EQ(path, merge::MergePath::kMerged64Key);
    EXPECT_EQ(hz.block_bits(), hx.block_bits());
    CooTensor got = hicoo_to_coo(hz);
    got.canonicalize(DuplicatePolicy::kReject);
    expect_identical(got, tew_coo_general_serial(x, y, EwOp::kAdd),
                     "hicoo add");
    HiCooTensor hz4 = tew_hicoo_general(hx, hy, EwOp::kMul, 4);
    EXPECT_EQ(hz4.block_bits(), 4u);
}

TEST(TewGpuGeneral, TwoPhaseMatchesSerialReference)
{
    auto [x, y] = overlapping_pair({64, 64, 64}, 800, 50, 18);
    for (EwOp op : {EwOp::kAdd, EwOp::kSub, EwOp::kMul, EwOp::kDiv}) {
        CooTensor z({1, 1, 1});
        merge::MergePath path;
        gpusim::LaunchProfile profile =
            gpusim::tew_gpu_coo(x, y, op, z, &path);
        EXPECT_EQ(path, merge::MergePath::kMerged64Key);
        EXPECT_GT(profile.dram_bytes, 0u);
        expect_identical(z, tew_coo_general_serial(x, y, op),
                         ew_op_name(op));
        validate::diff_tew_general(op, x, y, z).require();
    }
}

TEST(TewGpuGeneral, SamePatternStillUsesValueSweep)
{
    Rng rng(19);
    CooTensor x = CooTensor::random({16, 16}, 60, rng);
    CooTensor y = x;
    for (auto& v : y.values())
        v = rng.next_float() + 0.5f;
    CooTensor z = x;
    gpusim::tew_gpu_coo(x, y, EwOp::kAdd, z);
    ASSERT_TRUE(z.same_pattern(x));
    for (Size p = 0; p < z.nnz(); ++p)
        EXPECT_FLOAT_EQ(z.value(p), x.value(p) + y.value(p));
}

TEST(ParallelCoalesce, DeterministicAcrossThreadCounts)
{
    // Duplicate-heavy stream: small coordinate space, many repeats.
    Rng rng(20);
    CooTensor base({6, 6});
    for (Size p = 0; p < 500; ++p)
        base.append({rng.next_index(6), rng.next_index(6)},
                    rng.next_float());
    base.sort_lexicographic();
    const Size dups = base.count_duplicates();
    EXPECT_GT(dups, 0u);

    CooTensor want;
    for (int threads : {1, 2, 3, 8}) {
        ScopedThreads scope(threads);
        CooTensor c = base;
        c.coalesce();
        EXPECT_EQ(c.nnz(), base.nnz() - dups);
        EXPECT_EQ(c.count_duplicates(), 0u);
        if (threads == 1)
            want = c;
        else
            expect_identical(c, want, "coalesce");
    }
}

TEST(ParallelCoalesce, CanonicalizeRejectsAndSums)
{
    CooTensor t({4, 4});
    t.append({2, 2}, 1.0f);
    t.append({2, 2}, 2.0f);
    t.append({0, 1}, 5.0f);
    CooTensor rejected = t;
    EXPECT_THROW(rejected.canonicalize(DuplicatePolicy::kReject),
                 PastaError);
    t.canonicalize(DuplicatePolicy::kSum);
    EXPECT_EQ(t.nnz(), 2u);
    EXPECT_FLOAT_EQ(t.at({2, 2}), 3.0f);
    CooTensor clean = CooTensor({4, 4});
    clean.append({1, 1}, 1.0f);
    clean.canonicalize(DuplicatePolicy::kReject);  // no-throw fast path
    EXPECT_EQ(clean.nnz(), 1u);
}

TEST(BulkFill, PlanBuildersMatchAppendSemantics)
{
    // The bulk-filled TTV plan pattern must be exactly what per-fiber
    // appends produced before: fiber heads in sorted order.
    Rng rng(21);
    CooTensor x = CooTensor::random({24, 24, 24}, 400, rng);
    CooTtvPlan plan = ttv_plan_coo(x, 1);
    const CooTensor& pat = plan.out_pattern;
    ASSERT_EQ(pat.nnz(), plan.fibers.num_fibers());
    EXPECT_TRUE(pat.is_sorted_lexicographic());
    for (Size f = 0; f < pat.nnz(); ++f) {
        const Size head = plan.fibers.fptr()[f];
        Size o = 0;
        for (Size m = 0; m < x.order(); ++m) {
            if (m == 1)
                continue;
            EXPECT_EQ(pat.index(o, f), plan.fibers.sorted().index(m, head));
            ++o;
        }
        EXPECT_EQ(pat.value(f), 0.0f);
    }
}

}  // namespace
}  // namespace pasta
