// Tests for the GPU simulation substrate: SIMT launch semantics, the
// timing model, and the GPU kernel implementations vs. CPU results.
#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "common/rng.hpp"
#include "core/convert.hpp"
#include "gpusim/device.hpp"
#include "gpusim/gpu_kernels.hpp"
#include "gpusim/timing_model.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/tew.hpp"
#include "kernels/ts.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttv.hpp"

namespace pasta::gpusim {
namespace {

TEST(Device, LaunchRunsEveryThreadOnce)
{
    const Size n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits)
        h = 0;
    launch({grid_blocks(n, 64), 1, 1}, {64, 1, 1},
           [&](const ThreadCtx& ctx) {
               const Size tid = ctx.global_x();
               if (tid < n)
                   ++hits[tid];
           });
    for (Size i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(Device, TwoDimensionalThreadBlocks)
{
    // 2-D block: every (x, y) pair must appear once per block.
    std::atomic<int> count{0};
    launch({3, 1, 1}, {4, 8, 1}, [&](const ThreadCtx& ctx) {
        EXPECT_LT(ctx.thread_idx.x, 4u);
        EXPECT_LT(ctx.thread_idx.y, 8u);
        ++count;
    });
    EXPECT_EQ(count.load(), 3 * 4 * 8);
}

TEST(Device, GridBlocksCeilDiv)
{
    EXPECT_EQ(grid_blocks(0, 256), 0u);
    EXPECT_EQ(grid_blocks(1, 256), 1u);
    EXPECT_EQ(grid_blocks(256, 256), 1u);
    EXPECT_EQ(grid_blocks(257, 256), 2u);
}

TEST(Device, AtomicAddAccumulatesAcrossBlocks)
{
    Value total = 0;
    launch({16, 1, 1}, {64, 1, 1},
           [&](const ThreadCtx&) { atomic_add(&total, 1.0f); });
    EXPECT_FLOAT_EQ(total, 16.0f * 64.0f);
}

TEST(TimingModel, LptMakespanBalanced)
{
    // 8 equal items over 4 bins: makespan = 2 items.
    EXPECT_DOUBLE_EQ(lpt_makespan(std::vector<double>(8, 1.0), 4), 2.0);
}

TEST(TimingModel, LptMakespanDominatedByLargestItem)
{
    std::vector<double> work = {100.0, 1.0, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(lpt_makespan(work, 4), 100.0);
}

TEST(TimingModel, LptMakespanEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(lpt_makespan({}, 8), 0.0);
}

TEST(TimingModel, MemoryBoundTimeScalesWithBytes)
{
    const DeviceSpec spec = tesla_p100();
    LaunchProfile small;
    small.flops = 1000;
    small.dram_bytes = 1 << 20;
    small.working_set_bytes = 1 << 30;  // not cached
    LaunchProfile big = small;
    big.dram_bytes = Size{1} << 30;
    big.working_set_bytes = Size{1} << 31;
    EXPECT_GT(estimate_seconds(spec, big), estimate_seconds(spec, small));
}

TEST(TimingModel, CachedWorkingSetIsFaster)
{
    const DeviceSpec spec = tesla_v100();
    LaunchProfile prof;
    prof.flops = 1000;
    prof.dram_bytes = 1 << 22;
    prof.working_set_bytes = 1 << 22;  // fits the 6 MB L2
    LaunchProfile uncached = prof;
    uncached.working_set_bytes = Size{1} << 30;
    EXPECT_LT(estimate_seconds(spec, prof),
              estimate_seconds(spec, uncached));
}

TEST(TimingModel, ImbalancedBlocksSlowerThanBalanced)
{
    const DeviceSpec spec = tesla_p100();
    LaunchProfile balanced;
    balanced.dram_bytes = Size{1} << 28;
    balanced.working_set_bytes = Size{1} << 30;
    balanced.block_bytes.assign(
        1024, static_cast<double>(balanced.dram_bytes) / 1024);
    LaunchProfile skewed = balanced;
    // Same total traffic, all concentrated in a handful of blocks.
    skewed.block_bytes.assign(1024, 0.0);
    for (int i = 0; i < 4; ++i)
        skewed.block_bytes[i] =
            static_cast<double>(skewed.dram_bytes) / 4;
    EXPECT_GT(estimate_seconds(spec, skewed),
              estimate_seconds(spec, balanced));
}

TEST(TimingModel, AtomicsAddTimeAndVoltaIsCheaper)
{
    LaunchProfile prof;
    prof.dram_bytes = 1 << 24;
    prof.working_set_bytes = Size{1} << 30;
    LaunchProfile with_atomics = prof;
    with_atomics.atomics = Size{1} << 26;
    const DeviceSpec p100 = tesla_p100();
    const DeviceSpec v100 = tesla_v100();
    EXPECT_GT(estimate_seconds(p100, with_atomics),
              estimate_seconds(p100, prof));
    const double p100_penalty = estimate_seconds(p100, with_atomics) -
                                estimate_seconds(p100, prof);
    const double v100_penalty = estimate_seconds(v100, with_atomics) -
                                estimate_seconds(v100, prof);
    EXPECT_LT(v100_penalty, p100_penalty);
}

TEST(TimingModel, ProfileMergeAccumulates)
{
    LaunchProfile a;
    a.flops = 10;
    a.dram_bytes = 100;
    a.atomics = 1;
    a.working_set_bytes = 50;
    a.block_bytes = {1.0};
    LaunchProfile b;
    b.flops = 20;
    b.dram_bytes = 200;
    b.atomics = 2;
    b.working_set_bytes = 500;
    b.block_bytes = {2.0, 3.0};
    a.merge(b);
    EXPECT_EQ(a.flops, 30u);
    EXPECT_EQ(a.dram_bytes, 300u);
    EXPECT_EQ(a.atomics, 3u);
    EXPECT_EQ(a.working_set_bytes, 500u);
    EXPECT_EQ(a.block_bytes.size(), 3u);
}

class GpuKernels : public ::testing::Test {
  protected:
    void SetUp() override
    {
        Rng rng(42);
        x_ = CooTensor::random({24, 24, 24}, 400, rng);
        y_ = x_;
        for (auto& v : y_.values())
            v = rng.next_float() + 0.5f;
        v_ = DenseVector::random(24, rng);
        u_ = DenseMatrix::random(24, 8, rng);
        for (int m = 0; m < 3; ++m)
            mats_.push_back(DenseMatrix::random(24, 8, rng));
    }

    FactorList factors() const
    {
        return {&mats_[0], &mats_[1], &mats_[2]};
    }

    CooTensor x_;
    CooTensor y_;
    DenseVector v_;
    DenseMatrix u_;
    std::vector<DenseMatrix> mats_;
};

TEST_F(GpuKernels, TewMatchesCpu)
{
    CooTensor z = x_;
    LaunchProfile prof = tew_gpu_coo(x_, y_, EwOp::kAdd, z);
    CooTensor expected = tew_coo(x_, y_, EwOp::kAdd);
    EXPECT_TRUE(tensors_almost_equal(z, expected));
    EXPECT_EQ(prof.flops, x_.nnz());
    EXPECT_EQ(prof.dram_bytes, 12 * x_.nnz());
}

TEST_F(GpuKernels, TewHicooMatchesCpu)
{
    HiCooTensor hx = coo_to_hicoo(x_, 3);
    HiCooTensor hy = coo_to_hicoo(y_, 3);
    HiCooTensor hz = hx;
    tew_gpu_hicoo(hx, hy, EwOp::kMul, hz);
    CooTensor expected = tew_coo(x_, y_, EwOp::kMul);
    EXPECT_TRUE(tensors_almost_equal(hicoo_to_coo(hz), expected));
}

TEST_F(GpuKernels, TsMatchesCpu)
{
    CooTensor out = x_;
    LaunchProfile prof = ts_gpu_coo(x_, TsOp::kMul, 2.0f, out);
    CooTensor expected = ts_coo(x_, TsOp::kMul, 2.0f);
    EXPECT_TRUE(tensors_almost_equal(out, expected));
    EXPECT_EQ(prof.dram_bytes, 8 * x_.nnz());
}

TEST_F(GpuKernels, TtvMatchesCpuOnAllModes)
{
    for (Size mode = 0; mode < 3; ++mode) {
        CooTtvPlan plan = ttv_plan_coo(x_, mode);
        CooTensor out = plan.out_pattern;
        LaunchProfile prof = ttv_gpu_coo(plan, v_, out);
        CooTensor expected = ttv_coo(x_, v_, mode);
        EXPECT_TRUE(tensors_almost_equal(out, expected, 1e-3))
            << "mode " << mode;
        EXPECT_EQ(prof.flops, 2 * x_.nnz());
        EXPECT_FALSE(prof.block_bytes.empty());
    }
}

TEST_F(GpuKernels, TtvHicooMatchesCpu)
{
    HicooTtvPlan plan = ttv_plan_hicoo(x_, 1, 3);
    HiCooTensor out = plan.out_pattern;
    ttv_gpu_hicoo(plan, v_, out);
    CooTensor expected = ttv_coo(x_, v_, 1);
    EXPECT_TRUE(
        tensors_almost_equal(hicoo_to_coo(out), expected, 1e-3));
}

TEST_F(GpuKernels, TtmMatchesCpuOnAllModes)
{
    for (Size mode = 0; mode < 3; ++mode) {
        CooTtmPlan plan = ttm_plan_coo(x_, mode, 8);
        ScooTensor out = plan.out_pattern;
        LaunchProfile prof = ttm_gpu_coo(plan, u_, out);
        ScooTensor expected = ttm_coo(x_, u_, mode);
        EXPECT_TRUE(tensors_almost_equal(out.to_coo(),
                                         expected.to_coo(), 1e-3))
            << "mode " << mode;
        EXPECT_EQ(prof.atomics, x_.nnz() * 8);
    }
}

TEST_F(GpuKernels, TtmHicooMatchesCpu)
{
    HicooTtmPlan plan = ttm_plan_hicoo(x_, 2, 8, 3);
    SHiCooTensor out = plan.out_pattern;
    ttm_gpu_hicoo(plan, u_, out);
    ScooTensor expected = ttm_coo(x_, u_, 2);
    EXPECT_TRUE(tensors_almost_equal(out.to_scoo().to_coo(),
                                     expected.to_coo(), 1e-3));
}

/// Non-zeros per mode-`mode` fiber of `x`, keyed by the fiber's other
/// coordinates.
std::map<Coordinate, Size>
fiber_sizes(const CooTensor& x, Size mode)
{
    std::map<Coordinate, Size> sizes;
    for (Size p = 0; p < x.nnz(); ++p) {
        Coordinate c = x.coordinate(p);
        c.erase(c.begin() + static_cast<std::ptrdiff_t>(mode));
        ++sizes[c];
    }
    return sizes;
}

/// Table I's TTV bytes per thread block: 12 per non-zero and 12 per
/// fiber, one fiber per thread, fibers in output order.
std::vector<double>
ttv_block_bytes_of(const std::map<Coordinate, Size>& sizes,
                   const std::vector<Coordinate>& fiber_order)
{
    std::vector<double> bytes(grid_blocks(fiber_order.size(),
                                          kDefaultBlockThreads),
                              0.0);
    for (Size f = 0; f < fiber_order.size(); ++f)
        bytes[f / kDefaultBlockThreads] +=
            12.0 * static_cast<double>(sizes.at(fiber_order[f])) + 12.0;
    return bytes;
}

TEST_F(GpuKernels, TtvLaunchProfilesFollowTableOne)
{
    const Size mode = 1;
    const auto sizes = fiber_sizes(x_, mode);
    const Size m = x_.nnz();
    const Size mf = sizes.size();
    auto expect_profile = [&](const LaunchProfile& prof,
                              const std::vector<Coordinate>& order) {
        EXPECT_EQ(order.size(), mf);
        EXPECT_EQ(prof.flops, 2 * m);
        EXPECT_EQ(prof.dram_bytes, 12 * m + 12 * mf);
        EXPECT_EQ(prof.working_set_bytes,
                  8 * m + kValueBytes * v_.size() + 12 * mf);
        EXPECT_EQ(prof.atomics, 0u);
        EXPECT_EQ(prof.block_bytes, ttv_block_bytes_of(sizes, order));
    };
    {
        CooTtvPlan plan = ttv_plan_coo(x_, mode);
        CooTensor out = plan.out_pattern;
        const LaunchProfile prof = ttv_gpu_coo(plan, v_, out);
        std::vector<Coordinate> order;
        for (Size f = 0; f < out.nnz(); ++f)
            order.push_back(out.coordinate(f));
        expect_profile(prof, order);
    }
    {
        HicooTtvPlan plan = ttv_plan_hicoo(x_, mode, 3);
        HiCooTensor out = plan.out_pattern;
        const LaunchProfile prof = ttv_gpu_hicoo(plan, v_, out);
        std::vector<Coordinate> order;
        for (Size b = 0; b < out.num_blocks(); ++b)
            for (Size p = out.bptr()[b]; p < out.bptr()[b + 1]; ++p)
                order.push_back({out.coordinate(0, b, p),
                                 out.coordinate(1, b, p)});
        expect_profile(prof, order);
    }
}

TEST_F(GpuKernels, TtmLaunchProfilesFollowTableOne)
{
    const Size mode = 0;
    const Size rank = u_.cols();
    const Size m = x_.nnz();
    const Size mf = fiber_sizes(x_, mode).size();
    // 2-D thread blocks of rank x (256 / rank) threads, one non-zero per
    // row of threads, bytes split evenly over the thread blocks.
    const Size grid = grid_blocks(m, kDefaultBlockThreads / rank);
    auto expect_profile = [&](const LaunchProfile& prof, Size dram) {
        EXPECT_EQ(prof.flops, 2 * m * rank);
        EXPECT_EQ(prof.dram_bytes, dram);
        EXPECT_EQ(prof.working_set_bytes,
                  8 * m + (x_.dim(mode) + mf) * rank * kValueBytes);
        EXPECT_EQ(prof.atomics, m * rank);
        EXPECT_EQ(prof.block_bytes,
                  std::vector<double>(grid, static_cast<double>(dram) /
                                                static_cast<double>(grid)));
    };
    {
        CooTtmPlan plan = ttm_plan_coo(x_, mode, rank);
        ScooTensor out = plan.out_pattern;
        ASSERT_EQ(out.num_sparse(), mf);
        // Table I, COO-TTM: 4MR + 4 M_F R + 8M + 16 M_F.
        expect_profile(ttm_gpu_coo(plan, u_, out),
                       4 * m * rank + 4 * mf * rank + 8 * m + 16 * mf);
    }
    {
        HicooTtmPlan plan = ttm_plan_hicoo(x_, mode, rank, 3);
        SHiCooTensor out = plan.out_pattern;
        ASSERT_EQ(out.num_sparse(), mf);
        // Table I, HiCOO-TTM: 4MR + 4 M_F R + 8M + 8 M_F.
        expect_profile(ttm_gpu_hicoo(plan, u_, out),
                       4 * m * rank + 4 * mf * rank + 8 * m + 8 * mf);
    }
}

TEST_F(GpuKernels, MttkrpMatchesCpuOnAllModes)
{
    for (Size mode = 0; mode < 3; ++mode) {
        DenseMatrix out(24, 8);
        LaunchProfile prof = mttkrp_gpu_coo(x_, factors(), mode, out);
        DenseMatrix expected(24, 8);
        mttkrp_coo_seq(x_, factors(), mode, expected);
        EXPECT_LT(max_abs_diff(out, expected), 1e-3) << "mode " << mode;
        EXPECT_EQ(prof.flops, 3 * x_.nnz() * 8);
    }
}

TEST_F(GpuKernels, MttkrpHicooMatchesCpuAndReportsImbalance)
{
    HiCooTensor hx = coo_to_hicoo(x_, 3);
    DenseMatrix out(24, 8);
    LaunchProfile prof = mttkrp_gpu_hicoo(hx, factors(), 0, out);
    DenseMatrix expected(24, 8);
    mttkrp_coo_seq(x_, factors(), 0, expected);
    EXPECT_LT(max_abs_diff(out, expected), 1e-3);
    // One profile entry per tensor block.
    EXPECT_EQ(prof.block_bytes.size(), hx.num_blocks());
}

TEST_F(GpuKernels, HicooMttkrpSlowerThanCooOnSkewedBlocks)
{
    // Build a tensor with one massive block and many singletons: the
    // block-parallel HiCOO GPU kernel must model slower than COO
    // (Observation 4).
    CooTensor skew({256, 256, 256});
    Rng rng(11);
    for (Index i = 0; i < 6; ++i)
        for (Index j = 0; j < 6; ++j)
            for (Index k = 0; k < 6; ++k)
                skew.append({i, j, k}, 1.0f);  // dense corner block
    for (int p = 0; p < 300; ++p)
        skew.append({rng.next_index(256), rng.next_index(256),
                     rng.next_index(256)},
                    1.0f);
    skew.sort_lexicographic();
    skew.coalesce();
    std::vector<DenseMatrix> mats;
    for (int m = 0; m < 3; ++m)
        mats.push_back(DenseMatrix::random(256, 16, rng));
    FactorList fl = {&mats[0], &mats[1], &mats[2]};
    HiCooTensor hx = coo_to_hicoo(skew, 3);

    DenseMatrix out1(256, 16);
    DenseMatrix out2(256, 16);
    LaunchProfile coo_prof = mttkrp_gpu_coo(skew, fl, 0, out1);
    LaunchProfile hicoo_prof = mttkrp_gpu_hicoo(hx, fl, 0, out2);
    EXPECT_LT(max_abs_diff(out1, out2), 1e-2);
    const DeviceSpec spec = tesla_p100();
    EXPECT_GT(estimate_seconds(spec, hicoo_prof),
              estimate_seconds(spec, coo_prof));
}

}  // namespace
}  // namespace pasta::gpusim
