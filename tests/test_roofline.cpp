// Tests for the Roofline machinery and the Table I cost model.
#include <gtest/gtest.h>

#include "analysis/cost_model.hpp"
#include "analysis/efficiency.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "roofline/ert.hpp"
#include "roofline/machine.hpp"
#include "roofline/roofline.hpp"

namespace pasta {
namespace {

TEST(Machine, PaperPlatformParametersMatchTableIII)
{
    const MachineSpec b = bluesky();
    EXPECT_EQ(b.cores, 24);
    EXPECT_DOUBLE_EQ(b.peak_sp_gflops, 1000.0);
    EXPECT_DOUBLE_EQ(b.mem_bw_gbs, 256.0);
    EXPECT_DOUBLE_EQ(b.llc_mb, 19.0);
    const MachineSpec w = wingtip();
    EXPECT_EQ(w.cores, 56);
    EXPECT_DOUBLE_EQ(w.peak_sp_gflops, 2000.0);
    const MachineSpec p = dgx_1p();
    EXPECT_TRUE(p.is_gpu);
    EXPECT_DOUBLE_EQ(p.mem_bw_gbs, 732.0);
    const MachineSpec v = dgx_1v();
    EXPECT_DOUBLE_EQ(v.peak_sp_gflops, 14900.0);
    EXPECT_DOUBLE_EQ(v.mem_bw_gbs, 900.0);
    EXPECT_EQ(paper_platforms().size(), 4u);
}

TEST(Machine, ErtBandwidthsBelowTheoretical)
{
    for (const auto& spec : paper_platforms()) {
        EXPECT_LT(spec.ert_dram_gbs, spec.mem_bw_gbs) << spec.name;
        EXPECT_GT(spec.ert_llc_gbs, spec.ert_dram_gbs) << spec.name;
    }
}

TEST(Roofline, AttainableIsMinOfRoofs)
{
    // Left of the ridge: bandwidth-limited.
    EXPECT_DOUBLE_EQ(attainable_gflops(1000.0, 200.0, 0.1), 20.0);
    // Right of the ridge: compute-limited.
    EXPECT_DOUBLE_EQ(attainable_gflops(1000.0, 200.0, 100.0), 1000.0);
    EXPECT_THROW(attainable_gflops(0.0, 200.0, 1.0), PastaError);
}

TEST(Roofline, RidgePoint)
{
    EXPECT_DOUBLE_EQ(ridge_point(1000.0, 200.0), 5.0);
}

TEST(Roofline, SampleCurveIsMonotoneAndCapped)
{
    const auto curve = sample_roofline(1000.0, 200.0, 0.01, 100.0, 64);
    ASSERT_EQ(curve.size(), 64u);
    for (Size i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].gflops, curve[i - 1].gflops);
        EXPECT_LE(curve[i].gflops, 1000.0);
    }
    EXPECT_NEAR(curve.front().oi, 0.01, 1e-9);
    EXPECT_NEAR(curve.back().oi, 100.0, 1e-6);
}

TEST(CostModel, TableOneThirdOrderOperationalIntensities)
{
    // Reproduce Table I's OI column for a cubical third-order tensor.
    TensorStats stats;
    stats.order = 3;
    stats.nnz = 1'000'000;
    stats.num_fibers = 100'000;  // I << M_F << M
    stats.num_blocks = 20'000;
    stats.block_size = 128;
    const Size rank = 16;

    const KernelCost tew = kernel_cost(Kernel::kTew, Format::kCoo, stats);
    EXPECT_NEAR(tew.oi(), 1.0 / 12.0, 1e-9);
    const KernelCost ts = kernel_cost(Kernel::kTs, Format::kCoo, stats);
    EXPECT_NEAR(ts.oi(), 1.0 / 8.0, 1e-9);
    const KernelCost ttv = kernel_cost(Kernel::kTtv, Format::kCoo, stats);
    EXPECT_NEAR(ttv.oi(), 1.0 / 6.0, 0.02);  // ~1/6 per the paper
    const KernelCost ttm =
        kernel_cost(Kernel::kTtm, Format::kCoo, stats, rank);
    EXPECT_NEAR(ttm.oi(), 0.5, 0.15);  // ~1/2
    const KernelCost mttkrp =
        kernel_cost(Kernel::kMttkrp, Format::kCoo, stats, rank);
    EXPECT_NEAR(mttkrp.oi(), 0.25, 0.05);  // ~1/4
}

TEST(CostModel, TableOneExactByteFormulas)
{
    TensorStats stats;
    stats.order = 3;
    stats.nnz = 1000;
    stats.num_fibers = 100;
    stats.num_blocks = 10;
    stats.block_size = 128;

    EXPECT_DOUBLE_EQ(
        kernel_cost(Kernel::kTew, Format::kCoo, stats).bytes, 12000.0);
    EXPECT_DOUBLE_EQ(
        kernel_cost(Kernel::kTs, Format::kHicoo, stats).bytes, 8000.0);
    EXPECT_DOUBLE_EQ(
        kernel_cost(Kernel::kTtv, Format::kCoo, stats).bytes,
        12.0 * 1000 + 12.0 * 100);
    // COO-TTM: 4MR + 4 M_F R + 8M + 16 M_F with R=16.
    EXPECT_DOUBLE_EQ(
        kernel_cost(Kernel::kTtm, Format::kCoo, stats, 16).bytes,
        4.0 * 1000 * 16 + 4.0 * 100 * 16 + 8.0 * 1000 + 16.0 * 100);
    // HiCOO-TTM drops one 8 M_F term.
    EXPECT_DOUBLE_EQ(
        kernel_cost(Kernel::kTtm, Format::kHicoo, stats, 16).bytes,
        4.0 * 1000 * 16 + 4.0 * 100 * 16 + 8.0 * 1000 + 8.0 * 100);
    // COO-MTTKRP: 12MR + 16M.
    EXPECT_DOUBLE_EQ(
        kernel_cost(Kernel::kMttkrp, Format::kCoo, stats, 16).bytes,
        12.0 * 1000 * 16 + 16.0 * 1000);
    // HiCOO-MTTKRP: 12R min(n_b B, M) + 7M + 20 n_b; n_b B = 1280 > M.
    EXPECT_DOUBLE_EQ(
        kernel_cost(Kernel::kMttkrp, Format::kHicoo, stats, 16).bytes,
        12.0 * 16 * 1000 + 7.0 * 1000 + 20.0 * 10);
}

TEST(CostModel, HicooMttkrpBeatsCooWhenBlocksAreDense)
{
    // Densely packed blocks: n_b B < M, so the min() kicks in and HiCOO
    // moves fewer bytes (Table I's HiCOO advantage).
    TensorStats stats;
    stats.order = 3;
    stats.nnz = 100'000;
    stats.num_blocks = 50;
    stats.block_size = 128;  // n_b B = 6400 << M
    const double coo =
        kernel_cost(Kernel::kMttkrp, Format::kCoo, stats, 16).bytes;
    const double hicoo =
        kernel_cost(Kernel::kMttkrp, Format::kHicoo, stats, 16).bytes;
    EXPECT_LT(hicoo, coo);
}

TEST(CostModel, FlopsScaleWithOrderForMttkrp)
{
    TensorStats s3;
    s3.order = 3;
    s3.nnz = 1000;
    s3.num_blocks = 1;
    TensorStats s5 = s3;
    s5.order = 5;
    EXPECT_LT(kernel_cost(Kernel::kMttkrp, Format::kCoo, s3, 8).flops,
              kernel_cost(Kernel::kMttkrp, Format::kCoo, s5, 8).flops);
}

TEST(CostModel, ComputeStatsCountsRealStructures)
{
    Rng rng(1);
    CooTensor x = CooTensor::random({32, 32, 32}, 400, rng);
    TensorStats stats = compute_stats(x, 2, 3);
    EXPECT_EQ(stats.order, 3u);
    EXPECT_EQ(stats.nnz, 400u);
    EXPECT_GT(stats.num_fibers, 0u);
    EXPECT_LE(stats.num_fibers, stats.nnz);
    EXPECT_GT(stats.num_blocks, 0u);
    EXPECT_LE(stats.num_blocks, stats.nnz);
    EXPECT_EQ(stats.block_size, 8u);
}

TEST(CostModel, GflopsArithmetic)
{
    EXPECT_DOUBLE_EQ(gflops(2e9, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(gflops(1e9, 0.0), 0.0);
}

TEST(Efficiency, RunMathIsConsistent)
{
    MeasuredRun run;
    run.kernel = Kernel::kTs;
    run.format = Format::kCoo;
    run.seconds = 1e-3;
    run.cost.flops = 1e6;
    run.cost.bytes = 8e6;
    const MachineSpec spec = bluesky();
    EXPECT_DOUBLE_EQ(run_gflops(run), 1.0);
    // Roofline = OI (1/8) x 205 GB/s = 25.625 GFLOPS.
    EXPECT_NEAR(run_roofline_gflops(run, spec), 25.625, 1e-9);
    EXPECT_NEAR(run_efficiency(run, spec), 1.0 / 25.625, 1e-9);
}

TEST(Efficiency, SummaryFiltersAndAverages)
{
    MeasuredRun a;
    a.kernel = Kernel::kTs;
    a.format = Format::kCoo;
    a.seconds = 1e-3;
    a.cost = {1e6, 8e6};
    MeasuredRun b = a;
    b.seconds = 0.5e-3;
    MeasuredRun other = a;
    other.kernel = Kernel::kTew;
    const auto summary = summarize({a, b, other}, Kernel::kTs,
                                   Format::kCoo, bluesky());
    EXPECT_EQ(summary.runs, 2u);
    EXPECT_DOUBLE_EQ(summary.min_gflops, 1.0);
    EXPECT_DOUBLE_EQ(summary.max_gflops, 2.0);
    EXPECT_DOUBLE_EQ(summary.mean_gflops, 1.5);
}

TEST(Efficiency, EmptySummaryIsZeroed)
{
    const auto summary =
        summarize({}, Kernel::kTtv, Format::kHicoo, wingtip());
    EXPECT_EQ(summary.runs, 0u);
    EXPECT_DOUBLE_EQ(summary.mean_gflops, 0.0);
    EXPECT_DOUBLE_EQ(summary.min_gflops, 0.0);
}

TEST(Ert, QuickSweepProducesOrderedRoofs)
{
    // A deliberately tiny sweep to keep the test fast.
    ErtOptions options;
    options.min_bytes = 1 << 16;
    options.max_bytes = 1 << 22;
    options.llc_boundary_bytes = 1 << 18;
    options.seconds_per_point = 0.002;
    const ErtResult result = run_ert(options);
    EXPECT_FALSE(result.samples.empty());
    EXPECT_GT(result.dram_bw_gbs, 0.0);
    EXPECT_GE(result.llc_bw_gbs, result.dram_bw_gbs);
    EXPECT_GT(result.peak_gflops, 0.0);
    // The compute roof runs at the ISA the kernels dispatch to.
    EXPECT_EQ(result.isa, simd::active_isa());
    const MachineSpec host = host_machine_spec(result);
    EXPECT_DOUBLE_EQ(host.ert_dram_gbs, result.dram_bw_gbs);
    EXPECT_FALSE(host.is_gpu);
}

TEST(Names, KernelAndFormatNames)
{
    EXPECT_STREQ(kernel_name(Kernel::kMttkrp), "MTTKRP");
    EXPECT_STREQ(format_name(Format::kHicoo), "HiCOO");
}

}  // namespace
}  // namespace pasta
