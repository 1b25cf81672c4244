// Tests for TTM (COO and HiCOO paths) against the dense reference.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "core/convert.hpp"
#include "kernels/reference.hpp"
#include "kernels/ttm.hpp"

namespace pasta {
namespace {

TEST(TtmCoo, HandComputedExample)
{
    // x(0,0,0)=1, x(0,0,1)=2; u = [[1,10],[2,20]] (2 rows, rank 2).
    CooTensor x({2, 2, 2});
    x.append({0, 0, 0}, 1.0f);
    x.append({0, 0, 1}, 2.0f);
    DenseMatrix u(2, 2);
    u(0, 0) = 1.0f;
    u(0, 1) = 10.0f;
    u(1, 0) = 2.0f;
    u(1, 1) = 20.0f;
    ScooTensor y = ttm_coo(x, u, 2);
    // y(0,0,r) = 1*u(0,r) + 2*u(1,r) = [5, 50].
    EXPECT_EQ(y.num_sparse(), 1u);
    EXPECT_FLOAT_EQ(y.at({0, 0, 0}), 5.0f);
    EXPECT_FLOAT_EQ(y.at({0, 0, 1}), 50.0f);
}

TEST(TtmCoo, OutputDimsReplaceModeWithRank)
{
    Rng rng(1);
    CooTensor x = CooTensor::random({8, 9, 10}, 100, rng);
    DenseMatrix u = DenseMatrix::random(9, 5, rng);
    ScooTensor y = ttm_coo(x, u, 1);
    EXPECT_EQ(y.dims(), (std::vector<Index>{8, 5, 10}));
    EXPECT_EQ(y.dense_modes(), (std::vector<Size>{1}));
    EXPECT_EQ(y.stripe_volume(), 5u);
}

TEST(TtmCoo, MatchesDenseReferenceOnAllModes)
{
    Rng rng(2);
    CooTensor x = CooTensor::random({10, 12, 8}, 200, rng);
    DenseTensor dx = DenseTensor::from_coo(x);
    for (Size mode = 0; mode < 3; ++mode) {
        DenseMatrix u = DenseMatrix::random(x.dim(mode), 6, rng);
        ScooTensor y = ttm_coo(x, u, mode);
        DenseTensor expected = ref_ttm(dx, u, mode);
        EXPECT_TRUE(
            tensors_almost_equal(y.to_coo(), expected.to_coo(), 1e-3))
            << "mode " << mode;
    }
}

TEST(TtmCoo, StripeCountEqualsFiberCount)
{
    Rng rng(3);
    CooTensor x = CooTensor::random({16, 16, 16}, 300, rng);
    CooTtmPlan plan = ttm_plan_coo(x, 0, 4);
    EXPECT_EQ(plan.out_pattern.num_sparse(), plan.fibers.num_fibers());
}

TEST(TtmCoo, RejectsBadInputs)
{
    Rng rng(4);
    CooTensor x = CooTensor::random({8, 8, 8}, 50, rng);
    EXPECT_THROW(ttm_plan_coo(x, 5, 4), PastaError);
    EXPECT_THROW(ttm_plan_coo(x, 0, 0), PastaError);
    CooTtmPlan plan = ttm_plan_coo(x, 1, 4);
    DenseMatrix wrong_rows = DenseMatrix::random(7, 4, rng);
    ScooTensor out = plan.out_pattern;
    EXPECT_THROW(ttm_exec_coo(plan, wrong_rows, out), PastaError);
    DenseMatrix wrong_rank = DenseMatrix::random(8, 5, rng);
    EXPECT_THROW(ttm_exec_coo(plan, wrong_rank, out), PastaError);
}

TEST(TtmHicoo, MatchesCooResult)
{
    Rng rng(5);
    CooTensor x = CooTensor::random({32, 32, 32}, 500, rng);
    for (Size mode = 0; mode < 3; ++mode) {
        DenseMatrix u = DenseMatrix::random(32, 8, rng);
        ScooTensor coo_result = ttm_coo(x, u, mode);
        SHiCooTensor hicoo_result = ttm_hicoo(x, u, mode, 3);
        EXPECT_TRUE(tensors_almost_equal(hicoo_result.to_scoo().to_coo(),
                                         coo_result.to_coo(), 1e-3))
            << "mode " << mode;
    }
}

TEST(TtmHicoo, OutputBlocksMirrorInputBlocks)
{
    Rng rng(6);
    CooTensor x = CooTensor::random({64, 64, 64}, 400, rng);
    HicooTtmPlan plan = ttm_plan_hicoo(x, 1, 16, 3);
    EXPECT_EQ(plan.out_pattern.num_blocks(),
              plan.fibers.tensor().num_blocks());
    plan.out_pattern.validate();
}

TEST(TtmCoo, RepeatedExecOverwritesOutput)
{
    // exec must be idempotent on a reused output buffer (bench loops).
    Rng rng(7);
    CooTensor x = CooTensor::random({16, 16, 16}, 200, rng);
    DenseMatrix u = DenseMatrix::random(16, 4, rng);
    CooTtmPlan plan = ttm_plan_coo(x, 2, 4);
    ScooTensor out = plan.out_pattern;
    ttm_exec_coo(plan, u, out);
    std::vector<Value> first = out.values();
    ttm_exec_coo(plan, u, out);
    EXPECT_EQ(out.values(), first);
}

TEST(TtmCoo, LowRankDefaultSixteen)
{
    // The paper uses R=16 to reflect low-rank tensor methods (§V-A2).
    Rng rng(8);
    CooTensor x = CooTensor::random({20, 20, 20}, 150, rng);
    DenseMatrix u = DenseMatrix::random(20, 16, rng);
    ScooTensor y = ttm_coo(x, u, 0);
    EXPECT_EQ(y.stripe_volume(), 16u);
    DenseTensor expected = ref_ttm(DenseTensor::from_coo(x), u, 0);
    EXPECT_TRUE(tensors_almost_equal(y.to_coo(), expected.to_coo(), 1e-3));
}

// Property sweep across orders, modes, ranks, and block sizes.
class TtmSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TtmSweep, BothFormatsMatchReference)
{
    const auto [order, rank, block_bits] = GetParam();
    const Index dim = order <= 3 ? 12 : 7;
    Rng rng(500 + order * 31 + rank * 7 + block_bits);
    CooTensor x =
        CooTensor::random(std::vector<Index>(order, dim), 90, rng);
    DenseTensor dx = DenseTensor::from_coo(x);
    for (Size mode = 0; mode < static_cast<Size>(order); ++mode) {
        DenseMatrix u = DenseMatrix::random(dim, rank, rng);
        DenseTensor expected = ref_ttm(dx, u, mode);
        ScooTensor y = ttm_coo(x, u, mode);
        EXPECT_TRUE(
            tensors_almost_equal(y.to_coo(), expected.to_coo(), 1e-3))
            << "COO order " << order << " mode " << mode;
        SHiCooTensor yh = ttm_hicoo(x, u, mode, block_bits);
        EXPECT_TRUE(tensors_almost_equal(yh.to_scoo().to_coo(),
                                         expected.to_coo(), 1e-3))
            << "HiCOO order " << order << " mode " << mode;
    }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersRanksBlocks, TtmSweep,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(1, 4, 16),
                       ::testing::Values(2, 3)));

}  // namespace
}  // namespace pasta
