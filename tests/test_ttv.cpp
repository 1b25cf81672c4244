// Tests for TTV (COO and HiCOO paths) against the dense reference, and
// the thread-count bit-identity of the TTV and TTM exec kernels.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/rng.hpp"
#include "core/convert.hpp"
#include "kernels/reference.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttv.hpp"

namespace pasta {
namespace {

TEST(TtvCoo, HandComputedThirdOrderExample)
{
    // x(0,0,:) = [1, 2], x(1,1,:) = [3, 0]; v = [10, 100].
    CooTensor x({2, 2, 2});
    x.append({0, 0, 0}, 1.0f);
    x.append({0, 0, 1}, 2.0f);
    x.append({1, 1, 0}, 3.0f);
    DenseVector v(2);
    v[0] = 10.0f;
    v[1] = 100.0f;
    CooTensor y = ttv_coo(x, v, 2);
    EXPECT_EQ(y.order(), 2u);
    EXPECT_EQ(y.nnz(), 2u);
    EXPECT_FLOAT_EQ(y.at({0, 0}), 210.0f);  // 1*10 + 2*100
    EXPECT_FLOAT_EQ(y.at({1, 1}), 30.0f);
}

TEST(TtvCoo, OutputHasOneNonzeroPerFiber)
{
    Rng rng(1);
    CooTensor x = CooTensor::random({16, 16, 16}, 300, rng);
    CooTtvPlan plan = ttv_plan_coo(x, 1);
    EXPECT_EQ(plan.out_pattern.nnz(), plan.fibers.num_fibers());
    EXPECT_EQ(plan.out_pattern.order(), 2u);
}

TEST(TtvCoo, MatchesDenseReferenceOnAllModes)
{
    Rng rng(2);
    CooTensor x = CooTensor::random({12, 10, 14}, 250, rng);
    DenseTensor dx = DenseTensor::from_coo(x);
    for (Size mode = 0; mode < 3; ++mode) {
        DenseVector v = DenseVector::random(x.dim(mode), rng);
        CooTensor y = ttv_coo(x, v, mode);
        DenseTensor expected = ref_ttv(dx, v, mode);
        EXPECT_TRUE(tensors_almost_equal(y, expected.to_coo(), 1e-3))
            << "mode " << mode;
    }
}

TEST(TtvCoo, RejectsBadInputs)
{
    Rng rng(3);
    CooTensor x = CooTensor::random({8, 8, 8}, 50, rng);
    EXPECT_THROW(ttv_plan_coo(x, 3), PastaError);  // mode out of range
    CooTensor vec1d({8});
    EXPECT_THROW(ttv_plan_coo(vec1d, 0), PastaError);  // order 1
    CooTtvPlan plan = ttv_plan_coo(x, 0);
    DenseVector wrong(7);
    CooTensor out = plan.out_pattern;
    EXPECT_THROW(ttv_exec_coo(plan, wrong, out), PastaError);
}

/// Restores the OpenMP default thread count on scope exit.
struct ThreadOverrideGuard {
    ~ThreadOverrideGuard() { set_num_threads(0); }
};

bool
same_bits(const std::vector<Value>& a, const std::vector<Value>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Value)) == 0;
}

TEST(TtvTtmExec, OutputBitsIdenticalAtAnyThreadCount)
{
    // Each output fiber (TTV value, TTM stripe) is written by exactly
    // one worker, so the in-memory exec kernels promise the same bits
    // at any thread count.
    ThreadOverrideGuard guard;
    Rng rng(4);
    const CooTensor x = CooTensor::random({64, 64, 64}, 20000, rng);
    const Size rank = 16;
    for (Size mode = 0; mode < 3; ++mode) {
        const DenseVector v = DenseVector::random(x.dim(mode), rng);
        const DenseMatrix u = DenseMatrix::random(x.dim(mode), rank, rng);
        const CooTtvPlan ttv_c = ttv_plan_coo(x, mode);
        const HicooTtvPlan ttv_h = ttv_plan_hicoo(x, mode, 3);
        const CooTtmPlan ttm_c = ttm_plan_coo(x, mode, rank);
        const HicooTtmPlan ttm_h = ttm_plan_hicoo(x, mode, rank, 3);
        const auto run = [&](int threads) {
            set_num_threads(threads);
            CooTensor a = ttv_c.out_pattern;
            ttv_exec_coo(ttv_c, v, a);
            HiCooTensor b = ttv_h.out_pattern;
            ttv_exec_hicoo(ttv_h, v, b);
            ScooTensor c = ttm_c.out_pattern;
            ttm_exec_coo(ttm_c, u, c);
            SHiCooTensor d = ttm_h.out_pattern;
            ttm_exec_hicoo(ttm_h, u, d);
            return std::vector<std::vector<Value>>{a.values(), b.values(),
                                                   c.values(), d.values()};
        };
        const char* names[] = {"ttv_exec_coo", "ttv_exec_hicoo",
                               "ttm_exec_coo", "ttm_exec_hicoo"};
        const auto reference = run(1);
        for (int threads : {2, 4}) {
            const auto got = run(threads);
            for (Size k = 0; k < got.size(); ++k)
                EXPECT_TRUE(same_bits(got[k], reference[k]))
                    << names[k] << ", mode " << mode << ", " << threads
                    << " threads";
        }
    }
}

TEST(TtvHicoo, MatchesCooResult)
{
    Rng rng(5);
    CooTensor x = CooTensor::random({48, 48, 48}, 800, rng);
    DenseVector v = DenseVector::random(48, rng);
    for (Size mode = 0; mode < 3; ++mode) {
        CooTensor coo_result = ttv_coo(x, v, mode);
        HiCooTensor hicoo_result = ttv_hicoo(x, v, mode, 3);
        EXPECT_TRUE(tensors_almost_equal(hicoo_to_coo(hicoo_result),
                                         coo_result, 1e-3))
            << "mode " << mode;
    }
}

TEST(TtvHicoo, OutputBlocksMirrorInputBlocks)
{
    Rng rng(6);
    CooTensor x = CooTensor::random({64, 64, 64}, 500, rng);
    HicooTtvPlan plan = ttv_plan_hicoo(x, 2, 3);
    EXPECT_EQ(plan.out_pattern.num_blocks(), plan.input.num_blocks());
    EXPECT_EQ(plan.out_pattern.nnz(), plan.fptr.size() - 1);
    plan.out_pattern.validate();
}

TEST(TtvHicoo, FibersNeverSpanBlocks)
{
    Rng rng(7);
    CooTensor x = CooTensor::random({64, 64, 64}, 700, rng);
    HicooTtvPlan plan = ttv_plan_hicoo(x, 1, 3);
    const auto& bptr = plan.input.bptr();
    // Every block boundary must also be a fiber boundary.
    Size f = 0;
    for (Size b = 1; b < plan.input.num_blocks(); ++b) {
        while (plan.fptr[f] < bptr[b])
            ++f;
        EXPECT_EQ(plan.fptr[f], bptr[b]) << "block " << b;
    }
}

TEST(TtvCoo, SecondOrderReducesToMatVec)
{
    // Order-2 TTV on mode 1 is sparse matrix-vector multiply.
    CooTensor a({3, 3});
    a.append({0, 0}, 2.0f);
    a.append({0, 2}, 1.0f);
    a.append({2, 1}, 4.0f);
    DenseVector v(3);
    v[0] = 1.0f;
    v[1] = 2.0f;
    v[2] = 3.0f;
    CooTensor y = ttv_coo(a, v, 1);
    EXPECT_EQ(y.order(), 1u);
    EXPECT_FLOAT_EQ(y.at({0}), 5.0f);  // 2*1 + 1*3
    EXPECT_FLOAT_EQ(y.at({2}), 8.0f);  // 4*2
}

// Property sweep: COO and HiCOO TTV agree with the dense reference for
// every order/mode/block-size combination.
class TtvSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TtvSweep, BothFormatsMatchReference)
{
    const auto [order, block_bits] = GetParam();
    const Index dim = order <= 3 ? 16 : 8;
    Rng rng(300 + order * 10 + block_bits);
    CooTensor x =
        CooTensor::random(std::vector<Index>(order, dim), 120, rng);
    DenseTensor dx = DenseTensor::from_coo(x);
    for (Size mode = 0; mode < static_cast<Size>(order); ++mode) {
        DenseVector v = DenseVector::random(dim, rng);
        DenseTensor expected = ref_ttv(dx, v, mode);
        CooTensor y_coo = ttv_coo(x, v, mode);
        EXPECT_TRUE(
            tensors_almost_equal(y_coo, expected.to_coo(), 1e-3))
            << "COO order " << order << " mode " << mode;
        if (order >= 2) {
            HiCooTensor y_h = ttv_hicoo(x, v, mode, block_bits);
            EXPECT_TRUE(tensors_almost_equal(hicoo_to_coo(y_h),
                                             expected.to_coo(), 1e-3))
                << "HiCOO order " << order << " mode " << mode;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndBlocks, TtvSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(2, 3, 7)));

}  // namespace
}  // namespace pasta
