// Randomized algebraic property tests: invariants that must hold for
// every kernel on every input, independent of the dense references.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/convert.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/tew.hpp"
#include "kernels/ts.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttv.hpp"

namespace pasta {
namespace {

class RandomTensorProperty : public ::testing::TestWithParam<int> {
  protected:
    CooTensor make_tensor()
    {
        Rng rng(1000 + GetParam());
        const Size order = 2 + GetParam() % 3;
        const Index dim = 10 + (GetParam() % 5) * 4;
        return CooTensor::random(std::vector<Index>(order, dim),
                                 80 + GetParam() * 7, rng);
    }
};

TEST_P(RandomTensorProperty, TtvIsLinearInTheVector)
{
    CooTensor x = make_tensor();
    Rng rng(2000 + GetParam());
    const Size mode = GetParam() % x.order();
    DenseVector v1 = DenseVector::random(x.dim(mode), rng);
    DenseVector v2 = DenseVector::random(x.dim(mode), rng);
    const Value a = 2.5f;
    const Value b = -1.25f;
    DenseVector combo(x.dim(mode));
    for (Size i = 0; i < combo.size(); ++i)
        combo[i] = a * v1[i] + b * v2[i];

    CooTensor lhs = ttv_coo(x, combo, mode);
    CooTensor r1 = ttv_coo(x, v1, mode);
    CooTensor r2 = ttv_coo(x, v2, mode);
    ASSERT_TRUE(r1.same_pattern(r2));
    ASSERT_TRUE(lhs.same_pattern(r1));
    for (Size p = 0; p < lhs.nnz(); ++p)
        EXPECT_NEAR(lhs.value(p), a * r1.value(p) + b * r2.value(p),
                    1e-2)
            << p;
}

TEST_P(RandomTensorProperty, TtmWithIdentityMatrixReproducesTensor)
{
    CooTensor x = make_tensor();
    const Size mode = GetParam() % x.order();
    DenseMatrix eye(x.dim(mode), x.dim(mode), 0);
    for (Size i = 0; i < eye.rows(); ++i)
        eye(i, i) = 1.0f;
    ScooTensor y = ttm_coo(x, eye, mode);
    EXPECT_TRUE(tensors_almost_equal(y.to_coo(), x, 1e-3));
}

TEST_P(RandomTensorProperty, MttkrpWithOnesFactorsSumsFibers)
{
    // With all-ones factors, out(i, r) = sum of values of non-zeros
    // whose mode coordinate is i.
    CooTensor x = make_tensor();
    const Size mode = GetParam() % x.order();
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix(x.dim(m), 3, 1.0f));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);
    DenseMatrix out(x.dim(mode), 3);
    mttkrp_coo(x, factors, mode, out);

    std::vector<double> expected(x.dim(mode), 0.0);
    for (Size p = 0; p < x.nnz(); ++p)
        expected[x.index(mode, p)] += x.value(p);
    for (Index i = 0; i < x.dim(mode); ++i)
        for (Size r = 0; r < 3; ++r)
            EXPECT_NEAR(out(i, r), expected[i], 1e-2) << i;
}

TEST_P(RandomTensorProperty, TsComposition)
{
    CooTensor x = make_tensor();
    const Value a = 3.0f;
    const Value b = -0.5f;
    CooTensor y = ts_coo(ts_coo(x, TsOp::kMul, a), TsOp::kAdd, b);
    for (Size p = 0; p < x.nnz(); ++p)
        EXPECT_FLOAT_EQ(y.value(p), a * x.value(p) + b);
}

TEST_P(RandomTensorProperty, TewAddThenSubRoundTrips)
{
    CooTensor x = make_tensor();
    Rng rng(3000 + GetParam());
    CooTensor y = x;
    for (auto& v : y.values())
        v = rng.next_float() + 0.5f;
    CooTensor sum = tew_coo(x, y, EwOp::kAdd);
    CooTensor back = tew_coo(sum, y, EwOp::kSub);
    for (Size p = 0; p < x.nnz(); ++p)
        EXPECT_NEAR(back.value(p), x.value(p), 1e-4);
}

TEST_P(RandomTensorProperty, KernelsAreSortOrderInvariant)
{
    // The same tensor sorted differently must give identical MTTKRP.
    CooTensor x = make_tensor();
    Rng rng(4000 + GetParam());
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), 4, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);
    DenseMatrix out_lex(x.dim(0), 4);
    mttkrp_coo_seq(x, factors, 0, out_lex);

    CooTensor morton = x;
    morton.sort_morton(3);
    DenseMatrix out_morton(x.dim(0), 4);
    mttkrp_coo_seq(morton, factors, 0, out_morton);
    EXPECT_LT(max_abs_diff(out_lex, out_morton), 1e-3);
}

TEST_P(RandomTensorProperty, FormatConversionsCommuteWithTs)
{
    // ts(hicoo(x)) == hicoo(ts(x)): scalar ops commute with format
    // conversion.
    CooTensor x = make_tensor();
    HiCooTensor path1 = ts_hicoo(coo_to_hicoo(x, 3), TsOp::kMul, 2.0f);
    HiCooTensor path2 = coo_to_hicoo(ts_coo(x, TsOp::kMul, 2.0f), 3);
    EXPECT_TRUE(
        tensors_almost_equal(hicoo_to_coo(path1), hicoo_to_coo(path2)));
}

TEST_P(RandomTensorProperty, StorageFormulasAreExact)
{
    CooTensor x = make_tensor();
    EXPECT_EQ(x.storage_bytes(), 4 * (x.order() + 1) * x.nnz());
    const HiCooTensor h = coo_to_hicoo(x, 3);
    EXPECT_EQ(h.storage_bytes(),
              h.num_blocks() * (4 * x.order() + 8) +
                  h.nnz() * (x.order() + 4));
}

TEST_P(RandomTensorProperty, TtvReducesTotalMassWithOnesVector)
{
    // TTV with an all-ones vector sums each fiber: total output mass
    // equals total input mass.
    CooTensor x = make_tensor();
    const Size mode = GetParam() % x.order();
    DenseVector ones(x.dim(mode), 1.0f);
    CooTensor y = ttv_coo(x, ones, mode);
    double in_mass = 0;
    for (Size p = 0; p < x.nnz(); ++p)
        in_mass += x.value(p);
    double out_mass = 0;
    for (Size p = 0; p < y.nnz(); ++p)
        out_mass += y.value(p);
    EXPECT_NEAR(out_mass, in_mass, 1e-2 * std::abs(in_mass));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTensorProperty,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace pasta
