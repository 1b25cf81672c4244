// Tests for the semi-sparse TTM kernel (sCOO input) and its Tucker chain.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "kernels/reference.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttm_scoo.hpp"
#include "methods/tucker.hpp"

namespace pasta {
namespace {

TEST(TtmScoo, MatchesExpandThenTtm)
{
    Rng rng(1);
    CooTensor x = CooTensor::random({8, 10, 12}, 150, rng);
    DenseMatrix u1 = DenseMatrix::random(10, 4, rng);
    DenseMatrix u2 = DenseMatrix::random(12, 3, rng);

    // Chain via semi-sparse: (x x_1 u1) x_2 u2 without COO expansion.
    ScooTensor step1 = ttm_coo(x, u1, 1);
    ScooTensor chained = ttm_scoo(step1, u2, 2);

    // Reference: expand the intermediate and TTM again.
    CooTensor expanded = step1.to_coo();
    ScooTensor expected = ttm_coo(expanded, u2, 2);

    EXPECT_TRUE(tensors_almost_equal(chained.to_coo(),
                                     expected.to_coo(), 1e-3));
    EXPECT_EQ(chained.dense_modes(), (std::vector<Size>{1, 2}));
    EXPECT_EQ(chained.dims(), (std::vector<Index>{8, 4, 3}));
}

TEST(TtmScoo, ChainMatchesDenseReference)
{
    Rng rng(2);
    CooTensor x = CooTensor::random({6, 7, 8, 5}, 120, rng);
    DenseMatrix u3 = DenseMatrix::random(5, 2, rng);
    DenseMatrix u1 = DenseMatrix::random(7, 3, rng);

    ScooTensor step1 = ttm_coo(x, u3, 3);
    ScooTensor step2 = ttm_scoo(step1, u1, 1);

    DenseTensor dx = DenseTensor::from_coo(x);
    DenseTensor expected = ref_ttm(ref_ttm(dx, u3, 3), u1, 1);
    EXPECT_TRUE(tensors_almost_equal(step2.to_coo(),
                                     expected.to_coo(), 1e-3));
}

TEST(TtmScoo, RejectsDenseOrLastSparseMode)
{
    Rng rng(3);
    CooTensor x = CooTensor::random({8, 8, 8}, 60, rng);
    DenseMatrix u = DenseMatrix::random(8, 2, rng);
    ScooTensor semi = ttm_coo(x, u, 1);  // mode 1 now dense
    EXPECT_THROW(ttm_scoo(semi, u, 1), PastaError);  // dense mode
    ScooTensor semi2 = ttm_scoo(semi, u, 0);         // modes {0} -> dense
    // Now only mode 2 is sparse: contracting it must throw.
    EXPECT_THROW(ttm_scoo(semi2, u, 2), PastaError);
    DenseMatrix wrong = DenseMatrix::random(9, 2, rng);
    EXPECT_THROW(ttm_scoo(semi, wrong, 0), PastaError);
}

TEST(TtmScoo, TuckerChainViaSemiSparseMatchesCooChain)
{
    Rng rng(4);
    CooTensor x = CooTensor::random({9, 10, 11}, 200, rng);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < 3; ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), 2, rng));

    // COO-expansion chain (ttm_chain) vs semi-sparse chain.
    CooTensor via_coo = ttm_chain(x, mats, 2);
    ScooTensor step = ttm_coo(x, mats[0], 0);
    ScooTensor done = ttm_scoo(step, mats[1], 1);
    EXPECT_TRUE(
        tensors_almost_equal(done.to_coo(), via_coo, 1e-3));
}

}  // namespace
}  // namespace pasta
