// Tests for index relabeling / reordering.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "core/reorder.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/reference.hpp"

namespace pasta {
namespace {

TEST(Reorder, IdentityAndRandomAreBijections)
{
    Rng rng(1);
    Relabeling identity(100);
    std::iota(identity.begin(), identity.end(), 0);
    EXPECT_NO_THROW(check_relabeling(identity, 100));
    EXPECT_NO_THROW(check_relabeling(random_relabeling(100, rng), 100));
}

TEST(Reorder, CheckRejectsNonBijections)
{
    EXPECT_THROW(check_relabeling({0, 0, 1}, 3), PastaError);
    EXPECT_THROW(check_relabeling({0, 1, 5}, 3), PastaError);
    EXPECT_THROW(check_relabeling({0, 1}, 3), PastaError);
}

TEST(Reorder, DegreeRelabelingRanksHubsFirst)
{
    CooTensor x({4, 8});
    // Index 2 of mode 0 has degree 3, index 0 degree 1, index 3 degree 2.
    x.append({2, 0}, 1.0f);
    x.append({2, 1}, 1.0f);
    x.append({2, 2}, 1.0f);
    x.append({3, 0}, 1.0f);
    x.append({3, 1}, 1.0f);
    x.append({0, 0}, 1.0f);
    const Relabeling perm = degree_relabeling(x, 0);
    EXPECT_EQ(perm[2], 0u);  // hottest index relabeled to 0
    EXPECT_EQ(perm[3], 1u);
    EXPECT_EQ(perm[0], 2u);
    EXPECT_EQ(perm[1], 3u);  // empty index last
}

TEST(Reorder, RelabelModePreservesValuesUnderInverse)
{
    Rng rng(2);
    CooTensor x = CooTensor::random({16, 16, 16}, 200, rng);
    const Relabeling perm = random_relabeling(16, rng);
    CooTensor relabeled = relabel_mode(x, 1, perm);
    EXPECT_EQ(relabeled.nnz(), x.nnz());
    // Applying the inverse restores the tensor.
    Relabeling inverse(perm.size());
    for (Index old = 0; old < perm.size(); ++old)
        inverse[perm[old]] = old;
    CooTensor restored = relabel_mode(relabeled, 1, inverse);
    EXPECT_TRUE(tensors_almost_equal(restored, x));
}

TEST(Reorder, RelabelingIsKernelInvariant)
{
    // MTTKRP on a relabeled tensor with correspondingly relabeled factor
    // rows must produce the output with relabeled rows.
    Rng rng(3);
    CooTensor x = CooTensor::random({12, 12, 12}, 150, rng);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < 3; ++m)
        mats.push_back(DenseMatrix::random(12, 4, rng));
    FactorList factors = {&mats[0], &mats[1], &mats[2]};
    DenseMatrix base(12, 4);
    mttkrp_coo_seq(x, factors, 0, base);

    const Relabeling perm = random_relabeling(12, rng);
    CooTensor relabeled = relabel_mode(x, 0, perm);
    DenseMatrix out(12, 4);
    mttkrp_coo_seq(relabeled, factors, 0, out);
    for (Index i = 0; i < 12; ++i)
        for (Size r = 0; r < 4; ++r)
            EXPECT_NEAR(out(perm[i], r), base(i, r), 1e-4)
                << "row " << i;
}

TEST(Reorder, DegreeReorderDensifiesHubTensorBlocks)
{
    // Power-law-ish tensor: a few hub indices scattered across the range.
    Rng rng(4);
    CooTensor x({1024, 1024, 1024});
    std::vector<Index> hubs;
    for (int h = 0; h < 8; ++h)
        hubs.push_back(rng.next_index(1024));
    for (int p = 0; p < 2000; ++p) {
        const Index i = hubs[rng.next_below(hubs.size())];
        const Index j = hubs[rng.next_below(hubs.size())];
        x.append({i, j, rng.next_index(1024)}, 1.0f);
    }
    x.sort_lexicographic();
    x.coalesce();
    const Size blocks_before = coo_to_hicoo(x, 4).num_blocks();
    CooTensor reordered = degree_reorder(x);
    const Size blocks_after = coo_to_hicoo(reordered, 4).num_blocks();
    EXPECT_LT(blocks_after, blocks_before);
    EXPECT_TRUE(tensors_almost_equal(
        x, x));  // sanity: helper itself is consistent
    // Reordering must not change the non-zero count or the value multiset.
    EXPECT_EQ(reordered.nnz(), x.nnz());
}

TEST(Reorder, DegreeReorderIsDeterministic)
{
    Rng rng(5);
    CooTensor x = CooTensor::random({64, 64}, 300, rng);
    CooTensor a = degree_reorder(x);
    CooTensor b = degree_reorder(x);
    EXPECT_TRUE(a.same_pattern(b));
}

}  // namespace
}  // namespace pasta
