// Unit tests for the COO tensor format.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/coo_tensor.hpp"
#include "core/fibers.hpp"

namespace pasta {
namespace {

CooTensor
make_example3()
{
    // The Fig. 1(a)-style example: a small third-order tensor.
    CooTensor t({4, 4, 4});
    t.append({0, 0, 0}, 1.0f);
    t.append({0, 0, 1}, 2.0f);
    t.append({0, 1, 0}, 3.0f);
    t.append({1, 0, 0}, 4.0f);
    t.append({1, 2, 3}, 5.0f);
    t.append({3, 3, 3}, 6.0f);
    return t;
}

TEST(CooTensor, ConstructionAndBasicAccessors)
{
    CooTensor t({3, 5, 7});
    EXPECT_EQ(t.order(), 3u);
    EXPECT_EQ(t.dim(0), 3u);
    EXPECT_EQ(t.dim(1), 5u);
    EXPECT_EQ(t.dim(2), 7u);
    EXPECT_EQ(t.nnz(), 0u);
}

TEST(CooTensor, RejectsEmptyAndZeroDims)
{
    EXPECT_THROW(CooTensor(std::vector<Index>{}), PastaError);
    EXPECT_THROW(CooTensor({3, 0, 2}), PastaError);
}

TEST(CooTensor, AppendStoresCoordinatesAndValues)
{
    CooTensor t = make_example3();
    EXPECT_EQ(t.nnz(), 6u);
    EXPECT_EQ(t.index(0, 4), 1u);
    EXPECT_EQ(t.index(1, 4), 2u);
    EXPECT_EQ(t.index(2, 4), 3u);
    EXPECT_FLOAT_EQ(t.value(4), 5.0f);
    EXPECT_EQ(t.coordinate(5), (Coordinate{3, 3, 3}));
}

TEST(CooTensor, AppendRejectsWrongArity)
{
    CooTensor t({4, 4});
    EXPECT_THROW(t.append(Coordinate{1, 2, 3}, 1.0f), PastaError);
}

TEST(CooTensor, StorageMatchesPaperFormula)
{
    // 4(N+1)M bytes for an Nth-order tensor with M non-zeros.
    CooTensor t = make_example3();
    EXPECT_EQ(t.storage_bytes(), 4u * (3 + 1) * 6);
    CooTensor t4({2, 2, 2, 2});
    t4.append({0, 0, 0, 0}, 1.0f);
    EXPECT_EQ(t4.storage_bytes(), 4u * (4 + 1) * 1);
}

TEST(CooTensor, SortLexicographic)
{
    CooTensor t({4, 4});
    t.append({3, 1}, 1.0f);
    t.append({0, 2}, 2.0f);
    t.append({3, 0}, 3.0f);
    t.append({0, 1}, 4.0f);
    EXPECT_FALSE(t.is_sorted_lexicographic());
    t.sort_lexicographic();
    EXPECT_TRUE(t.is_sorted_lexicographic());
    EXPECT_EQ(t.coordinate(0), (Coordinate{0, 1}));
    EXPECT_FLOAT_EQ(t.value(0), 4.0f);
    EXPECT_EQ(t.coordinate(3), (Coordinate{3, 1}));
    EXPECT_FLOAT_EQ(t.value(3), 1.0f);
}

TEST(CooTensor, SortByModeOrderPutsChosenModeFirst)
{
    CooTensor t({4, 4});
    t.append({0, 3}, 1.0f);
    t.append({1, 1}, 2.0f);
    t.append({2, 0}, 3.0f);
    t.sort_by_mode_order({1, 0});
    // Sorted by mode 1 first: (2,0), (1,1), (0,3).
    EXPECT_EQ(t.coordinate(0), (Coordinate{2, 0}));
    EXPECT_EQ(t.coordinate(1), (Coordinate{1, 1}));
    EXPECT_EQ(t.coordinate(2), (Coordinate{0, 3}));
}

TEST(CooTensor, SortFibersLastGroupsFibers)
{
    CooTensor t({3, 3, 4});
    t.append({0, 0, 3}, 1.0f);
    t.append({1, 2, 0}, 2.0f);
    t.append({0, 0, 1}, 3.0f);
    t.append({1, 2, 2}, 4.0f);
    t.sort_fibers_last(2);
    FiberView fibers(t, 2);
    EXPECT_EQ(fibers.fptr(), (std::vector<Size>{0, 2, 4}));
    // Within the first fiber, mode-2 indices are ascending.
    EXPECT_LT(t.index(2, 0), t.index(2, 1));
}

TEST(CooTensor, CoalesceSumsDuplicates)
{
    CooTensor t({4, 4});
    t.append({1, 1}, 1.0f);
    t.append({0, 0}, 2.0f);
    t.append({1, 1}, 3.0f);
    t.append({0, 0}, 4.0f);
    t.sort_lexicographic();
    t.coalesce();
    EXPECT_EQ(t.nnz(), 2u);
    EXPECT_FLOAT_EQ(t.at({0, 0}), 6.0f);
    EXPECT_FLOAT_EQ(t.at({1, 1}), 4.0f);
}

TEST(CooTensor, CoalesceOnEmptyTensorIsNoop)
{
    CooTensor t({4, 4});
    t.coalesce();
    EXPECT_EQ(t.nnz(), 0u);
}

TEST(CooTensor, AtSumsAllMatches)
{
    CooTensor t = make_example3();
    EXPECT_FLOAT_EQ(t.at({1, 2, 3}), 5.0f);
    EXPECT_FLOAT_EQ(t.at({2, 2, 2}), 0.0f);
}

TEST(CooTensor, SamePatternDetectsEqualityAndDifferences)
{
    CooTensor a = make_example3();
    CooTensor b = make_example3();
    b.values()[2] = 99.0f;  // values may differ
    EXPECT_TRUE(a.same_pattern(b));

    CooTensor c({4, 4, 4});
    c.append({0, 0, 0}, 1.0f);
    EXPECT_FALSE(a.same_pattern(c));  // different nnz

    CooTensor d({4, 4, 5});
    EXPECT_FALSE(a.same_pattern(d));  // different dims
}

TEST(CooTensor, ValidatePassesOnGoodTensor)
{
    CooTensor t = make_example3();
    EXPECT_NO_THROW(t.validate());
}

TEST(CooTensor, RandomGeneratesDistinctSortedCoordinates)
{
    Rng rng(123);
    CooTensor t = CooTensor::random({32, 32, 32}, 500, rng);
    EXPECT_EQ(t.nnz(), 500u);
    EXPECT_TRUE(t.is_sorted_lexicographic());
    t.validate();
}

TEST(CooTensor, RandomIsDeterministicPerSeed)
{
    Rng rng1(77);
    Rng rng2(77);
    CooTensor a = CooTensor::random({16, 16}, 100, rng1);
    CooTensor b = CooTensor::random({16, 16}, 100, rng2);
    EXPECT_TRUE(a.same_pattern(b));
    EXPECT_EQ(a.values(), b.values());
}

TEST(CooTensor, RandomRejectsOverfullRequest)
{
    Rng rng(1);
    EXPECT_THROW(CooTensor::random({2, 2}, 5, rng), PastaError);
}

TEST(CooTensor, SortMortonKeepsAllNonzeros)
{
    Rng rng(5);
    CooTensor t = CooTensor::random({64, 64, 64}, 300, rng);
    CooTensor before = t;
    t.sort_morton(3);
    EXPECT_EQ(t.nnz(), before.nnz());
    // Morton sort is a permutation: lexicographic re-sort restores it.
    t.sort_lexicographic();
    EXPECT_TRUE(t.same_pattern(before));
    EXPECT_EQ(t.values(), before.values());
}

TEST(CooTensor, SortMortonGroupsBlocks)
{
    CooTensor t({16, 16});
    // Two non-zeros in block (0,0) and one in block (1,1), interleaved.
    t.append({0, 0}, 1.0f);
    t.append({9, 9}, 2.0f);
    t.append({1, 1}, 3.0f);
    t.sort_morton(3);  // 8x8 blocks
    // Block (0,0) entries must be contiguous and first.
    EXPECT_LT(t.index(0, 0), 8u);
    EXPECT_LT(t.index(0, 1), 8u);
    EXPECT_GE(t.index(0, 2), 8u);
}

TEST(CooTensor, DescribeMentionsShapeAndNnz)
{
    CooTensor t = make_example3();
    const std::string d = t.describe();
    EXPECT_NE(d.find("4x4x4"), std::string::npos);
    EXPECT_NE(d.find("6 nnz"), std::string::npos);
}

TEST(CooTensor, ResizeNnzExtendsWithZeros)
{
    CooTensor t({4, 4});
    t.append({1, 2}, 5.0f);
    t.resize_nnz(3);
    EXPECT_EQ(t.nnz(), 3u);
    EXPECT_EQ(t.index(0, 2), 0u);
    EXPECT_FLOAT_EQ(t.value(2), 0.0f);
}

TEST(Fibers, SingleFiberWhenAllShareNonModeCoords)
{
    CooTensor t({2, 2, 8});
    for (Index k = 0; k < 8; ++k)
        t.append({1, 1, k}, 1.0f);
    FiberView fibers(t, 2);
    EXPECT_EQ(fibers.fptr(), (std::vector<Size>{0, 8}));
}

TEST(Fibers, EachNonzeroItsOwnFiberWhenModeConstant)
{
    CooTensor t({8, 8, 2});
    for (Index i = 0; i < 8; ++i)
        t.append({i, i, 0}, 1.0f);
    FiberView fibers(t, 2);
    EXPECT_EQ(fibers.num_fibers(), 8u);
    EXPECT_EQ(fibers.fptr().back(), 8u);
}

TEST(Fibers, EmptyTensorHasNoFibers)
{
    CooTensor t({4, 4});
    FiberView fibers(t, 0);
    EXPECT_EQ(fibers.num_fibers(), 0u);
}

TEST(Fibers, RejectsOutOfRangeMode)
{
    CooTensor t({4, 4});
    EXPECT_THROW(FiberView(t, 2), PastaError);
}

}  // namespace
}  // namespace pasta
