// Tests for the parallel LSD radix sort: key layouts and packing across
// word boundaries, permutation correctness on one- and multi-word keys,
// equivalence with comparator sorts on random and adversarial tensors
// (duplicates, keys of two and three words), and thread-count
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/morton.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/coo_tensor.hpp"
#include "core/sort_radix.hpp"

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

std::vector<std::uint64_t>
random_keys(Size n, std::uint64_t max_key, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) {
        k = static_cast<std::uint64_t>(rng.next_index(kMaxIndex)) << 32 |
            rng.next_index(kMaxIndex);
        if (max_key != ~std::uint64_t{0})
            k %= max_key + 1;
    }
    return keys;
}

TEST(RadixBits, BitsForCoversEdgeCases)
{
    EXPECT_EQ(radix::bits_for(0), 0u);
    EXPECT_EQ(radix::bits_for(1), 0u);
    EXPECT_EQ(radix::bits_for(2), 1u);
    EXPECT_EQ(radix::bits_for(3), 2u);
    EXPECT_EQ(radix::bits_for(256), 8u);
    EXPECT_EQ(radix::bits_for(257), 9u);
    EXPECT_EQ(radix::bits_for(kMaxIndex), 32u);
}

TEST(RadixBits, KeyLayoutWordsAndLabels)
{
    // 3 x 21 bits = 63: one word.  Three full 32-bit modes = 96 bits: two.
    std::vector<Index> small = {1u << 21, 1u << 21, 1u << 21};
    std::vector<Index> huge = {kMaxIndex, kMaxIndex, kMaxIndex};
    std::vector<Size> order = {0, 1, 2};
    const radix::KeyLayout lex_small = radix::lex_layout(small, order);
    EXPECT_EQ(lex_small.bits(), 63u);
    EXPECT_EQ(lex_small.words(), 1u);
    EXPECT_EQ(lex_small.path_label("lex"), "lex-radix64");
    const radix::KeyLayout lex_huge = radix::lex_layout(huge, order);
    EXPECT_EQ(lex_huge.bits(), 96u);
    EXPECT_EQ(lex_huge.words(), 2u);
    EXPECT_EQ(lex_huge.path_label("lex"), "lex-radix128");
    // Morton: 3 x 25 interleaved block bits plus 3 x 7 offset bits.
    const radix::KeyLayout morton = radix::morton_layout(huge, order, 7);
    EXPECT_EQ(morton.group_width, 25u);
    EXPECT_EQ(morton.bits(), 96u);
    EXPECT_EQ(morton.path_label("morton"), "morton-radix128");
    // Extent-1 modes contribute no bits; an empty key is still one word.
    EXPECT_EQ(radix::lex_layout({1, 1}, {0, 1}).words(), 1u);
}

TEST(RadixBits, BuildKeysPackFieldsAcrossWordBoundaries)
{
    // 20 + 31 + 31 = 82 bits: mode 0's field straddles words 0 and 1.
    const std::vector<Index> dims = {1u << 20, 1u << 31, 1u << 31};
    const std::vector<std::vector<Index>> cols = {
        {(1u << 20) - 1, 5, 0}, {(1u << 31) - 1, 7, 1}, {3, 9, 2}};
    const radix::KeyWords words =
        radix::build_keys(radix::lex_layout(dims, {0, 1, 2}), cols);
    ASSERT_EQ(words.size(), 2u);
    for (Size p = 0; p < 3; ++p) {
        const unsigned __int128 key =
            (static_cast<unsigned __int128>(cols[0][p]) << 62) |
            (static_cast<unsigned __int128>(cols[1][p]) << 31) | cols[2][p];
        EXPECT_EQ(words[0][p], static_cast<std::uint64_t>(key));
        EXPECT_EQ(words[1][p], static_cast<std::uint64_t>(key >> 64));
    }

    // Morton: the group is morton.hpp's interleave of the block
    // coordinates, above the in-block offsets (mode 0 most significant).
    const std::vector<Index> mdims = {1u << 30, 1u << 30, 1u << 30};
    const radix::KeyWords mwords = radix::build_keys(
        radix::morton_layout(mdims, {0, 1, 2}, 4), cols);
    ASSERT_EQ(mwords.size(), 2u);  // 3 x 26 + 3 x 4 = 90 bits
    for (Size p = 0; p < 3; ++p) {
        Index blocks[3];
        unsigned __int128 offsets = 0;
        for (Size m = 0; m < 3; ++m) {
            const Index c = cols[m][p] & ((1u << 30) - 1);
            blocks[m] = c >> 4;
            offsets = (offsets << 4) | (c & 15u);
        }
        const MortonKey mk = morton_encode(blocks, 3);
        const unsigned __int128 key =
            (((static_cast<unsigned __int128>(mk.hi) << 64) | mk.lo)
             << 12) |
            offsets;
        EXPECT_EQ(mwords[0][p], static_cast<std::uint64_t>(key));
        EXPECT_EQ(mwords[1][p], static_cast<std::uint64_t>(key >> 64));
    }
}

TEST(RadixSortPerm, SortsAndPermutesConsistently)
{
    std::vector<std::uint64_t> keys =
        random_keys(20000, ~std::uint64_t{0}, 1);
    const std::vector<std::uint64_t> original = keys;
    std::vector<Size> perm;
    radix::sort_perm(keys, perm);

    ASSERT_EQ(perm.size(), original.size());
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    // perm[p] names the original slot of the element now at p.
    for (Size p = 0; p < keys.size(); ++p)
        EXPECT_EQ(keys[p], original[perm[p]]);
    // perm is a permutation: every source index exactly once.
    std::vector<Size> seen = perm;
    std::sort(seen.begin(), seen.end());
    for (Size p = 0; p < seen.size(); ++p)
        EXPECT_EQ(seen[p], p);
}

TEST(RadixSortPerm, StableOnDuplicates)
{
    // Heavy duplication: stability means equal keys keep their original
    // relative order, which the perm exposes directly.
    std::vector<std::uint64_t> keys = random_keys(20000, 7, 2);
    std::vector<Size> perm;
    radix::sort_perm(keys, perm);
    for (Size p = 1; p < keys.size(); ++p) {
        ASSERT_LE(keys[p - 1], keys[p]);
        if (keys[p - 1] == keys[p]) {
            EXPECT_LT(perm[p - 1], perm[p]) << "instability at " << p;
        }
    }
}

TEST(RadixSortPerm, MatchesStdStableSortAcrossKeyWidths)
{
    // Sweep key widths so pass-skipping (1..8 passes) is all exercised.
    for (unsigned shift : {0u, 7u, 15u, 31u, 47u, 63u}) {
        const std::uint64_t max_key =
            shift == 63 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << (shift + 1)) - 1;
        std::vector<std::uint64_t> keys = random_keys(20000, max_key, shift);
        std::vector<std::uint64_t> expected = keys;
        std::stable_sort(expected.begin(), expected.end());
        std::vector<Size> perm;
        radix::sort_perm(keys, perm);
        EXPECT_EQ(keys, expected) << "max_key " << max_key;
    }
}

TEST(RadixSortPerm, DeterministicAcrossThreadCounts)
{
    const std::vector<std::uint64_t> original = random_keys(20000, 1000, 3);
    std::vector<std::uint64_t> keys1 = original;
    std::vector<std::uint64_t> keys4 = original;
    std::vector<Size> perm1;
    std::vector<Size> perm4;
    {
        ScopedThreads one(1);
        radix::sort_perm(keys1, perm1);
    }
    {
        ScopedThreads four(4);
        radix::sort_perm(keys4, perm4);
    }
    EXPECT_EQ(keys1, keys4);
    EXPECT_EQ(perm1, perm4);
}

TEST(RadixSortPerm, MultiWordMatchesStdStableSort)
{
    // Three-word keys: a random low word, an all-zero middle word (its
    // passes are skipped) and a narrow, heavily tied high word; then the
    // same with an all-zero low word.
    for (bool zero_low : {false, true}) {
        const Size n = 20000;
        radix::KeyWords words = {
            zero_low ? std::vector<std::uint64_t>(n)
                     : random_keys(n, ~std::uint64_t{0}, 21),
            std::vector<std::uint64_t>(n), random_keys(n, 5, 22)};
        std::vector<Size> expected(n);
        std::iota(expected.begin(), expected.end(), 0);
        std::stable_sort(expected.begin(), expected.end(),
                         [&](Size a, Size b) {
                             for (Size w = words.size(); w-- > 0;)
                                 if (words[w][a] != words[w][b])
                                     return words[w][a] < words[w][b];
                             return false;
                         });
        const std::vector<std::uint64_t> high = words[2];
        for (int threads : {1, 2, 4}) {
            ScopedThreads scoped(threads);
            radix::KeyWords copy = words;
            std::vector<Size> perm;
            radix::sort_perm(copy, perm);
            EXPECT_EQ(perm, expected) << "threads " << threads;
            // The most significant word comes back in sorted order.
            for (Size p = 0; p < n; ++p)
                ASSERT_EQ(copy[2][p], high[perm[p]]);
        }
    }
}

TEST(RadixSortPerm, HandlesEmptyAndSingleton)
{
    std::vector<std::uint64_t> keys;
    std::vector<Size> perm;
    radix::sort_perm(keys, perm);
    EXPECT_TRUE(perm.empty());
    keys = {42};
    radix::sort_perm(keys, perm);
    ASSERT_EQ(perm.size(), 1u);
    EXPECT_EQ(perm[0], 0u);
}

/// Comparator reference for lexicographic COO order under `mode_order`.
CooTensor
reference_sorted(const CooTensor& x, const std::vector<Size>& mode_order)
{
    CooTensor ref = x;
    std::vector<Size> perm(ref.nnz());
    std::iota(perm.begin(), perm.end(), 0);
    std::stable_sort(perm.begin(), perm.end(), [&](Size a, Size b) {
        for (Size m : mode_order) {
            if (ref.index(m, a) != ref.index(m, b))
                return ref.index(m, a) < ref.index(m, b);
        }
        return false;
    });
    ref.apply_permutation(perm);
    return ref;
}

void
expect_same_tensor(const CooTensor& a, const CooTensor& b)
{
    ASSERT_EQ(a.nnz(), b.nnz());
    for (Size p = 0; p < a.nnz(); ++p) {
        for (Size m = 0; m < a.order(); ++m)
            ASSERT_EQ(a.index(m, p), b.index(m, p)) << "pos " << p;
        // Values must ride along with their coordinates.
        ASSERT_EQ(a.value(p), b.value(p)) << "pos " << p;
    }
}

TEST(CooRadixSort, LexicographicMatchesComparatorReference)
{
    Rng rng(7);
    CooTensor x = CooTensor::random({100, 37, 64}, 2000, rng);
    // Distinct values tie each value to its coordinate.
    for (Size p = 0; p < x.nnz(); ++p)
        x.values()[p] = static_cast<Value>(p);
    const CooTensor expected = reference_sorted(x, {0, 1, 2});
    CooTensor sorted = x;
    sorted.sort_lexicographic();
    expect_same_tensor(sorted, expected);
}

TEST(CooRadixSort, ModeOrderPermutationsMatchReference)
{
    Rng rng(8);
    CooTensor x = CooTensor::random({31, 90, 17}, 1500, rng);
    for (Size p = 0; p < x.nnz(); ++p)
        x.values()[p] = static_cast<Value>(p);
    const std::vector<std::vector<Size>> orders = {
        {2, 1, 0}, {1, 0, 2}, {0, 2, 1}};
    for (const auto& order : orders) {
        CooTensor sorted = x;
        sorted.sort_by_mode_order(order);
        expect_same_tensor(sorted, reference_sorted(x, order));
    }
}

TEST(CooRadixSort, DuplicateCoordinatesSurviveSorting)
{
    // Adversarial: every non-zero in one of two coordinates.  Sum of
    // values (an order-independent invariant) must be preserved and the
    // stream must come out grouped.
    CooTensor x({4, 4, 4});
    for (int i = 0; i < 300; ++i)
        x.append({static_cast<Index>(i % 2 == 0 ? 3 : 1), 2, 1},
                 static_cast<Value>(i));
    CooTensor sorted = x;
    sorted.sort_lexicographic();
    expect_same_tensor(sorted, reference_sorted(x, {0, 1, 2}));
}

TEST(CooRadixSort, MaxIndexDimsFallBackToComparator)
{
    // Three full 32-bit modes need 96 key bits: exercises the two-word
    // radix path while demanding identical ordering semantics.
    Rng rng(9);
    CooTensor x({kMaxIndex, kMaxIndex, kMaxIndex});
    for (int i = 0; i < 500; ++i)
        x.append({rng.next_index(kMaxIndex), rng.next_index(kMaxIndex),
                  rng.next_index(kMaxIndex)},
                 static_cast<Value>(i));
    CooTensor sorted = x;
    sorted.sort_lexicographic();
    expect_same_tensor(sorted, reference_sorted(x, {0, 1, 2}));
}

TEST(CooRadixSort, MortonMatchesComparatorReference)
{
    Rng rng(10);
    CooTensor x = CooTensor::random({512, 300, 128}, 3000, rng);
    for (Size p = 0; p < x.nnz(); ++p)
        x.values()[p] = static_cast<Value>(p);
    const unsigned bits = 5;

    // Reference: 128-bit MortonKey over block coords, lexicographic
    // tie-break on the full coordinate (the pre-radix implementation).
    CooTensor ref = x;
    {
        std::vector<MortonKey> keys(ref.nnz());
        Coordinate blocks(ref.order());
        for (Size p = 0; p < ref.nnz(); ++p) {
            for (Size m = 0; m < ref.order(); ++m)
                blocks[m] = ref.index(m, p) >> bits;
            keys[p] = morton_encode(blocks);
        }
        std::vector<Size> perm(ref.nnz());
        std::iota(perm.begin(), perm.end(), 0);
        std::stable_sort(perm.begin(), perm.end(), [&](Size a, Size b) {
            if (!(keys[a] == keys[b]))
                return keys[a] < keys[b];
            for (Size m = 0; m < ref.order(); ++m)
                if (ref.index(m, a) != ref.index(m, b))
                    return ref.index(m, a) < ref.index(m, b);
            return false;
        });
        ref.apply_permutation(perm);
    }

    CooTensor sorted = x;
    sorted.sort_morton(bits);
    expect_same_tensor(sorted, ref);
}

TEST(CooRadixSort, SortDeterministicAcrossThreadCounts)
{
    Rng rng(11);
    const CooTensor x = CooTensor::random({256, 256, 64}, 4000, rng);
    CooTensor a = x;
    CooTensor b = x;
    {
        ScopedThreads one(1);
        a.sort_lexicographic();
    }
    {
        ScopedThreads four(4);
        b.sort_lexicographic();
    }
    expect_same_tensor(a, b);
}

/// Comparator oracle for Morton order: a stable sort by the 128-bit
/// morton_encode key of the block coordinates, then lexicographically by
/// the full coordinate — the order of the comparator sort the radix path
/// replaced (exact while the block interleave fits 128 bits).
CooTensor
morton_reference(const CooTensor& x, unsigned bits)
{
    CooTensor ref = x;
    std::vector<MortonKey> keys(ref.nnz());
    Coordinate blocks(ref.order());
    for (Size p = 0; p < ref.nnz(); ++p) {
        for (Size m = 0; m < ref.order(); ++m)
            blocks[m] = ref.index(m, p) >> bits;
        keys[p] = morton_encode(blocks);
    }
    std::vector<Size> perm(ref.nnz());
    std::iota(perm.begin(), perm.end(), 0);
    std::stable_sort(perm.begin(), perm.end(), [&](Size a, Size b) {
        if (!(keys[a] == keys[b]))
            return keys[a] < keys[b];
        for (Size m = 0; m < ref.order(); ++m)
            if (ref.index(m, a) != ref.index(m, b))
                return ref.index(m, a) < ref.index(m, b);
        return false;
    });
    ref.apply_permutation(perm);
    return ref;
}

/// Random distinct non-zeros over `dims` in shuffled order, each value
/// its input position so every value is tied to its coordinate.
CooTensor
shuffled_tensor(const std::vector<Index>& dims, Size nnz,
                std::uint64_t seed)
{
    Rng rng(seed);
    CooTensor x = CooTensor::random(dims, nnz, rng);
    std::vector<Size> perm(x.nnz());
    std::iota(perm.begin(), perm.end(), 0);
    for (Size i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.next_index(static_cast<Index>(i))]);
    x.apply_permutation(perm);
    for (Size p = 0; p < x.nnz(); ++p)
        x.values()[p] = static_cast<Value>(p);
    return x;
}

/// Shapes whose keys need more than one word: s9-like (4 x 20 bits),
/// r14-like (one-word lexicographic, two-word Morton), and a 5th-order
/// shape whose keys need three words.
const std::vector<std::vector<Index>> kWideShapes = {
    {830000, 830000, 830000, 830000},
    {32000, 2800000, 160000, 73},
    {1u << 31, 1u << 31, 1u << 31, 1u << 31, 1u << 31},
};

std::vector<Size>
all_modes(Size order)
{
    std::vector<Size> modes(order);
    std::iota(modes.begin(), modes.end(), 0);
    return modes;
}

TEST(CooRadixSort, WideMortonKeysMatchComparatorOracle)
{
    const unsigned bits = 7;
    for (Size shape = 0; shape < kWideShapes.size(); ++shape) {
        const auto& dims = kWideShapes[shape];
        const Size words =
            radix::morton_layout(dims, all_modes(dims.size()), bits)
                .words();
        EXPECT_EQ(words, shape == 2 ? 3u : 2u);
        const CooTensor x = shuffled_tensor(dims, 12000, 30 + shape);
        const CooTensor expected = morton_reference(x, bits);
        for (int threads : {1, 2, 4}) {
            ScopedThreads scoped(threads);
            CooTensor sorted = x;
            sorted.sort_morton(bits);
            SCOPED_TRACE(testing::Message()
                         << "shape " << shape << " threads " << threads);
            expect_same_tensor(sorted, expected);
        }
    }
}

TEST(CooRadixSort, WideModeOrdersMatchComparatorOracle)
{
    for (Size shape = 0; shape < kWideShapes.size(); ++shape) {
        const auto& dims = kWideShapes[shape];
        const CooTensor x = shuffled_tensor(dims, 12000, 40 + shape);
        std::vector<Size> forward = all_modes(dims.size());
        std::vector<Size> reverse(forward.rbegin(), forward.rend());
        // Fibers last along mode 1 (the TTV/TTM COO plans' order).
        std::vector<Size> fibers = {0};
        for (Size m = 2; m < dims.size(); ++m)
            fibers.push_back(m);
        fibers.push_back(1);
        for (const auto& order : {forward, reverse, fibers}) {
            const CooTensor expected = reference_sorted(x, order);
            for (int threads : {1, 2, 4}) {
                ScopedThreads scoped(threads);
                CooTensor sorted = x;
                sorted.sort_by_mode_order(order);
                SCOPED_TRACE(testing::Message()
                             << "shape " << shape << " threads " << threads
                             << " order " << order[0] << order[1]);
                expect_same_tensor(sorted, expected);
            }
        }
    }
}

TEST(CooRadixSort, WideKeyDuplicatesKeepInputOrder)
{
    // 12000 non-zeros on 12 distinct s9-like coordinates (80-bit keys):
    // a stable sort keeps each coordinate's values (= input positions)
    // ascending, which the stable oracles pin exactly.
    Rng rng(50);
    const std::vector<Index> dims = {830000, 830000, 830000, 830000};
    std::vector<Coordinate> distinct(12, Coordinate(4));
    for (auto& c : distinct)
        for (Size m = 0; m < 4; ++m)
            c[m] = rng.next_index(dims[m]);
    CooTensor x(dims);
    for (Size p = 0; p < 12000; ++p)
        x.append(distinct[rng.next_index(12)], static_cast<Value>(p));
    for (int threads : {1, 4}) {
        ScopedThreads scoped(threads);
        CooTensor lex = x;
        lex.sort_lexicographic();
        expect_same_tensor(lex, reference_sorted(x, all_modes(4)));
        CooTensor morton = x;
        morton.sort_morton(7);
        expect_same_tensor(morton, morton_reference(x, 7));
        for (Size p = 1; p < morton.nnz(); ++p) {
            if (morton.coordinate(p) == morton.coordinate(p - 1)) {
                ASSERT_LT(morton.value(p - 1), morton.value(p));
            }
        }
    }
}

TEST(CooRadixSort, VeryWideMortonKeysUseTheFullInterleave)
{
    // Order 6: bit 21 of mode 2 sits at interleaved position 128, beyond
    // morton_encode's 128 bits, so its truncated key orders `a` first;
    // the full interleave puts `b` (top bit at position 125) first.
    const std::vector<Index> dims(6, kMaxIndex);
    CooTensor x(dims);
    x.append({0, 0, 1u << 21, 0, 0, 0}, 1.0f);  // a
    x.append({0, 0, 0, 0, 0, 1u << 20}, 2.0f);  // b
    x.sort_morton(0);
    EXPECT_EQ(x.value(0), 2.0f);
    EXPECT_EQ(x.value(1), 1.0f);
}

}  // namespace
}  // namespace pasta
