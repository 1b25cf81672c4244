// Conversion round-trip tests, including parameterized property sweeps
// over tensor orders and block sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <tuple>

#include "common/membudget.hpp"
#include "common/morton.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "core/sort_radix.hpp"

namespace pasta {
namespace {

CooTensor
random_tensor(Size order, Index dim, Size nnz, std::uint64_t seed)
{
    Rng rng(seed);
    return CooTensor::random(std::vector<Index>(order, dim), nnz, rng);
}

/// RAII thread-count override.
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

/// Comparator oracle for the Morton-then-lexicographic conversion
/// orders: positions stably sorted by the 128-bit morton_encode key of
/// the `group` columns' blocks, then by the full coordinates of `group`,
/// then of `tail` — the comparator sorts the radix path replaced.
std::vector<Size>
morton_oracle(const std::vector<std::vector<Index>>& cols,
              const std::vector<Size>& group, const std::vector<Size>& tail,
              unsigned bits)
{
    const Size n = cols[0].size();
    std::vector<MortonKey> keys(n);
    std::vector<Index> blocks(group.size());
    for (Size p = 0; p < n; ++p) {
        for (Size s = 0; s < group.size(); ++s)
            blocks[s] = cols[group[s]][p] >> bits;
        keys[p] = morton_encode(blocks.data(), blocks.size());
    }
    std::vector<Size> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::stable_sort(perm.begin(), perm.end(), [&](Size a, Size b) {
        if (!(keys[a] == keys[b]))
            return keys[a] < keys[b];
        for (const auto* modes : {&group, &tail})
            for (Size c : *modes)
                if (cols[c][a] != cols[c][b])
                    return cols[c][a] < cols[c][b];
        return false;
    });
    return perm;
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

TEST(ConvertWideKeys, GhicooEveryUncompressedModeMatchesComparatorOracle)
{
    // s9-like, r14-like and a 5th-order shape: two- and three-word keys.
    const std::vector<std::vector<Index>> shapes = {
        {830000, 830000, 830000, 830000},
        {32000, 2800000, 160000, 73},
        {1u << 31, 1u << 31, 1u << 31, 1u << 31, 1u << 31},
    };
    const unsigned bits = 7;
    for (Size shape = 0; shape < shapes.size(); ++shape) {
        const CooTensor x = shuffled_tensor(shapes[shape], 10000, 60 + shape);
        const Size n = x.order();
        for (Size u = 0; u < n; ++u) {
            std::vector<bool> compressed(n, true);
            compressed[u] = false;
            std::vector<Size> comp;
            for (Size m = 0; m < n; ++m)
                if (m != u)
                    comp.push_back(m);
            radix::KeyLayout layout =
                radix::morton_layout(x.dims(), comp, bits);
            radix::append_lex_fields(layout, x.dims(), {u});
            EXPECT_GT(layout.words(), 1u);
            const std::vector<Size> expected =
                morton_oracle(x.indices_view(), comp, {u}, bits);
            for (int threads : {1, 2, 4}) {
                ScopedThreads scoped(threads);
                const GHiCooTensor g = coo_to_ghicoo(x, compressed, bits);
                SCOPED_TRACE(testing::Message()
                             << "shape " << shape << " uncompressed " << u
                             << " threads " << threads);
                ASSERT_EQ(g.nnz(), expected.size());
                Size i = 0;
                for (Size b = 0; b < g.num_blocks(); ++b) {
                    for (Size p = g.bptr()[b]; p < g.bptr()[b + 1];
                         ++p, ++i) {
                        for (Size m = 0; m < n; ++m)
                            ASSERT_EQ(g.coordinate(m, b, p),
                                      x.index(m, expected[i]));
                        ASSERT_EQ(g.value(p), x.value(expected[i]));
                    }
                }
            }
        }
    }
}

TEST(ConvertWideKeys, ShicooMatchesComparatorOracle)
{
    // r14-like with its 73-wide mode dense (two-word sparse keys), and a
    // 6th-order shape whose five sparse slots need three words.
    const std::vector<std::vector<Index>> shapes = {
        {32000, 2800000, 160000, 73},
        {1u << 31, 1u << 31, 1u << 31, 1u << 31, 1u << 31, 3},
    };
    const unsigned bits = 7;
    for (Size shape = 0; shape < shapes.size(); ++shape) {
        const CooTensor x = shuffled_tensor(shapes[shape], 10000, 70 + shape);
        const Size dense = x.order() - 1;
        const ScooTensor sc = coo_to_scoo(x, dense);
        const Size ns = sc.sparse_modes().size();
        std::vector<Size> slots(ns);
        std::iota(slots.begin(), slots.end(), 0);
        const std::vector<Size> expected =
            morton_oracle(sc.sparse_indices_view(), slots, {}, bits);
        for (int threads : {1, 2, 4}) {
            ScopedThreads scoped(threads);
            const SHiCooTensor sh = scoo_to_shicoo(sc, bits);
            SCOPED_TRACE(testing::Message()
                         << "shape " << shape << " threads " << threads);
            ASSERT_EQ(sh.num_sparse(), expected.size());
            Size i = 0;
            for (Size b = 0; b < sh.num_blocks(); ++b) {
                for (Size p = sh.bptr()[b]; p < sh.bptr()[b + 1]; ++p, ++i) {
                    for (Size s = 0; s < ns; ++s)
                        ASSERT_EQ(sh.sparse_coordinate(s, b, p),
                                  sc.sparse_index(s, expected[i]));
                    ASSERT_EQ(std::memcmp(sh.stripe(p),
                                          sc.stripe(expected[i]),
                                          sc.stripe_volume() *
                                              sizeof(Value)),
                              0);
                }
            }
        }
    }
}

TEST(Convert, CooHicooRoundTripSmall)
{
    CooTensor x = random_tensor(3, 64, 400, 11);
    HiCooTensor h = coo_to_hicoo(x, 3);
    h.validate();
    EXPECT_EQ(h.nnz(), x.nnz());
    CooTensor back = hicoo_to_coo(h);
    EXPECT_TRUE(tensors_almost_equal(x, back));
}

TEST(Convert, HicooBlocksAreMortonSortedAndNonEmpty)
{
    CooTensor x = random_tensor(3, 128, 800, 13);
    HiCooTensor h = coo_to_hicoo(x, 4);
    EXPECT_GT(h.num_blocks(), 0u);
    for (Size b = 0; b < h.num_blocks(); ++b)
        EXPECT_GT(h.bptr()[b + 1], h.bptr()[b]);
    // Every block's coordinates must be distinct from its successor's.
    for (Size b = 1; b < h.num_blocks(); ++b) {
        bool same = true;
        for (Size m = 0; m < h.order(); ++m)
            same &= (h.block_index(m, b) == h.block_index(m, b - 1));
        EXPECT_FALSE(same) << "duplicate adjacent block " << b;
    }
}

TEST(Convert, HicooCompressesDenseClusters)
{
    // A tensor clustered into one block compresses far below COO size.
    CooTensor x({256, 256, 256});
    for (Index i = 0; i < 8; ++i)
        for (Index j = 0; j < 8; ++j)
            for (Index k = 0; k < 8; ++k)
                x.append({i, j, k}, 1.0f);
    HiCooTensor h = coo_to_hicoo(x, 3);
    EXPECT_EQ(h.num_blocks(), 1u);
    EXPECT_LT(h.storage_bytes(), x.storage_bytes());
}

TEST(Convert, HicooOnHyperSparseLosesToCoo)
{
    // Hyper-sparse: every non-zero in its own block; the block metadata
    // makes HiCOO larger than COO (the gHiCOO motivation, §III-C).
    CooTensor x({1 << 16, 1 << 16, 1 << 16});
    Rng rng(3);
    for (int p = 0; p < 200; ++p)
        x.append({rng.next_index(1 << 16), rng.next_index(1 << 16),
                  rng.next_index(1 << 16)},
                 1.0f);
    x.sort_lexicographic();
    x.coalesce();
    HiCooTensor h = coo_to_hicoo(x, 3);
    EXPECT_EQ(h.num_blocks(), h.nnz());
    EXPECT_GT(h.storage_bytes(), x.storage_bytes());
}

TEST(Convert, GhicooRoundTrip)
{
    CooTensor x = random_tensor(3, 64, 300, 17);
    GHiCooTensor g = coo_to_ghicoo(x, {true, true, false}, 3);
    g.validate();
    EXPECT_EQ(g.nnz(), x.nnz());
    CooTensor back = ghicoo_to_coo(g);
    EXPECT_TRUE(tensors_almost_equal(x, back));
}

TEST(Convert, GhicooAllCompressedMatchesHicooBlockCount)
{
    CooTensor x = random_tensor(3, 64, 300, 19);
    GHiCooTensor g = coo_to_ghicoo(x, {true, true, true}, 3);
    HiCooTensor h = coo_to_hicoo(x, 3);
    EXPECT_EQ(g.num_blocks(), h.num_blocks());
}

TEST(Convert, GhicooUncompressedModeSavesBlocks)
{
    // Leaving a mode out of the blocking can only reduce (or keep) the
    // number of distinct blocks.
    CooTensor x = random_tensor(3, 64, 500, 23);
    GHiCooTensor all = coo_to_ghicoo(x, {true, true, true}, 3);
    GHiCooTensor partial = coo_to_ghicoo(x, {true, true, false}, 3);
    EXPECT_LE(partial.num_blocks(), all.num_blocks());
}

TEST(Convert, ScooRoundTripViaCoo)
{
    CooTensor x = random_tensor(3, 16, 120, 29);
    ScooTensor s = coo_to_scoo(x, 1);
    s.validate();
    CooTensor back = s.to_coo();
    EXPECT_TRUE(tensors_almost_equal(x, back));
}

TEST(Convert, ScooStripesMatchFiberCount)
{
    CooTensor x({4, 8, 4});
    x.append({1, 0, 1}, 1.0f);
    x.append({1, 3, 1}, 2.0f);  // same (i,k) fiber
    x.append({2, 5, 0}, 3.0f);
    ScooTensor s = coo_to_scoo(x, 1);
    EXPECT_EQ(s.num_sparse(), 2u);
    EXPECT_EQ(s.stripe_volume(), 8u);
}

TEST(Convert, ShicooRoundTripViaScoo)
{
    CooTensor x = random_tensor(3, 32, 200, 31);
    ScooTensor s = coo_to_scoo(x, 2);
    SHiCooTensor sh = scoo_to_shicoo(s, 3);
    sh.validate();
    EXPECT_EQ(sh.num_sparse(), s.num_sparse());
    CooTensor back = sh.to_scoo().to_coo();
    EXPECT_TRUE(tensors_almost_equal(x, back));
}

TEST(Convert, EmptyTensorsConvertCleanly)
{
    CooTensor x({16, 16, 16});
    HiCooTensor h = coo_to_hicoo(x, 3);
    EXPECT_EQ(h.nnz(), 0u);
    EXPECT_EQ(h.num_blocks(), 0u);
    EXPECT_EQ(hicoo_to_coo(h).nnz(), 0u);
    GHiCooTensor g = coo_to_ghicoo(x, {true, false, true}, 3);
    EXPECT_EQ(g.nnz(), 0u);
    EXPECT_EQ(ghicoo_to_coo(g).nnz(), 0u);
}

TEST(Convert, GovernorProbesCountWhatBlockedConversionsAllocate)
{
    // A 4th-order shape whose Morton keys take two radix words: 4 x 13
    // block bits + 4 x 7 offset bits for HiCOO, 3 x 13 + 3 x 7 + a raw
    // 20-bit mode for gHiCOO.
    const std::vector<Index> dims(4, Index{1} << 20);
    ASSERT_EQ(radix::morton_layout(dims, {0, 1, 2, 3}, 7).words(), 2u);
    radix::KeyLayout g = radix::morton_layout(dims, {0, 1, 2}, 7);
    radix::append_lex_fields(g, dims, {3});
    ASSERT_EQ(g.words(), 2u);
    Rng rng(9);
    const CooTensor x = CooTensor::random(dims, 3000, rng);
    const std::uint64_t m = x.nnz();
    // Per non-zero: two key words (16 bytes) plus the permutation and
    // the sort's key and permutation buffers (24 bytes); HiCOO also
    // holds a Morton-sorted COO copy (4 x (N + 1) = 20 bytes).
    const std::uint64_t ghicoo_probe = (16 + 24) * m;
    const std::uint64_t hicoo_probe = 20 * m + ghicoo_probe;

    auto& gov = membudget::MemGovernor::instance();
    // The rejection message at a budget of `bytes` more than is
    // reserved, or "" when the conversion fits.
    const auto rejection = [&](std::uint64_t bytes, auto convert) {
        gov.configure(gov.reserved() + bytes);
        std::string what;
        try {
            convert();
        } catch (const membudget::HostOomError& e) {
            what = e.what();
        }
        gov.configure(0);
        return what;
    };
    const auto hicoo = [&] { (void)coo_to_hicoo(x, 7); };
    const auto ghicoo = [&] {
        (void)coo_to_ghicoo(x, {true, true, true, false}, 7);
    };
    EXPECT_NE(rejection(hicoo_probe - 1, hicoo).find("hicoo.convert"),
              std::string::npos);
    EXPECT_EQ(rejection(hicoo_probe, hicoo), "");
    EXPECT_NE(rejection(ghicoo_probe - 1, ghicoo).find("ghicoo.convert"),
              std::string::npos);
    EXPECT_EQ(rejection(ghicoo_probe, ghicoo), "");
}

TEST(Convert, GovernorProbeCountsScooStripes)
{
    // A long dense mode: the stripes (M_F x 1024 values) dwarf the
    // fiber view and the sort that builds it.
    Rng rng(10);
    const CooTensor x = CooTensor::random({64, 64, 1024}, 2000, rng);
    std::set<std::pair<Index, Index>> heads;
    for (Size p = 0; p < x.nnz(); ++p)
        heads.insert({x.index(0, p), x.index(1, p)});
    const std::uint64_t fibers = heads.size();
    // The view: a sorted COO copy (4 x (N + 1) bytes per non-zero) and
    // fptr; then per fiber 1024 values and two sparse indices.
    const std::uint64_t probe = 16 * x.nnz() + 8 * (fibers + 1) +
                                fibers * (4 * 1024 + 2 * 4);

    auto& gov = membudget::MemGovernor::instance();
    const auto rejection = [&](std::uint64_t bytes) {
        gov.configure(gov.reserved() + bytes);
        std::string what;
        try {
            (void)coo_to_scoo(x, 2);
        } catch (const membudget::HostOomError& e) {
            what = e.what();
        }
        gov.configure(0);
        return what;
    };
    EXPECT_NE(rejection(probe - 1).find("scoo.convert"), std::string::npos);
    EXPECT_EQ(rejection(probe), "");
}

TEST(Convert, TensorsAlmostEqualToleratesReordering)
{
    CooTensor a({8, 8});
    a.append({1, 1}, 1.0f);
    a.append({2, 2}, 2.0f);
    CooTensor b({8, 8});
    b.append({2, 2}, 2.0f);
    b.append({1, 1}, 1.0f);
    EXPECT_TRUE(tensors_almost_equal(a, b));
    b.values()[0] = 2.1f;
    EXPECT_FALSE(tensors_almost_equal(a, b, 1e-3));
    EXPECT_TRUE(tensors_almost_equal(a, b, 0.2));
}

// Property sweep: round trips must hold for every order x block-bits x
// density combination.
class ConvertRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvertRoundTrip, CooHicooCooIsLossless)
{
    const auto [order, block_bits, nnz] = GetParam();
    const Index dim = order == 1 ? 4096 : (order <= 3 ? 64 : 16);
    CooTensor x = random_tensor(order, dim, nnz,
                                1000 + order * 37 + block_bits);
    HiCooTensor h = coo_to_hicoo(x, block_bits);
    h.validate();
    EXPECT_TRUE(tensors_almost_equal(x, hicoo_to_coo(h)));
    // Conservation: block populations sum to nnz.
    EXPECT_EQ(h.bptr().back(), x.nnz());
}

TEST_P(ConvertRoundTrip, GhicooEveryLastModeUncompressed)
{
    const auto [order, block_bits, nnz] = GetParam();
    const Index dim = order == 1 ? 4096 : (order <= 3 ? 64 : 16);
    CooTensor x = random_tensor(order, dim, nnz,
                                2000 + order * 37 + block_bits);
    for (Size uncmp = 0; uncmp < static_cast<Size>(order); ++uncmp) {
        std::vector<bool> mask(order, true);
        mask[uncmp] = false;
        if (order == 1)
            break;  // needs at least one compressed mode
        GHiCooTensor g = coo_to_ghicoo(x, mask, block_bits);
        g.validate();
        EXPECT_TRUE(tensors_almost_equal(x, ghicoo_to_coo(g)))
            << "order " << order << " uncompressed mode " << uncmp;
    }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndBlocks, ConvertRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(2, 4, 7),
                       ::testing::Values(50, 400)));

}  // namespace
}  // namespace pasta
