// Tests for the dense layer: block-parallel zero-fill, fill and
// counter-based random init, and the CP-ALS algebra built on them — all
// bit-identical at any thread count — and the mapped storage of large
// buffers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/dense.hpp"
#include "methods/linalg.hpp"
#include "simd/simd.hpp"

namespace pasta {
namespace {

/// Byte-for-byte comparison of two arrays of `n` elements.
template <typename T>
bool
same_bits(const T* a, const T* b, Size n)
{
    return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

bool
same_bits(const DenseMatrix& a, const DenseMatrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           same_bits(a.data(), b.data(), a.rows() * a.cols());
}

bool
same_bits(const DenseVector& a, const DenseVector& b)
{
    return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

bool
same_bits(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

/// Restores the OpenMP default thread count on scope exit.
struct ThreadOverrideGuard {
    ~ThreadOverrideGuard() { set_num_threads(0); }
};

/// Evaluates `make()` on 1, 3 and 4 threads, and on 4 threads inside a
/// ThreadBudgetScope(1), and expects bit-identical results every time.
template <typename Make>
void
expect_thread_invariant(Make make)
{
    ThreadOverrideGuard guard;
    set_num_threads(1);
    const auto reference = make();
    for (int threads : {3, 4}) {
        set_num_threads(threads);
        EXPECT_TRUE(same_bits(make(), reference)) << threads << " threads";
    }
    ThreadBudgetScope budget(1);
    EXPECT_TRUE(same_bits(make(), reference)) << "ThreadBudgetScope(1)";
}

/// Rows that span several row blocks at rank 16.
constexpr Size kRows = 5 * dense_row_block(16) + 123;

TEST(DenseRandom, MatrixIsThreadCountInvariant)
{
    expect_thread_invariant([] {
        Rng rng(7);
        return DenseMatrix::random(kRows, 16, rng);
    });
}

TEST(DenseRandom, VectorIsThreadCountInvariant)
{
    expect_thread_invariant([] {
        Rng rng(8);
        return DenseVector::random(3 * kDenseBlock + 5, rng);
    });
}

TEST(DenseFill, IsThreadCountInvariant)
{
    expect_thread_invariant([] {
        Rng rng(9);
        DenseMatrix m = DenseMatrix::random(kRows, 16, rng);
        m.fill(0.75f);
        return m;
    });
}

TEST(DenseRandom, ElementsFollowTheCounterStream)
{
    // Element i is unit_float(splitmix64_at(key, i)) with the key drawn
    // once from the caller's generator: a function of (key, i) alone.
    Rng rng(11);
    const DenseVector v = DenseVector::random(2 * kDenseBlock + 7, rng);
    Rng replay(11);
    const std::uint64_t key = replay.next_u64();
    std::uint64_t state = key;
    for (Size i = 0; i < v.size(); ++i) {
        const std::uint64_t bits = splitmix64_at(key, i);
        ASSERT_EQ(bits, splitmix64(state)) << i;
        ASSERT_EQ(v[i], unit_float(bits)) << i;
    }
}

TEST(DenseRandom, SameBitsUnderEveryIsa)
{
    // Sizes with vector tails, across several blocks; scalar first.
    std::vector<simd::Isa> isas{simd::Isa::kScalar};
    for (simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kAvx512})
        if (simd::isa_supported(isa))
            isas.push_back(isa);
    const auto draw = [](simd::Isa isa) {
        simd::set_isa(isa);
        Rng rng(12);
        DenseMatrix m = DenseMatrix::random(kRows, 16, rng);
        DenseVector v = DenseVector::random(2 * kDenseBlock + 13, rng);
        DenseVector small = DenseVector::random(7, rng);
        return std::make_tuple(std::move(m), std::move(v), std::move(small));
    };
    const auto reference = draw(simd::Isa::kScalar);
    for (simd::Isa isa : isas) {
        const auto got = draw(isa);
        EXPECT_TRUE(same_bits(std::get<0>(got), std::get<0>(reference)))
            << simd::isa_name(isa);
        EXPECT_TRUE(same_bits(std::get<1>(got), std::get<1>(reference)))
            << simd::isa_name(isa);
        EXPECT_TRUE(same_bits(std::get<2>(got), std::get<2>(reference)))
            << simd::isa_name(isa);
    }
    simd::reset_isa_cache();
}

TEST(DenseRandom, UniformInUnitIntervalWithMeanOneHalf)
{
    Rng rng(12);
    const DenseVector v = DenseVector::random(Size{1} << 20, rng);
    double sum = 0.0;
    for (Size i = 0; i < v.size(); ++i) {
        ASSERT_GE(v[i], 0.0f);
        ASSERT_LT(v[i], 1.0f);
        sum += v[i];
    }
    EXPECT_NEAR(sum / static_cast<double>(v.size()), 0.5, 0.01);
}

TEST(DenseRandom, AdvancesCallerRngByExactlyOneDraw)
{
    for (Size n : {Size{0}, Size{1}, kDenseBlock + 1}) {
        Rng used(13);
        Rng expected(13);
        DenseMatrix::random(n, 4, used);
        DenseVector::random(n, used);
        expected.next_u64();
        expected.next_u64();
        EXPECT_EQ(used.next_u64(), expected.next_u64()) << n;
    }
}

TEST(DenseRandom, SuccessiveDrawsDiffer)
{
    Rng rng(14);
    const DenseMatrix a = DenseMatrix::random(100, 16, rng);
    const DenseMatrix b = DenseMatrix::random(100, 16, rng);
    EXPECT_FALSE(a == b);
    const DenseVector u = DenseVector::random(100, rng);
    const DenseVector v = DenseVector::random(100, rng);
    EXPECT_FALSE(u == v);
}

/// Elements in the smallest mapped buffer.
constexpr Size kMapElems = kDenseMapBytes / kValueBytes;

/// Elements in three huge pages, plus five.
constexpr Size kHugeElems = 3 * (Size{2} << 20) / kValueBytes + 5;

TEST(DenseFill, ExactAtBlockEdges)
{
    // Block edges, then the edges of mapped storage (whose zero
    // construction skips the fill).
    for (Size n : {Size{0}, Size{1}, kDenseBlock - 1, kDenseBlock,
                   kDenseBlock + 1, Size{1} << 22, kMapElems - 1, kMapElems,
                   kMapElems + 1, kHugeElems}) {
        // A freed buffer of non-zeros first, so a small allocation that
        // reuses it would show a missed zero-fill.
        { DenseVector junk(n, 7.0f); }
        const DenseVector zeros(n);
        ASSERT_EQ(zeros.size(), n);
        for (Size i = 0; i < n; ++i)
            ASSERT_EQ(zeros[i], 0.0f) << "n=" << n << " i=" << i;

        DenseMatrix m(n, 1);
        for (Size i = 0; i < n; ++i)
            ASSERT_EQ(m(i, 0), 0.0f) << "n=" << n << " i=" << i;
        m.fill(-1.25f);
        for (Size i = 0; i < n; ++i)
            ASSERT_EQ(m(i, 0), -1.25f) << "n=" << n << " i=" << i;

        DenseVector v(n, 2.5f);
        for (Size i = 0; i < n; ++i)
            ASSERT_EQ(v[i], 2.5f) << "n=" << n << " i=" << i;

        const DenseMatrix a(n, 1, -3.0f);
        const DenseVector neg(n, -0.0f);
        for (Size i = 0; i < n; ++i) {
            ASSERT_EQ(a(i, 0), -3.0f) << "n=" << n << " i=" << i;
            ASSERT_TRUE(std::signbit(neg[i])) << "n=" << n << " i=" << i;
        }
    }
}

/// True when every element of `m` is +0 (bitwise).
bool
all_positive_zero(const DenseMatrix& m)
{
    for (Size i = 0; i < m.rows() * m.cols(); ++i)
        if (std::bit_cast<std::uint32_t>(m.data()[i]) != 0)
            return false;
    return true;
}

/// A kRows x 16 matrix in the masked state whose rows `written` hold 7s,
/// built through the accumulate protocol.
DenseMatrix
masked_matrix(std::initializer_list<Size> written)
{
    DenseMatrix m(kRows, 16);
    std::uint8_t* mask = m.begin_accumulate();
    Value* d = m.data();
    for (Size row : written) {
        std::fill(d + row * 16, d + (row + 1) * 16, 7.0f);
        mask[row] = 1;
    }
    m.end_accumulate();
    return m;
}

TEST(DenseZeroState, ConstructorsSetIt)
{
    EXPECT_EQ(DenseMatrix(8, 4).zero_state(), ZeroState::kAllZero);
    EXPECT_EQ(DenseMatrix(kMapElems / 16 + 1, 16).zero_state(),
              ZeroState::kAllZero);
    EXPECT_EQ(DenseMatrix(8, 4, 5.0f).zero_state(), ZeroState::kUnknown);
    EXPECT_EQ(DenseMatrix(8, 4, -0.0f).zero_state(), ZeroState::kUnknown);
    EXPECT_EQ(DenseMatrix().zero_state(), ZeroState::kUnknown);
    Rng rng(40);
    EXPECT_EQ(DenseMatrix::random(8, 4, rng).zero_state(),
              ZeroState::kUnknown);
}

TEST(DenseZeroState, EveryNonConstAccessorForgetsIt)
{
    Rng rng(41);
    const auto writers = {
        +[](DenseMatrix& m, Rng&) { m(1, 1) = 1.0f; },
        +[](DenseMatrix& m, Rng&) { m.row(1)[0] = 1.0f; },
        +[](DenseMatrix& m, Rng&) { m.data()[0] = 1.0f; },
        +[](DenseMatrix& m, Rng&) { m.fill(0.0f); },
        +[](DenseMatrix& m, Rng& r) { m.randomize(r); },
    };
    for (const auto& write : writers) {
        DenseMatrix m(8, 4);
        const DenseMatrix& view = m;
        (void)view(1, 1);
        (void)view.row(1);
        (void)view.data();
        EXPECT_EQ(m.zero_state(), ZeroState::kAllZero);
        write(m, rng);
        EXPECT_EQ(m.zero_state(), ZeroState::kUnknown);

        DenseMatrix masked = masked_matrix({2});
        write(masked, rng);
        EXPECT_EQ(masked.zero_state(), ZeroState::kUnknown);
    }
}

TEST(DenseZeroState, BeginAccumulateLeavesPositiveZeros)
{
    // Fresh: nothing to write.  Unknown (-0 and 5 inits): a full fill.
    // Masked: the marked rows, spread over several row blocks.
    DenseMatrix fresh(kRows, 16);
    DenseMatrix negative(kRows, 16, -0.0f);
    DenseMatrix fives(kRows, 16, 5.0f);
    DenseMatrix masked = masked_matrix({0, 3, dense_row_block(16) + 1,
                                        kRows - 1});
    for (DenseMatrix* m : {&fresh, &negative, &fives, &masked}) {
        const std::uint8_t* mask = m->begin_accumulate();
        EXPECT_EQ(m->zero_state(), ZeroState::kUnknown);
        EXPECT_TRUE(all_positive_zero(*m));
        for (Size i = 0; i < kRows; ++i)
            ASSERT_EQ(mask[i], 0) << i;
        m->end_accumulate();
        EXPECT_EQ(m->zero_state(), ZeroState::kMasked);
    }
}

TEST(DenseZeroState, CopyMoveAndSelfAssignmentKeepItAndTheValues)
{
    const DenseMatrix m = masked_matrix({3, kRows - 2});
    const auto expect_kept = [&](DenseMatrix& got, const char* what) {
        EXPECT_EQ(got.zero_state(), ZeroState::kMasked) << what;
        EXPECT_TRUE(same_bits(got, m)) << what;
        // The carried mask names the written rows: clearing them
        // leaves all +0.
        got.begin_accumulate();
        EXPECT_TRUE(all_positive_zero(got)) << what;
    };
    DenseMatrix copy(m);
    expect_kept(copy, "copy");

    DenseMatrix source(m);
    DenseMatrix moved(std::move(source));
    expect_kept(moved, "move");

    DenseMatrix assigned(3, 3, 1.0f);
    assigned = m;
    expect_kept(assigned, "copy assignment");

    DenseMatrix move_source(m);
    DenseMatrix move_assigned;
    move_assigned = std::move(move_source);
    expect_kept(move_assigned, "move assignment");

    DenseMatrix self(m);
    DenseMatrix& alias = self;
    self = alias;
    expect_kept(self, "self assignment");
}

TEST(DenseZeroState, EqualityComparesValuesOnly)
{
    const DenseMatrix masked = masked_matrix({5});
    DenseMatrix unknown(masked);
    (void)unknown.data();
    ASSERT_EQ(unknown.zero_state(), ZeroState::kUnknown);
    EXPECT_TRUE(unknown == masked);
    EXPECT_FALSE(DenseMatrix(4, 4) == DenseMatrix(4, 4, 5.0f));
    DenseMatrix zeros(4, 4, 5.0f);
    zeros.fill(0.0f);
    EXPECT_TRUE(zeros == DenseMatrix(4, 4));
}

TEST(DenseMapped, PredicateFollowsTheThreshold)
{
    EXPECT_FALSE(dense_storage_mapped((kMapElems - 1) * kValueBytes));
    EXPECT_EQ(dense_storage_mapped(kMapElems * kValueBytes),
              kDenseMapEnabled);
    EXPECT_TRUE(dense_fill_needed((kMapElems - 1) * kValueBytes, 0.0f));
    EXPECT_EQ(dense_fill_needed(kMapElems * kValueBytes, 0.0f),
              !kDenseMapEnabled);
    EXPECT_TRUE(dense_fill_needed(kMapElems * kValueBytes, 1.0f));
    EXPECT_TRUE(dense_fill_needed(kMapElems * kValueBytes, -0.0f));
}

TEST(DenseMapped, BuffersAreHugePageAligned)
{
    if (!kDenseMapEnabled)
        GTEST_SKIP() << "AddressSanitizer build: storage is never mapped";
    for (Size n : {kMapElems, kMapElems + 1, kHugeElems}) {
        const DenseVector v(n);
        const DenseMatrix m(n / 16, 16, 1.0f);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % (2u << 20),
                  0u) << n;
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % (2u << 20),
                  0u) << n;
    }
}

TEST(DenseMapped, CopyMoveAndRandomKeepValues)
{
    const Size rows = kHugeElems / 16 + 1;
    Rng rng(19);
    const DenseMatrix a = DenseMatrix::random(rows, 16, rng);
    Rng replay(19);
    const std::uint64_t key = replay.next_u64();
    for (Size i = 0; i < rows * 16; ++i)
        ASSERT_EQ(a.data()[i], unit_float(splitmix64_at(key, i))) << i;

    DenseMatrix copy(a);
    EXPECT_TRUE(same_bits(copy, a));
    DenseMatrix moved(std::move(copy));
    EXPECT_TRUE(same_bits(moved, a));

    DenseMatrix assigned(7, 3, 1.0f);
    assigned = a;
    EXPECT_TRUE(same_bits(assigned, a));
    DenseMatrix& alias = assigned;
    assigned = alias;
    EXPECT_TRUE(same_bits(assigned, a));

    DenseMatrix move_assigned;
    move_assigned = std::move(moved);
    EXPECT_TRUE(same_bits(move_assigned, a));

    // Copy-assigning a smaller matrix into mapped storage, and back.
    DenseMatrix small(3, 16, 0.5f);
    assigned = small;
    EXPECT_TRUE(same_bits(assigned, small));
    assigned = a;
    EXPECT_TRUE(same_bits(assigned, a));
}

/// Fields 1 (program size) and 2 (resident set) of /proc/self/statm, in
/// pages.
std::pair<long, long>
statm_pages()
{
    std::ifstream in("/proc/self/statm");
    long size = 0;
    long resident = 0;
    in >> size >> resident;
    return {size, resident};
}

TEST(DenseMapped, RepeatedAllocationReturnsItsMemory)
{
    // The heap path is AddressSanitizer's, whose quarantine keeps freed
    // memory resident by design.
    if (!kDenseMapEnabled)
        GTEST_SKIP() << "AddressSanitizer build: storage is never mapped";
    // A 64 MiB matrix and a vector of 3 huge pages + 5 elements (its
    // over-map has a tail to trim wherever the mapping lands), each with
    // its first and last element touched: a short munmap shows in the
    // resident set, a leaked over-map in the program size.
    const Size rows = (Size{64} << 20) / kValueBytes / 16;
    const auto cycle = [&] {
        DenseMatrix m(rows, 16);
        m(0, 0) = 1.0f;
        m(rows - 1, 15) = 1.0f;
        DenseVector v(kHugeElems);
        v[0] = 1.0f;
        v[kHugeElems - 1] = 1.0f;
    };
    cycle();
    const auto [size0, resident0] = statm_pages();
    ASSERT_GT(size0, 0);
    for (int i = 0; i < 200; ++i)
        cycle();
    const auto [size1, resident1] = statm_pages();
    // One leaked page per cycle is 200 pages.
    const long bound = 64;
    EXPECT_LT(size1 - size0, bound);
    EXPECT_LT(resident1 - resident0, bound);
}

TEST(DenseLinalg, GramMatrixIsThreadCountInvariant)
{
    Rng rng(15);
    const DenseMatrix a = DenseMatrix::random(kRows, 16, rng);
    expect_thread_invariant([&] { return gram_matrix(a); });
}

TEST(DenseLinalg, GramMatrixIsSymmetric)
{
    Rng rng(16);
    const DenseMatrix a = DenseMatrix::random(kRows, 5, rng);
    const std::vector<double> g = gram_matrix(a);
    for (Size p = 0; p < 5; ++p)
        for (Size q = 0; q < 5; ++q)
            EXPECT_EQ(g[p * 5 + q], g[q * 5 + p]);
}

TEST(DenseLinalg, NormalizeColumnsIsThreadCountInvariant)
{
    Rng rng(17);
    const DenseMatrix a = DenseMatrix::random(kRows, 16, rng);
    expect_thread_invariant([&] {
        DenseMatrix m = a;
        return normalize_columns(m);
    });
    expect_thread_invariant([&] {
        DenseMatrix m = a;
        normalize_columns(m);
        return m;
    });
}

TEST(DenseLinalg, MatmulSmallIsThreadCountInvariant)
{
    Rng rng(18);
    const DenseMatrix a = DenseMatrix::random(kRows, 16, rng);
    std::vector<double> rhs(16 * 16);
    for (auto& v : rhs)
        v = rng.next_double() - 0.5;
    expect_thread_invariant([&] {
        DenseMatrix out(kRows, 16);
        matmul_small(a, rhs, out);
        return out;
    });
}

}  // namespace
}  // namespace pasta
