// Tests for MTTKRP (COO parallel/sequential and HiCOO) against the dense
// reference.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <tuple>

#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "core/csf_tensor.hpp"
#include "kernels/csf_kernels.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/reference.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pasta {
namespace {

struct Problem {
    CooTensor x;
    std::vector<DenseMatrix> mats;

    FactorList factors() const
    {
        FactorList list;
        for (const auto& m : mats)
            list.push_back(&m);
        return list;
    }
};

Problem
make_problem(const std::vector<Index>& dims, Size nnz, Size rank,
             std::uint64_t seed)
{
    Rng rng(seed);
    Problem prob;
    prob.x = CooTensor::random(dims, nnz, rng);
    for (Index d : dims)
        prob.mats.push_back(DenseMatrix::random(d, rank, rng));
    return prob;
}

/// Sets the worker count for a scope, then restores the default.
struct ScopedThreads {
    explicit ScopedThreads(int n) { set_num_threads(n); }
    ~ScopedThreads() { set_num_threads(0); }
};

bool
same_bits(const DenseMatrix& a, const DenseMatrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(Value)) == 0;
}

TEST(MttkrpCoo, HandComputedThirdOrderExample)
{
    // Single non-zero x(1,0,1)=2 with rank-1 factors of all ones except
    // B(0,0)=3, C(1,0)=5: out(1,0) = 2*3*5 = 30.
    CooTensor x({2, 2, 2});
    x.append({1, 0, 1}, 2.0f);
    DenseMatrix a(2, 1, 1.0f);
    DenseMatrix b(2, 1, 1.0f);
    DenseMatrix c(2, 1, 1.0f);
    b(0, 0) = 3.0f;
    c(1, 0) = 5.0f;
    DenseMatrix out(2, 1);
    mttkrp_coo(x, {&a, &b, &c}, 0, out);
    EXPECT_FLOAT_EQ(out(1, 0), 30.0f);
    EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
}

TEST(MttkrpCoo, MatchesDenseReferenceOnAllModes)
{
    Problem prob = make_problem({10, 12, 8}, 200, 5, 1);
    DenseTensor dx = DenseTensor::from_coo(prob.x);
    for (Size mode = 0; mode < 3; ++mode) {
        DenseMatrix out(prob.x.dim(mode), 5);
        mttkrp_coo(prob.x, prob.factors(), mode, out);
        DenseMatrix expected = ref_mttkrp(dx, prob.factors(), mode);
        EXPECT_LT(max_abs_diff(out, expected), 1e-3) << "mode " << mode;
    }
}

TEST(MttkrpCoo, SequentialMatchesParallel)
{
    Problem prob = make_problem({16, 16, 16}, 400, 8, 2);
    DenseMatrix par(16, 8);
    DenseMatrix seq(16, 8);
    mttkrp_coo(prob.x, prob.factors(), 1, par);
    mttkrp_coo_seq(prob.x, prob.factors(), 1, seq);
    EXPECT_LT(max_abs_diff(par, seq), 1e-3);
}

TEST(MttkrpHicoo, MatchesCooOnAllModes)
{
    Problem prob = make_problem({32, 32, 32}, 600, 6, 3);
    HiCooTensor hx = coo_to_hicoo(prob.x, 3);
    for (Size mode = 0; mode < 3; ++mode) {
        DenseMatrix coo_out(32, 6);
        DenseMatrix hicoo_out(32, 6);
        mttkrp_coo(prob.x, prob.factors(), mode, coo_out);
        mttkrp_hicoo(hx, prob.factors(), mode, hicoo_out);
        EXPECT_LT(max_abs_diff(coo_out, hicoo_out), 1e-3)
            << "mode " << mode;
    }
}

TEST(MttkrpCoo, RejectsBadInputs)
{
    Problem prob = make_problem({8, 8, 8}, 50, 4, 4);
    DenseMatrix out(8, 4);
    EXPECT_THROW(mttkrp_coo(prob.x, prob.factors(), 3, out), PastaError);
    DenseMatrix bad_out(7, 4);
    EXPECT_THROW(mttkrp_coo(prob.x, prob.factors(), 0, bad_out),
                 PastaError);
    FactorList too_few = {&prob.mats[0], &prob.mats[1]};
    EXPECT_THROW(mttkrp_coo(prob.x, too_few, 0, out), PastaError);
    DenseMatrix wrong_rank(8, 3);
    FactorList mixed = {&prob.mats[0], &wrong_rank, &prob.mats[2]};
    EXPECT_THROW(mttkrp_coo(prob.x, mixed, 0, out), PastaError);
}

TEST(MttkrpCoo, AccumulatesDuplicateOutputRows)
{
    // Many non-zeros mapping to the same output row stress the atomic
    // update path.
    CooTensor x({2, 64, 64});
    Rng rng(5);
    for (int i = 0; i < 500; ++i)
        x.append({0, rng.next_index(64), rng.next_index(64)}, 1.0f);
    x.sort_lexicographic();
    x.coalesce();
    DenseMatrix b(64, 4, 1.0f);
    DenseMatrix c(64, 4, 1.0f);
    DenseMatrix a(2, 4, 1.0f);
    DenseMatrix out(2, 4);
    mttkrp_coo(x, {&a, &b, &c}, 0, out);
    // All 500 appended values are 1 and the factors are all-ones, so
    // out(0,r) = 500 (coalesce merges duplicates but preserves the sum).
    for (Size r = 0; r < 4; ++r)
        EXPECT_FLOAT_EQ(out(0, r), 500.0f);
}

TEST(MttkrpCoo, OutputZeroedBetweenRuns)
{
    Problem prob = make_problem({12, 12, 12}, 150, 4, 6);
    DenseMatrix out(12, 4, 123.0f);  // dirty buffer
    mttkrp_coo(prob.x, prob.factors(), 2, out);
    DenseMatrix out2(12, 4);
    mttkrp_coo(prob.x, prob.factors(), 2, out2);
    EXPECT_LT(max_abs_diff(out, out2), 1e-4);
}

TEST(MttkrpCoo, PrivatizedMatchesAtomicVariant)
{
    Problem prob = make_problem({24, 24, 24}, 500, 8, 11);
    DenseMatrix atomic_out(24, 8);
    DenseMatrix priv_out(24, 8);
    for (Size mode = 0; mode < 3; ++mode) {
        mttkrp_coo(prob.x, prob.factors(), mode, atomic_out);
        mttkrp_coo_privatized(prob.x, prob.factors(), mode, priv_out);
        EXPECT_LT(max_abs_diff(atomic_out, priv_out), 1e-3)
            << "mode " << mode;
    }
}

TEST(MttkrpCoo, PrivatizedHandlesSkewedOutputRows)
{
    // All non-zeros hit one output row: the worst case for atomics, the
    // easy case for privatization; results must still agree.
    CooTensor x({2, 32, 32});
    Rng rng(12);
    for (int p = 0; p < 300; ++p)
        x.append({0, rng.next_index(32), rng.next_index(32)}, 0.5f);
    x.sort_lexicographic();
    x.coalesce();
    std::vector<DenseMatrix> mats;
    mats.push_back(DenseMatrix::random(2, 4, rng));
    mats.push_back(DenseMatrix::random(32, 4, rng));
    mats.push_back(DenseMatrix::random(32, 4, rng));
    FactorList factors = {&mats[0], &mats[1], &mats[2]};
    DenseMatrix a(2, 4);
    DenseMatrix b(2, 4);
    mttkrp_coo_seq(x, factors, 0, a);
    mttkrp_coo_privatized(x, factors, 0, b);
    EXPECT_LT(max_abs_diff(a, b), 1e-3);
}

TEST(MttkrpCoo, PickHeuristicRespectsBudgetAndDensity)
{
    // Tiny output + dense stream: privatize.  A replicated buffer that
    // would blow the 64 MiB budget, or a stream far sparser than the
    // output rows, must fall back to atomics.
    const int threads = num_threads();
    EXPECT_EQ(mttkrp_contention(1 << 10, 1 << 20, 16, threads, 0),
              MttkrpVariant::kPrivatized);
    EXPECT_EQ(mttkrp_contention(kMaxIndex, 1 << 20, 64, threads, 0),
              MttkrpVariant::kAtomic);
    // dim >> nnz: the zero+reduce sweep would dominate.
    EXPECT_EQ(mttkrp_contention(1 << 20, 16, 1, threads, 0),
              MttkrpVariant::kAtomic);
}

/// The COO rule the contention policy must keep: privatize when the
/// threads x dim x rank copies fit 2^24 values and the governor, and
/// 2 x threads x dim <= nnz; atomics otherwise.
MttkrpVariant
coo_rule(Index dim, Size nnz, Size rank, int threads)
{
    const Size t = static_cast<Size>(threads);
    const Size copies = t * dim * rank;
    if (copies > (Size{1} << 24) ||
        !membudget::would_fit(std::uint64_t{4} * copies) ||
        2 * t * dim > nnz)
        return MttkrpVariant::kAtomic;
    return MttkrpVariant::kPrivatized;
}

/// Runs `check` with the memory governor armed at `budget` bytes more
/// than is reserved (0 = unarmed), then disarms it.
template <typename Check>
void
with_budget(std::uint64_t budget, Check check)
{
    auto& gov = membudget::MemGovernor::instance();
    gov.configure(budget == 0 ? 0 : gov.reserved() + budget);
    check();
    gov.configure(0);
}

TEST(MttkrpContention, OnePolicyForCooAndHicoo)
{
    const Index dims[] = {1, 8, 100, 1000, 5000, 1 << 20};
    const Size nnzs[] = {0, 16, 1000, 20000, 385000, Size{1} << 24};
    const Size groups[] = {0, 1, 3, 4, 7, 8, 17, 1000};
    for (std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{4096}}) {
        with_budget(budget, [&] {
            for (Index dim : dims)
                for (Size nnz : nnzs)
                    for (int threads : {1, 2, 4})
                        for (Size rank : {Size{1}, Size{16}, Size{64}})
                            for (Size g : groups) {
                                const MttkrpVariant pick = mttkrp_contention(
                                    dim, nnz, rank, threads, g);
                                const MttkrpVariant coo =
                                    coo_rule(dim, nnz, rank, threads);
                                const std::string where =
                                    "dim " + std::to_string(dim) + " nnz " +
                                    std::to_string(nnz) + " threads " +
                                    std::to_string(threads) + " rank " +
                                    std::to_string(rank) + " groups " +
                                    std::to_string(g) + " budget " +
                                    std::to_string(budget);
                                if (g == 0) {
                                    EXPECT_EQ(pick, coo) << where;
                                } else if (threads == 1) {
                                    EXPECT_EQ(pick,
                                              MttkrpVariant::kBlockOwner)
                                        << where;
                                } else if (coo ==
                                           MttkrpVariant::kPrivatized) {
                                    EXPECT_EQ(pick,
                                              MttkrpVariant::kPrivatized)
                                        << where;
                                } else {
                                    EXPECT_EQ(
                                        pick,
                                        g >= 2 * static_cast<Size>(threads)
                                            ? MttkrpVariant::kBlockOwner
                                            : MttkrpVariant::kAtomic)
                                        << where;
                                }
                            }
        });
    }
}

TEST(MttkrpContention, RefusedCopiesFallBackToOwnerOrAtomics)
{
    // A short, dense mode privatizes at 4 threads in both formats ...
    EXPECT_EQ(mttkrp_contention(100, 100000, 16, 4, 0),
              MttkrpVariant::kPrivatized);
    EXPECT_EQ(mttkrp_contention(100, 100000, 16, 4, 1),
              MttkrpVariant::kPrivatized);
    // ... unless the copies exceed the 2^24-value budget ...
    const Index wide = (Index{1} << 20) + 1;
    EXPECT_EQ(mttkrp_contention(wide, Size{1} << 30, 4, 4, 0),
              MttkrpVariant::kAtomic);
    EXPECT_EQ(mttkrp_contention(wide, Size{1} << 30, 4, 4, 8),
              MttkrpVariant::kBlockOwner);
    EXPECT_EQ(mttkrp_contention(wide, Size{1} << 30, 4, 4, 7),
              MttkrpVariant::kAtomic);
    // ... or the governor: 4 x 100 x 16 x 4 bytes, one byte short.
    with_budget(4 * 100 * 16 * 4 - 1, [] {
        EXPECT_EQ(mttkrp_contention(100, 100000, 16, 4, 0),
                  MttkrpVariant::kAtomic);
        EXPECT_EQ(mttkrp_contention(100, 100000, 16, 4, 8),
                  MttkrpVariant::kBlockOwner);
        EXPECT_EQ(mttkrp_contention(100, 100000, 16, 4, 1),
                  MttkrpVariant::kAtomic);
    });
    with_budget(4 * 100 * 16 * 4, [] {
        EXPECT_EQ(mttkrp_contention(100, 100000, 16, 4, 1),
                  MttkrpVariant::kPrivatized);
    });
    // One worker: HiCOO keeps the owner schedule, COO privatizes.
    EXPECT_EQ(mttkrp_contention(100, 100000, 16, 1, 1),
              MttkrpVariant::kBlockOwner);
    EXPECT_EQ(mttkrp_contention(100, 100000, 16, 1, 0),
              MttkrpVariant::kPrivatized);
}

TEST(MttkrpHicoo, BlockOwnerScheduleGroupsBlocksByOutputIndex)
{
    Problem prob = make_problem({64, 64, 64}, 800, 4, 21);
    HiCooTensor hx = coo_to_hicoo(prob.x, 3);
    for (Size mode = 0; mode < 3; ++mode) {
        const OwnerSchedule& sched = hx.owner_schedule(mode);
        ASSERT_EQ(sched.blocks.size(), hx.num_blocks());
        ASSERT_GE(sched.group_ptr.size(), 2u);
        EXPECT_EQ(sched.group_ptr.front(), 0u);
        EXPECT_EQ(sched.group_ptr.back(), hx.num_blocks());
        // Within a group every block shares the output block index;
        // across group boundaries the index strictly increases.
        for (Size g = 0; g + 1 < sched.group_ptr.size(); ++g) {
            const BIndex key =
                hx.block_index(mode, sched.blocks[sched.group_ptr[g]]);
            for (Size s = sched.group_ptr[g]; s < sched.group_ptr[g + 1];
                 ++s)
                EXPECT_EQ(hx.block_index(mode, sched.blocks[s]), key);
            if (g > 0) {
                EXPECT_GT(key, hx.block_index(
                                   mode,
                                   sched.blocks[sched.group_ptr[g - 1]]));
            }
        }
    }
}

TEST(MttkrpHicoo, OwnerAndAtomicVariantsAgree)
{
    Problem prob = make_problem({64, 64, 64}, 1000, 8, 22);
    HiCooTensor hx = coo_to_hicoo(prob.x, 3);
    for (Size mode = 0; mode < 3; ++mode) {
        DenseMatrix auto_out(64, 8);
        DenseMatrix atomic_out(64, 8);
        mttkrp_hicoo(hx, prob.factors(), mode, auto_out);
        mttkrp_hicoo_atomic(hx, prob.factors(), mode, atomic_out);
        EXPECT_LT(max_abs_diff(auto_out, atomic_out), 1e-3)
            << "mode " << mode;
    }
}

TEST(MttkrpHicoo, AtomicFusesRunsOfOneOutputRow)
{
    // A 16-row mode 0 in 16-wide blocks: consecutive non-zeros of a
    // block often share their mode-0 row.  Each such run is one set of
    // rank atomics, so mttkrp.atomics = runs x rank < nnz x rank.
    const Size rank = 8;
    Problem prob = make_problem({16, 64, 64}, 3000, rank, 31);
    const HiCooTensor hx = coo_to_hicoo(prob.x, 4);
    Size runs = 0;
    for (Size b = 0; b < hx.num_blocks(); ++b)
        for (Size p = hx.bptr()[b]; p < hx.bptr()[b + 1]; ++p)
            runs += p == hx.bptr()[b] ||
                    hx.element_index(0, p) != hx.element_index(0, p - 1);
    obs::set_mode(obs::TraceMode::kCounters);
    obs::reset_metrics();
    DenseMatrix out(16, rank);
    mttkrp_hicoo_atomic(hx, prob.factors(), 0, out);
    const std::uint64_t atomics =
        obs::snapshot_counters().counter("mttkrp.atomics");
    obs::set_mode(obs::TraceMode::kOff);
    EXPECT_EQ(atomics, runs * rank);
    EXPECT_LT(atomics, hx.nnz() * rank);
    DenseMatrix expected(16, rank);
    mttkrp_coo_seq(prob.x, prob.factors(), 0, expected);
    EXPECT_LT(max_abs_diff(out, expected), 1e-3);
}

TEST(MttkrpHicoo, SmallBlockSizesStillCorrect)
{
    Problem prob = make_problem({16, 16, 16}, 300, 4, 7);
    for (unsigned bits : {1u, 2u, 4u, 8u}) {
        HiCooTensor hx = coo_to_hicoo(prob.x, bits);
        DenseMatrix out(16, 4);
        mttkrp_hicoo(hx, prob.factors(), 0, out);
        DenseMatrix expected(16, 4);
        mttkrp_coo_seq(prob.x, prob.factors(), 0, expected);
        EXPECT_LT(max_abs_diff(out, expected), 1e-3)
            << "block bits " << bits;
    }
}

TEST(MttkrpHicoo, PrivatizedRangesSplitAHotBlock)
{
    // Most non-zeros fall in block (0,0,0) of 16-wide blocks, more than
    // nnz / threads at 2 and 4 threads, so some worker range starts or
    // ends inside that block.
    Rng rng(41);
    CooTensor x({256, 256, 256});
    for (int p = 0; p < 3000; ++p)
        x.append({rng.next_index(16), rng.next_index(16), rng.next_index(16)},
                 rng.next_float() - 0.5f);
    for (int p = 0; p < 600; ++p)
        x.append({rng.next_index(256), rng.next_index(256),
                  rng.next_index(256)},
                 rng.next_float() - 0.5f);
    x.sort_lexicographic();
    x.coalesce();
    const HiCooTensor hx = coo_to_hicoo(x, 4);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < 3; ++m)
        mats.push_back(DenseMatrix::random(256, 8, rng));
    const FactorList f = {&mats[0], &mats[1], &mats[2]};
    for (int threads : {2, 4}) {
        ScopedThreads scoped(threads);
        ASSERT_GT(hx.max_block_nnz(), hx.nnz() / threads);
        for (Size mode = 0; mode < 3; ++mode) {
            DenseMatrix expected(256, 8);
            mttkrp_coo_seq(x, f, mode, expected);
            DenseMatrix out(256, 8);
            mttkrp_hicoo_privatized(hx, f, mode, out);
            EXPECT_LT(max_abs_diff(out, expected), 1e-3)
                << threads << " threads, mode " << mode;
            // The dispatcher picks the same variant: 2 x 4 x 256 rows
            // <= nnz.
            DenseMatrix picked(256, 8);
            EXPECT_EQ(mttkrp_hicoo(hx, f, mode, picked),
                      MttkrpVariant::kPrivatized);
            EXPECT_TRUE(same_bits(picked, out))
                << threads << " threads, mode " << mode;
        }
    }
}

// Property sweep across orders, ranks, and modes.
class MttkrpSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MttkrpSweep, AllImplementationsMatchReference)
{
    const auto [order, rank] = GetParam();
    const Index dim = order <= 3 ? 12 : 7;
    Problem prob = make_problem(std::vector<Index>(order, dim), 100, rank,
                                700 + order * 13 + rank);
    DenseTensor dx = DenseTensor::from_coo(prob.x);
    HiCooTensor hx = coo_to_hicoo(prob.x, 2);
    for (Size mode = 0; mode < static_cast<Size>(order); ++mode) {
        DenseMatrix expected = ref_mttkrp(dx, prob.factors(), mode);
        DenseMatrix coo_out(dim, rank);
        mttkrp_coo(prob.x, prob.factors(), mode, coo_out);
        EXPECT_LT(max_abs_diff(coo_out, expected), 1e-3)
            << "COO order " << order << " mode " << mode;
        DenseMatrix h_out(dim, rank);
        mttkrp_hicoo(hx, prob.factors(), mode, h_out);
        EXPECT_LT(max_abs_diff(h_out, expected), 1e-3)
            << "HiCOO order " << order << " mode " << mode;
    }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndRanks, MttkrpSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(1, 4, 16)));

// ---------------------------------------------------------------------
// Output zero state: a kernel that zeroes only the rows its previous call
// wrote must leave the same output as one that zeroes the whole matrix.
// The reference is the same variant run on DenseMatrix(rows, cols, 5.0f),
// whose zero state is unknown, so it takes the full-fill path.

enum class Variant {
    kCooAtomic,
    kPrivatized,
    kBlockOwner,
    kHicooAtomic,
    kHicooPrivatized,
    kCsf,
    kSeq,
};

std::string
variant_label(Variant v)
{
    switch (v) {
      case Variant::kCooAtomic:
        return "CooAtomic";
      case Variant::kPrivatized:
        return "Privatized";
      case Variant::kBlockOwner:
        return "BlockOwner";
      case Variant::kHicooAtomic:
        return "HicooAtomic";
      case Variant::kHicooPrivatized:
        return "HicooPrivatized";
      case Variant::kCsf:
        return "Csf";
      case Variant::kSeq:
        return "Seq";
    }
    return "?";
}

void
PrintTo(Variant v, std::ostream* os)
{
    *os << variant_label(v);
}

constexpr Index kCubeDim = 64;
constexpr Size kZeroRank = 8;

/// One cubical tensor in every format the variants read: HiCOO with
/// 4-wide blocks (16 owner groups per mode, enough for block-owner at 4
/// threads) and one CSF tree rooted at each mode.  120 non-zeros over 64
/// rows leave several rows of every mode untouched.
struct Operand {
    CooTensor x;
    HiCooTensor hx;
    std::vector<CsfTensor> csf;

    explicit Operand(std::uint64_t seed)
        : x([seed] {
              Rng rng(seed);
              return CooTensor::random({kCubeDim, kCubeDim, kCubeDim}, 120,
                                       rng);
          }()),
          hx(coo_to_hicoo(x, 2))
    {
        for (Size mode = 0; mode < 3; ++mode) {
            std::vector<Size> order{mode};
            for (Size m = 0; m < 3; ++m)
                if (m != mode)
                    order.push_back(m);
            csf.push_back(CsfTensor::from_coo(x, order));
        }
    }

    /// True when some non-zero maps to `row` of the mode-`mode` output.
    bool touches(Size mode, Size row) const
    {
        for (Size p = 0; p < x.nnz(); ++p)
            if (x.index(mode, p) == row)
                return true;
        return false;
    }

    /// A row of the mode-`mode` output no non-zero maps to.
    Size untouched_row(Size mode) const
    {
        for (Size row = 0; row < kCubeDim; ++row)
            if (!touches(mode, row))
                return row;
        ADD_FAILURE() << "every row of mode " << mode << " is touched";
        return 0;
    }
};

struct Factors {
    std::vector<DenseMatrix> mats;

    Factors()
    {
        Rng rng(77);
        for (int m = 0; m < 3; ++m)
            mats.push_back(DenseMatrix::random(kCubeDim, kZeroRank, rng));
    }
    FactorList list() const { return {&mats[0], &mats[1], &mats[2]}; }
};

void
run_variant(Variant v, const Operand& op, const FactorList& f, Size mode,
            DenseMatrix& out)
{
    switch (v) {
      case Variant::kCooAtomic:
        mttkrp_coo_atomic(op.x, f, mode, out);
        break;
      case Variant::kPrivatized:
        mttkrp_coo_privatized(op.x, f, mode, out);
        break;
      case Variant::kBlockOwner:
        ASSERT_EQ(mttkrp_hicoo(op.hx, f, mode, out),
                  MttkrpVariant::kBlockOwner);
        break;
      case Variant::kHicooAtomic:
        mttkrp_hicoo_atomic(op.hx, f, mode, out);
        break;
      case Variant::kHicooPrivatized:
        mttkrp_hicoo_privatized(op.hx, f, mode, out);
        break;
      case Variant::kCsf:
        mttkrp_csf(op.csf[mode], f, mode, out);
        break;
      case Variant::kSeq:
        mttkrp_coo_seq(op.x, f, mode, out);
        break;
    }
}

/// Expects `out`, the result of variant `v` on (op, mode), to match `v`
/// run on a full-fill output: bit-identical where the schedule is
/// deterministic; for atomics on several threads, exact +0 in untouched
/// rows and the usual tolerance in touched ones.
void
expect_matches_full_fill(Variant v, int threads, const Operand& op,
                         const FactorList& f, Size mode,
                         const DenseMatrix& out, const std::string& where)
{
    DenseMatrix full(out.rows(), out.cols(), 5.0f);
    ASSERT_EQ(full.zero_state(), ZeroState::kUnknown);
    run_variant(v, op, f, mode, full);
    const bool atomic =
        v == Variant::kCooAtomic || v == Variant::kHicooAtomic;
    if (threads == 1 || !atomic) {
        EXPECT_TRUE(same_bits(out, full)) << where;
        return;
    }
    for (Size i = 0; i < out.rows(); ++i) {
        const bool touched = op.touches(mode, i);
        for (Size r = 0; r < out.cols(); ++r) {
            if (touched)
                EXPECT_NEAR(out(i, r), full(i, r), 1e-3)
                    << where << " row " << i;
            else
                EXPECT_EQ(std::bit_cast<std::uint32_t>(out(i, r)), 0u)
                    << where << " row " << i;
        }
    }
}

class MttkrpZeroState
    : public ::testing::TestWithParam<std::tuple<Variant, int>> {};

TEST_P(MttkrpZeroState, RepeatedCallsMatchFullFill)
{
    const auto [v, threads] = GetParam();
    ScopedThreads scoped(threads);
    const Operand op(31);
    const Factors f;
    DenseMatrix out(kCubeDim, kZeroRank);
    for (int call = 0; call < 5; ++call) {
        run_variant(v, op, f.list(), 1, out);
        expect_matches_full_fill(v, threads, op, f.list(), 1, out,
                                 "call " + std::to_string(call));
    }
}

TEST_P(MttkrpZeroState, AlternatingModesMatchFullFill)
{
    const auto [v, threads] = GetParam();
    ScopedThreads scoped(threads);
    const Operand op(32);
    const Factors f;
    DenseMatrix out(kCubeDim, kZeroRank);
    for (Size call = 0; call < 6; ++call) {
        const Size mode = (call * 2) % 3;  // 0, 2, 1, 0, 2, 1
        run_variant(v, op, f.list(), mode, out);
        expect_matches_full_fill(v, threads, op, f.list(), mode, out,
                                 "call " + std::to_string(call));
    }
}

TEST_P(MttkrpZeroState, AlternatingTensorsMatchFullFill)
{
    const auto [v, threads] = GetParam();
    ScopedThreads scoped(threads);
    const Operand ops[] = {Operand(33), Operand(34)};
    const Factors f;
    DenseMatrix out(kCubeDim, kZeroRank);
    for (int call = 0; call < 6; ++call) {
        const Operand& op = ops[call % 2];
        run_variant(v, op, f.list(), 0, out);
        expect_matches_full_fill(v, threads, op, f.list(), 0, out,
                                 "call " + std::to_string(call));
    }
}

TEST_P(MttkrpZeroState, WritesBetweenCallsAreCleared)
{
    const auto [v, threads] = GetParam();
    ScopedThreads scoped(threads);
    const Operand op(35);
    const Factors f;
    const Size mode = 2;
    const Size row = op.untouched_row(mode);
    Rng rng(36);
    const char* writers[] = {"operator()", "row()", "data()", "fill(3)",
                             "randomize"};
    DenseMatrix out(kCubeDim, kZeroRank);
    for (int w = 0; w < 5; ++w) {
        run_variant(v, op, f.list(), mode, out);
        switch (w) {
          case 0:
            out(row, 0) = 7.0f;
            break;
          case 1:
            out.row(row)[1] = 7.0f;
            break;
          case 2:
            out.data()[row * kZeroRank + 2] = 7.0f;
            break;
          case 3:
            out.fill(3.0f);
            break;
          case 4:
            out.randomize(rng);
            break;
        }
        EXPECT_EQ(out.zero_state(), ZeroState::kUnknown) << writers[w];
        run_variant(v, op, f.list(), mode, out);
        const DenseMatrix& result = out;
        for (Size r = 0; r < kZeroRank; ++r)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(result(row, r)), 0u)
                << writers[w] << " column " << r;
        expect_matches_full_fill(v, threads, op, f.list(), mode, result,
                                 writers[w]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndThreads, MttkrpZeroState,
    ::testing::Combine(::testing::Values(Variant::kCooAtomic,
                                         Variant::kPrivatized,
                                         Variant::kBlockOwner,
                                         Variant::kHicooAtomic,
                                         Variant::kHicooPrivatized,
                                         Variant::kCsf, Variant::kSeq),
                       ::testing::Values(1, 2, 4)),
    [](const auto& info) {
        return variant_label(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param)) + "t";
    });

}  // namespace
}  // namespace pasta
