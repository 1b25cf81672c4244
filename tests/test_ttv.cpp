// Tests for TTV (COO and HiCOO paths) against the dense reference, the
// thread-count bit-identity of the TTV and TTM exec kernels, and every
// mode-n fiber grouping against a brute-force one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "core/convert.hpp"
#include "core/sort_radix.hpp"
#include "kernels/reference.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttm_scoo.hpp"
#include "kernels/ttv.hpp"
#include "validate/validate.hpp"

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
    EXPECT_EQ(plan.out_pattern.num_blocks(),
              plan.fibers.tensor().num_blocks());
    EXPECT_EQ(plan.out_pattern.nnz(), plan.fibers.num_fibers());
    plan.out_pattern.validate();
}

TEST(TtvHicoo, FibersNeverSpanBlocks)
{
    Rng rng(7);
    CooTensor x = CooTensor::random({64, 64, 64}, 700, rng);
    HicooTtvPlan plan = ttv_plan_hicoo(x, 1, 3);
    const auto& bptr = plan.fibers.tensor().bptr();
    const auto& fptr = plan.fibers.fptr();
    // Every block boundary must also be a fiber boundary.
    Size f = 0;
    for (Size b = 1; b < plan.fibers.tensor().num_blocks(); ++b) {
        while (fptr[f] < bptr[b])
            ++f;
        EXPECT_EQ(fptr[f], bptr[b]) << "block " << b;
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

/// Every column's index at `p` except column `skip`.
Coordinate
rest_of(const std::vector<std::vector<Index>>& columns, Size skip, Size p)
{
    Coordinate c;
    for (Size m = 0; m < columns.size(); ++m)
        if (m != skip)
            c.push_back(columns[m][p]);
    return c;
}

using Members = std::vector<std::pair<Index, Value>>;

/// Brute-force mode-`mode` fibers: each fiber's (mode index, value)
/// pairs in input order, keyed by its other coordinates.
std::map<Coordinate, Members>
group_fibers(const CooTensor& x, Size mode)
{
    std::map<Coordinate, Members> groups;
    for (Size p = 0; p < x.nnz(); ++p)
        groups[rest_of(x.indices_view(), mode, p)].push_back(
            {x.index(mode, p), x.value(p)});
    return groups;
}

Members
sorted(Members m)
{
    std::sort(m.begin(), m.end());
    return m;
}

/// `count` distinct non-zeros in random order whose every mode draws
/// from `pool` evenly spaced values (pool <= every dim), so fibers along
/// every mode hold several entries.
CooTensor
clustered(const std::vector<Index>& dims, Index pool, Size count, Rng& rng)
{
    CooTensor x(dims);
    std::set<Coordinate> seen;
    while (seen.size() < count) {
        Coordinate c;
        for (Index d : dims)
            c.push_back(rng.next_index(pool) * (d / pool));
        if (seen.insert(c).second)
            x.append(c, rng.next_float());
    }
    return x;
}

/// The blocked half of expect_groupings_agree: the gHiCOO view and the
/// HiCOO-TTV/TTM output patterns.
void
expect_blocked_groupings_agree(const CooTensor& x, Size mode,
                               const std::map<Coordinate, Members>& groups)
{
    const Size mf = groups.size();
    // gHiCOO view: no fiber crosses a block, each holds the same
    // non-zeros.
    const GFiberView gv(x, mode, 3);
    const GHiCooTensor& g = gv.tensor();
    ASSERT_EQ(gv.num_fibers(), mf);
    for (Size b = 0; b < g.num_blocks(); ++b)
        EXPECT_TRUE(std::binary_search(gv.fptr().begin(), gv.fptr().end(),
                                       g.bptr()[b]))
            << "block " << b;
    std::set<Coordinate> seen;
    Size b = 0;
    for (Size f = 0; f < mf; ++f) {
        Coordinate rest;
        Members got;
        for (Size p = gv.fptr()[f]; p < gv.fptr()[f + 1]; ++p) {
            while (g.bptr()[b + 1] <= p)
                ++b;
            Coordinate c;
            for (Size m = 0; m < x.order(); ++m)
                if (m != mode)
                    c.push_back(g.coordinate(m, b, p));
            if (p == gv.fptr()[f])
                rest = c;
            EXPECT_EQ(c, rest);
            got.push_back({g.raw_index(mode, p), g.value(p)});
        }
        EXPECT_TRUE(seen.insert(rest).second);
        ASSERT_TRUE(groups.count(rest)) << "fiber " << f;
        EXPECT_EQ(sorted(got), sorted(groups.at(rest))) << "fiber " << f;
    }

    // HiCOO-TTV output coordinates are HiCOO-TTM stripe coordinates.
    const HiCooTensor ttv_h = ttv_plan_hicoo(x, mode, 3).out_pattern;
    const SHiCooTensor ttm_h = ttm_plan_hicoo(x, mode, 2, 3).out_pattern;
    ASSERT_EQ(ttv_h.nnz(), mf);
    ASSERT_EQ(ttm_h.num_sparse(), mf);
    ASSERT_EQ(ttv_h.num_blocks(), g.num_blocks());
    ASSERT_EQ(ttm_h.num_blocks(), g.num_blocks());
    for (b = 0; b < g.num_blocks(); ++b) {
        EXPECT_EQ(ttv_h.bptr()[b], ttm_h.bptr()[b]);
        for (Size s = 0; s + 1 < x.order(); ++s)
            EXPECT_EQ(ttv_h.block_index(s, b), ttm_h.block_index(s, b));
    }
    for (Size f = 0; f < mf; ++f)
        for (Size s = 0; s + 1 < x.order(); ++s)
            EXPECT_EQ(ttv_h.element_index(s, f), ttm_h.element_index(s, f));
}

/// Checks every grouping of `x`'s mode-`mode` fibers against the
/// brute-force grouping; the gHiCOO view and the HiCOO patterns only
/// when `blocked`.
void
expect_groupings_agree(const CooTensor& x, Size mode, bool blocked)
{
    const auto groups = group_fibers(x, mode);
    const Size mf = groups.size();

    // FiberView: fibers in the order of their other coordinates.
    const FiberView fv(x, mode);
    const auto& sx = fv.sorted().indices_view();
    ASSERT_EQ(fv.num_fibers(), mf);
    EXPECT_EQ(fv.fptr().front(), 0u);
    EXPECT_EQ(fv.fptr().back(), x.nnz());
    Size f = 0;
    for (const auto& [rest, members] : groups) {
        Members got;
        for (Size p = fv.fptr()[f]; p < fv.fptr()[f + 1]; ++p) {
            EXPECT_EQ(rest_of(sx, mode, p), rest);
            got.push_back({sx[mode][p], fv.sorted().value(p)});
        }
        EXPECT_EQ(sorted(got), sorted(members)) << "fiber " << f;
        ++f;
    }

    // TTV output coordinates are TTM stripe coordinates.
    const CooTensor ttv_c = ttv_plan_coo(x, mode).out_pattern;
    const ScooTensor ttm_c = ttm_plan_coo(x, mode, 2).out_pattern;
    ASSERT_EQ(ttv_c.nnz(), mf);
    ASSERT_EQ(ttm_c.num_sparse(), mf);
    f = 0;
    for (const auto& group : groups) {
        EXPECT_EQ(rest_of(ttv_c.indices_view(), kNoMode, f), group.first);
        EXPECT_EQ(rest_of(ttm_c.sparse_indices_view(), kNoMode, f),
                  group.first);
        ++f;
    }

    if (blocked)
        expect_blocked_groupings_agree(x, mode, groups);

    // sCOO: one stripe per fiber, duplicates summed in input order.
    if (x.dim(mode) > 64)
        return;
    const ScooTensor sc = coo_to_scoo(x, mode);
    ASSERT_EQ(sc.num_sparse(), mf);
    f = 0;
    for (const auto& [rest, members] : groups) {
        EXPECT_EQ(rest_of(sc.sparse_indices_view(), kNoMode, f), rest);
        std::vector<Value> expect(x.dim(mode), 0);
        for (const auto& [k, v] : members)
            expect[k] += v;
        EXPECT_EQ(std::vector<Value>(sc.stripe(f),
                                     sc.stripe(f) + x.dim(mode)),
                  expect)
            << "stripe " << f;
        ++f;
    }

    // ttm_scoo: one output stripe per group of the other sparse
    // coordinates, contracting the narrowest sparse mode.
    if (x.order() < 3)
        return;
    const auto& sparse = sc.sparse_modes();
    Size slot = 0;
    for (Size s = 1; s < sparse.size(); ++s)
        if (x.dim(sparse[s]) < x.dim(sparse[slot]))
            slot = s;
    std::map<Coordinate, Size> stripe_groups;
    for (Size i = 0; i < sc.num_sparse(); ++i)
        ++stripe_groups[rest_of(sc.sparse_indices_view(), slot, i)];
    Rng rng(5);
    const DenseMatrix u = DenseMatrix::random(x.dim(sparse[slot]), 1, rng);
    const ScooTensor t = ttm_scoo(sc, u, sparse[slot]);
    ASSERT_EQ(t.num_sparse(), stripe_groups.size());
    f = 0;
    for (const auto& group : stripe_groups)
        EXPECT_EQ(rest_of(t.sparse_indices_view(), kNoMode, f++),
                  group.first);
}

TEST(FiberGrouping, EverySiteMatchesBruteForce)
{
    Rng rng(12);
    std::vector<std::pair<std::string, CooTensor>> inputs;
    inputs.emplace_back("3rd order", clustered({12, 10, 9}, 5, 100, rng));
    // Big enough that the fiber scan splits into several chunks.
    inputs.emplace_back("4th order",
                        clustered({16, 14, 12, 13}, 11, 10000, rng));
    inputs.emplace_back("5th order",
                        clustered({6, 5, 4, 3, 7}, 3, 150, rng));
    inputs.emplace_back("nnz 0", CooTensor({4, 4, 4}));
    // One mode-1 fiber; along modes 0 and 2 every fiber is a singleton.
    CooTensor line({4, 16, 4});
    for (Index k = 0; k < 16; ++k)
        line.append({2, 15 - k, 3}, static_cast<Value>(k));
    inputs.emplace_back("single fiber", std::move(line));
    // A slab at mode-1 index 0: neighbouring mode-2 fibers differ only
    // in their mode-0 index, neighbouring mode-0 fibers only in mode 2.
    CooTensor slab({5, 3, 4});
    for (Index i = 0; i < 5; ++i)
        for (Index k = 0; k < 4; ++k)
            slab.append({i, 0, k}, static_cast<Value>(i * 4 + k));
    inputs.emplace_back("slab", std::move(slab));
    // Neighbouring blocks whose entries share every element offset: only
    // the block start separates their fibers.
    CooTensor aligned({4, 32, 32});
    for (Index a = 0; a < 4; ++a)
        for (Index b = 0; b < 4; ++b)
            aligned.append({a, 8 * b, 8 * a}, static_cast<Value>(a + b));
    inputs.emplace_back("aligned blocks", std::move(aligned));
    // Fibers-last keys over these dims take two radix words.
    const std::vector<Index> wide = {1u << 22, 1u << 22, 1u << 21, 16};
    ASSERT_EQ(radix::lex_layout(wide, {0, 1, 2, 3}).words(), 2u);
    inputs.emplace_back("two-word keys", clustered(wide, 4, 200, rng));
    // Every third non-zero appended again: fibers hold duplicate
    // coordinates.
    CooTensor dup = clustered({12, 10, 9}, 5, 100, rng);
    for (Size p = 0; p < 100; p += 3)
        dup.append(dup.coordinate(p), dup.value(p) + 1);
    inputs.emplace_back("duplicates", std::move(dup));

    // PASTA_VALIDATE=convert|full rejects duplicate coordinates in a
    // blocked format, so there the duplicates skip the gHiCOO sites.
    const bool validating = validate::convert_checks_enabled();
    ThreadOverrideGuard guard;
    for (int threads : {1, 2, 4}) {
        set_num_threads(threads);
        for (const auto& [name, x] : inputs)
            for (Size mode = 0; mode < x.order(); ++mode) {
                SCOPED_TRACE(name + " mode " + std::to_string(mode) +
                             " threads " + std::to_string(threads));
                expect_groupings_agree(x, mode,
                                       !(validating && name == "duplicates"));
            }
    }
}

}  // namespace
}  // namespace pasta
