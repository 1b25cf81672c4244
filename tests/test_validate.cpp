// Structural-invariant and differential-oracle validation tests:
// round-trips through every format must validate clean, and each seeded
// corruption class must be flagged with the right issue code.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/rng.hpp"
#include "core/block_math.hpp"
#include "core/convert.hpp"
#include "core/csf_tensor.hpp"
#include "gpusim/device.hpp"
#include "gpusim/gpu_kernels.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/tew.hpp"
#include "kernels/ts.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttv.hpp"
#include "validate/diff.hpp"
#include "validate/validate.hpp"

namespace pasta {
namespace {

CooTensor
random_tensor(Size order, Index dim, Size nnz, std::uint64_t seed)
{
    Rng rng(seed);
    return CooTensor::random(std::vector<Index>(order, dim), nnz, rng);
}

bool
has_issue(const validate::ValidationReport& report, const char* code)
{
    for (const auto& issue : report.issues)
        if (issue.code == code)
            return true;
    return false;
}

/// Sets the validation mode for one test and restores kOff afterwards.
struct ScopedMode {
    explicit ScopedMode(validate::Mode mode) { validate::set_mode(mode); }
    ~ScopedMode() { validate::set_mode(validate::Mode::kOff); }
};

// ---------------------------------------------------------------- modes

TEST(ValidateMode, EnvParsingAndPredicates)
{
    ::setenv("PASTA_VALIDATE", "convert", 1);
    EXPECT_EQ(validate::mode_from_env(), validate::Mode::kConvert);
    ::setenv("PASTA_VALIDATE", "full", 1);
    EXPECT_EQ(validate::mode_from_env(), validate::Mode::kFull);
    ::setenv("PASTA_VALIDATE", "bogus", 1);
    EXPECT_THROW(validate::mode_from_env(), PastaError);
    ::unsetenv("PASTA_VALIDATE");
    EXPECT_EQ(validate::mode_from_env(), validate::Mode::kOff);

    ScopedMode guard(validate::Mode::kKernel);
    EXPECT_FALSE(validate::convert_checks_enabled());
    EXPECT_TRUE(validate::kernel_checks_enabled());
    EXPECT_FALSE(validate::full_checks_enabled());
    validate::set_mode(validate::Mode::kFull);
    EXPECT_TRUE(validate::convert_checks_enabled());
    EXPECT_TRUE(validate::kernel_checks_enabled());
    EXPECT_TRUE(validate::full_checks_enabled());
}

// --------------------------------------------- round-trips come back ok

TEST(ValidateFormats, EveryFormatValidatesAfterConversion)
{
    CooTensor x = random_tensor(3, 64, 500, 7);
    EXPECT_TRUE(validate::validate(x).ok());

    HiCooTensor h = coo_to_hicoo(x, 3);
    EXPECT_TRUE(validate::validate(h).ok());
    EXPECT_TRUE(validate::validate(hicoo_to_coo(h)).ok());

    GHiCooTensor g = coo_to_ghicoo(x, {true, false, true}, 3);
    EXPECT_TRUE(validate::validate(g).ok());
    EXPECT_TRUE(validate::validate(ghicoo_to_coo(g)).ok());

    ScooTensor s = coo_to_scoo(x, 2);
    EXPECT_TRUE(validate::validate(s).ok());

    SHiCooTensor sh = scoo_to_shicoo(s, 3);
    EXPECT_TRUE(validate::validate(sh).ok());

    CsfTensor c = CsfTensor::from_coo(x);
    EXPECT_TRUE(validate::validate(c).ok());
}

TEST(ValidateFormats, Order4RoundTripValidates)
{
    CooTensor x = random_tensor(4, 32, 600, 11);
    HiCooTensor h = coo_to_hicoo(x, 2);
    EXPECT_TRUE(validate::validate(h).ok());
    EXPECT_TRUE(validate::validate(CsfTensor::from_coo(x)).ok());
}

// ------------------------------------------------- adversarial COO

TEST(ValidateCoo, FlagsUnsortedEntries)
{
    CooTensor x = random_tensor(3, 32, 100, 13);
    for (Size m = 0; m < 3; ++m)
        std::swap(x.mode_indices(m)[0], x.mode_indices(m)[50]);
    const auto report = validate::validate(x);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "order.sorted"));
    EXPECT_THROW(report.require(), validate::ValidationError);
}

TEST(ValidateCoo, FlagsOutOfRangeIndex)
{
    CooTensor x = random_tensor(3, 32, 50, 17);
    x.mode_indices(1)[10] = 32;  // dims are 32, so max valid index is 31
    const auto report = validate::validate(x);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "index.range"));
}

TEST(ValidateCoo, FlagsDuplicateCoordinates)
{
    CooTensor x({8, 8, 8});
    x.append({1, 2, 3}, 1.0f);
    x.append({1, 2, 3}, 2.0f);
    const auto report = validate::validate(x);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "coordinate.duplicate"));
}

TEST(ValidateCoo, FlagsNonFiniteValue)
{
    CooTensor x = random_tensor(3, 16, 40, 19);
    x.values()[7] = std::numeric_limits<Value>::quiet_NaN();
    const auto report = validate::validate(x);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "value.finite"));
}

TEST(ValidateCoo, ReportCapsRetainedIssuesButCountsAll)
{
    CooTensor x = random_tensor(3, 16, 200, 23);
    for (auto& v : x.values())
        v = std::numeric_limits<Value>::infinity();
    const auto report = validate::validate(x);
    EXPECT_EQ(report.violations, 200u);
    EXPECT_EQ(report.issues.size(), validate::ValidationReport::kMaxIssues);
}

// ------------------------------------------------ duplicate policy

TEST(DuplicatePolicy, SumCoalescesAndRejectThrows)
{
    CooTensor x({8, 8});
    x.append({3, 4}, 1.5f);
    x.append({3, 4}, 2.0f);
    x.append({1, 1}, 1.0f);

    CooTensor summed = x;
    summed.canonicalize(DuplicatePolicy::kSum);
    EXPECT_EQ(summed.count_duplicates(), 0u);
    EXPECT_EQ(summed.nnz(), 2u);
    EXPECT_FLOAT_EQ(summed.at({3, 4}), 3.5f);

    CooTensor rejecting = x;
    EXPECT_THROW(rejecting.canonicalize(DuplicatePolicy::kReject),
                 PastaError);

    CooTensor clean = random_tensor(3, 16, 60, 29);
    EXPECT_EQ(clean.count_duplicates(), 0u);
    clean.canonicalize(DuplicatePolicy::kReject);  // must not throw
}

// ------------------------------------------------ adversarial HiCOO

TEST(ValidateHicoo, FlagsOutOfRangeBlock)
{
    HiCooTensor h({64, 64, 64}, 3);  // 8 blocks per mode
    const BIndex bad_block[3] = {9, 0, 0};
    h.append_block(bad_block);
    const EIndex elem[3] = {0, 0, 0};
    h.append_entry(elem, 1.0f);
    const auto report = validate::validate(h);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "block.range"));
}

TEST(ValidateHicoo, ArraysFlagBrokenBptrAndElementRange)
{
    const std::vector<Index> dims{16, 16};
    // One block with two entries; bptr claims coverage of 3.
    std::vector<std::vector<BIndex>> binds{{0}, {0}};
    std::vector<std::vector<EIndex>> einds{{0, 1}, {0, 1}};
    std::vector<Value> values{1.0f, 2.0f};

    auto report = validate::validate_hicoo_arrays(
        dims, 2, binds, {0, 3}, einds, values);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "bptr.coverage"));

    report = validate::validate_hicoo_arrays(dims, 2, binds, {1, 2},
                                             einds, values);
    EXPECT_TRUE(has_issue(report, "bptr.start"));

    // Element index 7 exceeds the 2^2 block edge.
    einds[0][1] = 7;
    report = validate::validate_hicoo_arrays(dims, 2, binds, {0, 2},
                                             einds, values);
    EXPECT_TRUE(has_issue(report, "element.range"));
}

TEST(ValidateHicoo, ArraysFlagMortonDisorderAndDuplicateBlocks)
{
    const std::vector<Index> dims{64, 64};
    std::vector<std::vector<EIndex>> einds{{0, 0}, {0, 0}};
    std::vector<Value> values{1.0f, 2.0f};

    // Blocks (3,3) then (0,0): Morton keys strictly decrease.
    std::vector<std::vector<BIndex>> binds{{3, 0}, {3, 0}};
    auto report = validate::validate_hicoo_arrays(
        dims, 3, binds, {0, 1, 2}, einds, values);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "block.morton"));

    // The same block twice must be merged, not repeated.
    binds = {{2, 2}, {1, 1}};
    report = validate::validate_hicoo_arrays(dims, 3, binds, {0, 1, 2},
                                             einds, values);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "block.duplicate"));
}

// ------------------------------------------------ adversarial CSF

TEST(ValidateCsf, ArraysFlagBrokenPointersAndDisorder)
{
    // A valid 2-level CSF of a 2-D tensor: roots {0,2}, leaves under it.
    const std::vector<Index> dims{8, 8};
    const std::vector<Size> mode_order{0, 1};
    std::vector<CsfLevel> levels(2);
    levels[0].idx = {0, 2};
    levels[0].ptr = {0, 2, 3};  // each root's leaf range
    levels[1].idx = {1, 3, 0};
    std::vector<Value> values{1.0f, 2.0f, 3.0f};
    EXPECT_TRUE(validate::validate_csf_arrays(dims, mode_order, levels,
                                              values)
                    .ok());

    auto broken = levels;
    broken[0].ptr = {0, 2, 2};  // drops the last leaf
    auto report =
        validate::validate_csf_arrays(dims, mode_order, broken, values);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "ptr.coverage"));

    broken = levels;
    broken[0].idx = {2, 2};  // roots must strictly increase
    report =
        validate::validate_csf_arrays(dims, mode_order, broken, values);
    EXPECT_TRUE(has_issue(report, "order.sorted"));

    broken = levels;
    broken[1].idx[0] = 8;  // beyond dims[1]
    report =
        validate::validate_csf_arrays(dims, mode_order, broken, values);
    EXPECT_TRUE(has_issue(report, "index.range"));
}

// ------------------------------------------------ adversarial sCOO

TEST(ValidateScoo, FlagsCorruptSparseIndex)
{
    CooTensor x = random_tensor(3, 16, 80, 31);
    ScooTensor s = coo_to_scoo(x, 2);
    ASSERT_TRUE(validate::validate(s).ok());
    s.sparse_mode_indices(0)[0] = 16;
    const auto report = validate::validate(s);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_issue(report, "index.range"));
}

// ------------------------------------------------ block arithmetic

TEST(BlockMath, NearMaxDimsDoNotWrap)
{
    const Index huge = kMaxIndex;
    const Size blocks = block_count(huge, 7);
    // A 32-bit (dim + edge - 1) would have wrapped to a tiny count.
    EXPECT_EQ(blocks,
              (static_cast<Size>(huge) + 127) >> 7);
    EXPECT_GT(blocks, Size{1} << 24);
    check_blockable(huge, 7, 0);  // must not throw
}

TEST(BlockMath, RejectsBadBitsNamingModeAndDim)
{
    EXPECT_THROW(check_blockable(16, 0, 1), BlockRangeError);
    EXPECT_THROW(check_blockable(16, 9, 1), BlockRangeError);
    EXPECT_THROW(check_blockable(0, 4, 2), BlockRangeError);
    try {
        check_blockable(16, 9, 3);
        FAIL() << "expected BlockRangeError";
    } catch (const BlockRangeError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("mode 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("16"), std::string::npos) << msg;
    }
}

// ------------------------------------------------ differential oracle

TEST(Diff, TewAndTsAcceptCorrectRejectCorrupt)
{
    CooTensor x = random_tensor(3, 32, 300, 37);
    CooTensor y = x;
    Rng rng(41);
    for (auto& v : y.values())
        v = rng.next_float() + 0.5f;
    CooTensor z = x;
    tew_values(EwOp::kAdd, x.values().data(), y.values().data(),
               z.values().data(), x.nnz());
    EXPECT_TRUE(validate::diff_tew(EwOp::kAdd, x.values().data(),
                                   y.values().data(), z.values().data(),
                                   x.nnz())
                    .ok());
    z.values()[100] += 1.0f;
    const auto bad = validate::diff_tew(EwOp::kAdd, x.values().data(),
                                        y.values().data(),
                                        z.values().data(), x.nnz());
    EXPECT_FALSE(bad.ok());
    EXPECT_THROW(bad.require(), validate::ValidationError);

    CooTensor out = x;
    ts_values(TsOp::kMul, x.values().data(), out.values().data(), x.nnz(),
              1.0009f);
    EXPECT_TRUE(validate::diff_ts(TsOp::kMul, x.values().data(), 1.0009f,
                                  out.values().data(), x.nnz())
                    .ok());
    out.values()[5] = -out.values()[5];
    EXPECT_FALSE(validate::diff_ts(TsOp::kMul, x.values().data(), 1.0009f,
                                   out.values().data(), x.nnz())
                     .ok());
}

TEST(Diff, TtvAcceptsKernelOutputRejectsCorruption)
{
    CooTensor x = random_tensor(3, 24, 400, 43);
    Rng rng(47);
    DenseVector v = DenseVector::random(x.dim(1), rng);
    CooTensor out = ttv_coo(x, v, 1);
    EXPECT_TRUE(validate::diff_ttv(x, v, 1, out).ok());
    out.values()[0] += 10.0f;
    EXPECT_FALSE(validate::diff_ttv(x, v, 1, out).ok());
}

TEST(Diff, TtmAcceptsKernelOutputRejectsCorruption)
{
    CooTensor x = random_tensor(3, 24, 350, 53);
    Rng rng(59);
    DenseMatrix u = DenseMatrix::random(x.dim(0), 8, rng);
    ScooTensor out = ttm_coo(x, u, 0);
    EXPECT_TRUE(validate::diff_ttm(x, u, 0, out).ok());
    out.values()[3] += 5.0f;
    EXPECT_FALSE(validate::diff_ttm(x, u, 0, out).ok());
}

TEST(Diff, MttkrpAcceptsKernelOutputRejectsCorruption)
{
    CooTensor x = random_tensor(3, 20, 300, 61);
    Rng rng(67);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), 8, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);
    DenseMatrix out(x.dim(1), 8);
    mttkrp_coo(x, factors, 1, out);
    EXPECT_TRUE(validate::diff_mttkrp(x, factors, 1, out).ok());
    out(0, 0) += 3.0f;
    EXPECT_FALSE(validate::diff_mttkrp(x, factors, 1, out).ok());
}

TEST(Diff, MttkrpAllSchedulingVariantsPassTheOracle)
{
    // Every output-contention schedule must agree with the dense oracle:
    // auto-dispatched COO, forced atomic, forced privatized, and both
    // HiCOO paths (block-owner and atomic).
    ScopedMode guard(validate::Mode::kFull);
    CooTensor x = random_tensor(3, 24, 500, 79);
    HiCooTensor h = coo_to_hicoo(x, 3);
    Rng rng(83);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), 8, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);

    for (Size mode = 0; mode < x.order(); ++mode) {
        DenseMatrix out(x.dim(mode), 8);
        mttkrp_coo(x, factors, mode, out);
        EXPECT_TRUE(validate::diff_mttkrp(x, factors, mode, out).ok())
            << "coo auto, mode " << mode;
        mttkrp_coo_atomic(x, factors, mode, out);
        EXPECT_TRUE(validate::diff_mttkrp(x, factors, mode, out).ok())
            << "coo atomic, mode " << mode;
        mttkrp_coo_privatized(x, factors, mode, out);
        EXPECT_TRUE(validate::diff_mttkrp(x, factors, mode, out).ok())
            << "coo privatized, mode " << mode;
        mttkrp_hicoo(h, factors, mode, out);
        EXPECT_TRUE(validate::diff_mttkrp(x, factors, mode, out).ok())
            << "hicoo auto, mode " << mode;
        mttkrp_hicoo_atomic(h, factors, mode, out);
        EXPECT_TRUE(validate::diff_mttkrp(x, factors, mode, out).ok())
            << "hicoo atomic, mode " << mode;
        mttkrp_hicoo_privatized(h, factors, mode, out);
        EXPECT_TRUE(validate::diff_mttkrp(x, factors, mode, out).ok())
            << "hicoo privatized, mode " << mode;
    }
}

TEST(ValidateFull, RadixSortedConversionsPassStructuralChecks)
{
    // Under PASTA_VALIDATE=full every conversion re-validates its output;
    // the radix-sorted orderings (lexicographic, Morton, gHiCOO hybrid,
    // sHiCOO sparse-block) must all satisfy the structural checkers.
    ScopedMode guard(validate::Mode::kFull);
    CooTensor x = random_tensor(3, 128, 2000, 89);

    HiCooTensor h = coo_to_hicoo(x, 4);  // sort_morton radix path
    EXPECT_TRUE(validate::validate(h).ok());
    CooTensor back = hicoo_to_coo(h);  // sort_lexicographic radix path
    EXPECT_TRUE(tensors_almost_equal(x, back, 1e-5));

    GHiCooTensor g = coo_to_ghicoo(x, {true, false, true}, 3);
    EXPECT_TRUE(validate::validate(g).ok());
    EXPECT_TRUE(tensors_almost_equal(x, ghicoo_to_coo(g), 1e-5));

    ScooTensor s = coo_to_scoo(x, 2);
    SHiCooTensor sh = scoo_to_shicoo(s, 3);
    EXPECT_TRUE(validate::validate(sh).ok());
}

// ------------------------------------------------ simulated device

TEST(DeviceMemory, AccountsAllocationsAndRaisesOom)
{
    auto& mem = gpusim::DeviceMemory::instance();
    const std::uint64_t old_capacity = mem.capacity();
    mem.set_capacity(1024);
    {
        gpusim::DeviceBuffer a(512, "a");
        EXPECT_GE(mem.used(), 512u);
        EXPECT_THROW(gpusim::DeviceBuffer(1024, "too big"),
                     gpusim::DeviceOomError);
        gpusim::DeviceBuffer b(512, "b");  // exactly fills the rest
    }
    EXPECT_EQ(mem.used(), 0u);
    try {
        mem.set_capacity(64);
        mem.allocate(128, "oversized operand");
        FAIL() << "expected DeviceOomError";
    } catch (const gpusim::DeviceOomError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("oversized operand"), std::string::npos) << msg;
        EXPECT_NE(msg.find("PASTA_GPUSIM_MEM_BYTES"), std::string::npos)
            << msg;
    }
    mem.set_capacity(old_capacity);
}

TEST(AccessMonitor, SpanRecordsViolationsOnlyWhenArmed)
{
    Value data[4] = {1, 2, 3, 4};
    auto span = gpusim::make_span<const Value>(data, 4);

    gpusim::AccessMonitor::arm(false);
    EXPECT_FLOAT_EQ(span[2], 3.0f);
    (void)span[3];
    EXPECT_EQ(gpusim::AccessMonitor::violations(), 0u);

    gpusim::AccessMonitor::arm(true);
    EXPECT_FLOAT_EQ(span[1], 2.0f);
    (void)span[9];  // out of bounds: recorded, served from the sink
    EXPECT_EQ(gpusim::AccessMonitor::violations(), 1u);
    EXPECT_THROW(
        gpusim::AccessMonitor::throw_if_access_violations("test_kernel"),
        validate::ValidationError);
    EXPECT_FALSE(gpusim::AccessMonitor::armed());

    gpusim::AccessMonitor::arm(true);
    gpusim::AccessMonitor::throw_if_access_violations("clean");  // no-op
    EXPECT_FALSE(gpusim::AccessMonitor::armed());
}

TEST(GpuSim, FullModeBoundsCheckedKernelsStillValidate)
{
    ScopedMode guard(validate::Mode::kFull);
    CooTensor x = random_tensor(3, 24, 300, 71);
    CooTensor y = x;
    Rng rng(73);
    for (auto& v : y.values())
        v = rng.next_float() + 0.5f;
    CooTensor z = x;
    gpusim::tew_gpu_coo(x, y, EwOp::kAdd, z);
    EXPECT_TRUE(validate::diff_tew(EwOp::kAdd, x.values().data(),
                                   y.values().data(), z.values().data(),
                                   x.nnz())
                    .ok());
}

}  // namespace
}  // namespace pasta
