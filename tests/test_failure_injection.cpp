// Failure-injection tests: corrupt each format's internal structure in
// every way validate() guards against and confirm the corruption is
// caught; also exercise kernel precondition violations and IO abuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "core/csf_tensor.hpp"
#include "io/binary_io.hpp"
#include "io/tns_io.hpp"
#include "kernels/ttv.hpp"

namespace pasta {
namespace {

CooTensor
healthy()
{
    Rng rng(1);
    return CooTensor::random({32, 32, 32}, 200, rng);
}

TEST(FailureInjection, CooOutOfRangeIndexCaught)
{
    CooTensor x = healthy();
    x.mode_indices(1)[5] = 32;  // == dim, out of range
    EXPECT_THROW(x.validate(), PastaError);
}

TEST(FailureInjection, CooIndexArrayLengthMismatchCaught)
{
    CooTensor x = healthy();
    x.mode_indices(0).pop_back();
    EXPECT_THROW(x.validate(), PastaError);
}

TEST(FailureInjection, HicooCorruptionsCaught)
{
    {
        // Block index beyond the dimension's block range.
        HiCooTensor bad(std::vector<Index>{32, 32, 32}, 3);
        BIndex coords[3] = {10, 0, 0};  // block 10 * 8 = 80 > 32
        bad.append_block(coords);
        EIndex e[3] = {0, 0, 0};
        bad.append_entry(e, 1.0f);
        EXPECT_THROW(bad.validate(), PastaError);
    }
    {
        // Empty block.
        HiCooTensor bad(std::vector<Index>{32, 32, 32}, 3);
        BIndex coords[3] = {0, 0, 0};
        bad.append_block(coords);
        bad.append_block(coords);
        EIndex e[3] = {1, 1, 1};
        bad.append_entry(e, 1.0f);
        EXPECT_THROW(bad.validate(), PastaError);
    }
}

TEST(FailureInjection, CsfCorruptionsCaught)
{
    CsfTensor good = CsfTensor::from_coo(healthy());
    {
        CsfTensor bad = good;
        bad.values().pop_back();  // leaf/value length mismatch
        EXPECT_THROW(bad.validate(), PastaError);
    }
}

TEST(FailureInjection, ScooStripeLengthMismatchCaught)
{
    Rng rng(2);
    CooTensor x = CooTensor::random({8, 4, 8}, 40, rng);
    ScooTensor s = coo_to_scoo(x, 1);
    s.values().pop_back();
    EXPECT_THROW(s.validate(), PastaError);
}

TEST(FailureInjection, KernelShapePreconditionsThrowNotCrash)
{
    CooTensor x = healthy();
    CooTtvPlan plan = ttv_plan_coo(x, 0);
    DenseVector wrong_len(31);
    CooTensor out = plan.out_pattern;
    EXPECT_THROW(ttv_exec_coo(plan, wrong_len, out), PastaError);
    CooTensor wrong_out({31, 31});
    EXPECT_THROW(ttv_exec_coo(plan, DenseVector(32), wrong_out),
                 PastaError);
}

TEST(FailureInjection, TnsGarbageInputsRejected)
{
    const char* cases[] = {
        "1 2 3 abc\n",         // non-numeric value
        "1 2 3\n1 2 3 4 5\n",  // arity drift
        "-1 1 1.0\n",          // negative coordinate
        "1.5 2 3.0\n",         // fractional coordinate
    };
    for (const char* text : cases) {
        std::istringstream in(text);
        EXPECT_THROW(read_tns(in), PastaError) << text;
    }
}

TEST(FailureInjection, TnsNonFiniteValuesRejected)
{
    // A single NaN/Inf silently poisons every reduction downstream, so
    // the reader must refuse it and name the offending line.
    const char* cases[] = {"1 1 nan\n", "1 1 inf\n", "2 3 -inf\n",
                           "1 1 1.0\n2 2 NaN\n", "1 1 1e39\n",
                           "2 3 -3.5e38\n"};
    for (const char* text : cases) {
        std::istringstream in(text);
        try {
            read_tns(in);
            FAIL() << "accepted: " << text;
        } catch (const PastaError& e) {
            EXPECT_NE(std::string(e.what()).find("line"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(FailureInjection, TnsIndexOverflowRejected)
{
    // 2^32 does not fit Index (uint32_t); the old reader would silently
    // wrap to coordinate 0.
    {
        std::istringstream in("4294967296 1 1.0\n");
        EXPECT_THROW(read_tns(in), PastaError);
    }
    {
        // Overflow in a later mode and a later row too.
        std::istringstream in("1 1 1.0\n2 99999999999999 2.0\n");
        EXPECT_THROW(read_tns(in), PastaError);
    }
    {
        // Largest representable coordinate is fine.
        std::istringstream in("4294967294 1 1.0\n");
        const CooTensor t = read_tns(in);
        EXPECT_EQ(t.nnz(), 1u);
    }
}

TEST(FailureInjection, BinaryBitflipsRejected)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "pasta_failure_injection";
    fs::create_directories(dir);
    const std::string path = (dir / "t.pstb").string();
    write_binary_file(path, healthy());

    // Flip the order field to an implausible value.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8);  // magic(4) + version(4)
        const std::uint64_t bogus = 1000;
        f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
    }
    EXPECT_THROW(read_binary_file(path), PastaError);
    fs::remove_all(dir);
}

TEST(FailureInjection, BinaryPayloadChecksumCatchesSilentCorruption)
{
    // A bitflip in the value payload leaves the header plausible; only
    // the trailing FNV-1a checksum can catch it.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "pasta_failure_checksum";
    fs::create_directories(dir);
    const std::string path = (dir / "t.pstb").string();
    write_binary_file(path, healthy());
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        char byte = 0;
        f.seekg(-12, std::ios::end);  // inside values, before checksum
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x01);
        f.seekp(-12, std::ios::end);
        f.write(&byte, 1);
    }
    try {
        read_binary_file(path);
        FAIL() << "bitflipped payload accepted";
    } catch (const PastaError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
    fs::remove_all(dir);
}

TEST(FailureInjection, BinaryTruncationRejected)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "pasta_failure_truncate";
    fs::create_directories(dir);
    const std::string path = (dir / "t.pstb").string();
    write_binary_file(path, healthy());
    const auto size = fs::file_size(path);
    // Chop at several depths: inside the checksum, the payload, and the
    // header itself.
    for (const auto keep :
         {size - 3, size / 2, static_cast<std::uintmax_t>(10)}) {
        fs::resize_file(path, keep);
        EXPECT_THROW(read_binary_file(path), PastaError) << keep;
        fs::remove(path);
        write_binary_file(path, healthy());
    }
    fs::remove_all(dir);
}

TEST(FailureInjection, ConversionOfCorruptTensorDetected)
{
    // A COO tensor with out-of-range indices must be caught by validate
    // before/after conversions (conversions themselves assume valid
    // input, so the contract is: validate() is the gate).
    CooTensor x = healthy();
    x.mode_indices(2)[0] = 1000;
    EXPECT_THROW(x.validate(), PastaError);
}

TEST(FailureInjection, RandomizedHicooRoundTripFuzz)
{
    // Randomized structural fuzz: for many seeds, conversion round trips
    // must be exact (catches latent sort/boundary bugs).
    for (std::uint64_t seed = 100; seed < 130; ++seed) {
        Rng rng(seed);
        const Size order = 2 + seed % 3;
        const Index dim = 16 << (seed % 3);
        CooTensor x = CooTensor::random(
            std::vector<Index>(order, dim), 50 + seed % 200, rng);
        const unsigned bits = 1 + seed % 8;
        HiCooTensor h = coo_to_hicoo(x, bits);
        h.validate();
        EXPECT_TRUE(tensors_almost_equal(hicoo_to_coo(h), x))
            << "seed " << seed << " bits " << bits;
    }
}

TEST(FailureInjection, RandomizedCsfRoundTripFuzz)
{
    for (std::uint64_t seed = 200; seed < 225; ++seed) {
        Rng rng(seed);
        const Size order = 2 + seed % 4;
        CooTensor x = CooTensor::random(
            std::vector<Index>(order, 24), 30 + seed % 150, rng);
        CsfTensor c = CsfTensor::from_coo(x);
        c.validate();
        EXPECT_TRUE(tensors_almost_equal(c.to_coo(), x))
            << "seed " << seed;
    }
}

}  // namespace
}  // namespace pasta
