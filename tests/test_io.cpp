// Tests for .tns and binary IO plus the disk-backed registry.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "harness/fault.hpp"
#include "io/binary_io.hpp"
#include "io/registry.hpp"
#include "io/tns_io.hpp"
#include "validate/validate.hpp"

namespace pasta {
namespace {

class TempDir {
  public:
    TempDir()
    {
        path_ = std::filesystem::temp_directory_path() /
                ("pasta_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }

    std::string file(const std::string& name) const
    {
        return (path_ / name).string();
    }
    std::string dir() const { return path_.string(); }

  private:
    static inline int counter_ = 0;
    std::filesystem::path path_;
};

TEST(TnsIo, ParsesHeaderlessFrosttFormat)
{
    std::istringstream in(
        "# a comment\n"
        "1 1 1 1.5\n"
        "2 3 4 -2.0\n"
        "\n"
        "2 1 1 0.25\n");
    CooTensor t = read_tns(in);
    EXPECT_EQ(t.order(), 3u);
    EXPECT_EQ(t.nnz(), 3u);
    // Dims inferred from max coordinates.
    EXPECT_EQ(t.dims(), (std::vector<Index>{2, 3, 4}));
    EXPECT_FLOAT_EQ(t.at({0, 0, 0}), 1.5f);
    EXPECT_FLOAT_EQ(t.at({1, 2, 3}), -2.0f);
}

TEST(TnsIo, ParsesPartiHeader)
{
    std::istringstream in(
        "3\n"
        "10 20 30\n"
        "1 1 1 5.0\n");
    CooTensor t = read_tns(in);
    EXPECT_EQ(t.dims(), (std::vector<Index>{10, 20, 30}));
    EXPECT_EQ(t.nnz(), 1u);
}

TEST(TnsIo, RejectsMalformedInput)
{
    {
        std::istringstream in("1 2\n1 2 3\n");  // inconsistent arity
        EXPECT_THROW(read_tns(in), PastaError);
    }
    {
        std::istringstream in("abc def 1.0\n");
        EXPECT_THROW(read_tns(in), PastaError);
    }
    {
        std::istringstream in("0 1 2.0\n");  // 0 is not 1-based
        EXPECT_THROW(read_tns(in), PastaError);
    }
    {
        std::istringstream in("3\n10 20\n");  // header arity mismatch
        EXPECT_THROW(read_tns(in), PastaError);
    }
    {
        std::istringstream in("");
        EXPECT_THROW(read_tns(in), PastaError);
    }
    {
        std::istringstream in("3\n2 2 2\n5 1 1 1.0\n");  // out of range
        EXPECT_THROW(read_tns(in), PastaError);
    }
}

TEST(TnsIo, WriteReadRoundTrip)
{
    Rng rng(1);
    CooTensor x = CooTensor::random({16, 8, 32}, 100, rng);
    std::ostringstream out;
    write_tns(out, x);
    std::istringstream in(out.str());
    CooTensor back = read_tns(in);
    EXPECT_EQ(back.dims(), x.dims());
    EXPECT_TRUE(tensors_almost_equal(x, back, 1e-4));
}

TEST(TnsIo, HeaderlessRoundTripLosesOnlyTrailingEmptySlices)
{
    Rng rng(2);
    CooTensor x = CooTensor::random({16, 16}, 50, rng);
    std::ostringstream out;
    write_tns(out, x, /*with_header=*/false);
    std::istringstream in(out.str());
    CooTensor back = read_tns(in);
    // Inferred dims are the max coordinate, <= the real dims.
    EXPECT_LE(back.dim(0), x.dim(0));
    EXPECT_EQ(back.nnz(), x.nnz());
}

TEST(TnsIo, FileRoundTripAndMissingFileError)
{
    TempDir tmp;
    Rng rng(3);
    CooTensor x = CooTensor::random({8, 8, 8}, 40, rng);
    write_tns_file(tmp.file("t.tns"), x);
    CooTensor back = read_tns_file(tmp.file("t.tns"));
    EXPECT_TRUE(tensors_almost_equal(x, back, 1e-4));
    EXPECT_THROW(read_tns_file(tmp.file("missing.tns")), PastaError);
}

TEST(BinaryIo, RoundTripIsExact)
{
    TempDir tmp;
    Rng rng(4);
    CooTensor x = CooTensor::random({100, 50, 25, 10}, 500, rng);
    write_binary_file(tmp.file("t.pstb"), x);
    CooTensor back = read_binary_file(tmp.file("t.pstb"));
    EXPECT_EQ(back.dims(), x.dims());
    EXPECT_TRUE(back.same_pattern(x));
    EXPECT_EQ(back.values(), x.values());
}

TEST(BinaryIo, UnsortedFileWithDuplicatesLoadsUnderFullValidation)
{
    // PSTB promises lengths, index ranges and finite values, not sorted
    // or duplicate-free order: the reader must not apply the canonical
    // COO checks, even under PASTA_VALIDATE=full.
    TempDir tmp;
    CooTensor x({8, 8, 8});
    x.append({5, 1, 2}, 1.0f);
    x.append({0, 7, 3}, 2.0f);
    x.append({5, 1, 2}, 3.0f);
    x.append({2, 0, 0}, 4.0f);
    // The canonical checker rejects it: unsorted, with one duplicate.
    ASSERT_FALSE(validate::validate(x).ok());
    write_binary_file(tmp.file("t.pstb"), x);

    const validate::Mode prev = validate::current_mode();
    validate::set_mode(validate::Mode::kFull);
    CooTensor back;
    EXPECT_NO_THROW(back = read_binary_file(tmp.file("t.pstb")));
    validate::set_mode(prev);
    EXPECT_EQ(back.dims(), x.dims());
    EXPECT_TRUE(back.same_pattern(x));
    EXPECT_EQ(back.values(), x.values());
}

TEST(BinaryIo, RejectsCorruptFiles)
{
    TempDir tmp;
    {
        std::ofstream f(tmp.file("bad.pstb"), std::ios::binary);
        f << "NOTAPSTB";
    }
    EXPECT_THROW(read_binary_file(tmp.file("bad.pstb")), PastaError);
    EXPECT_THROW(read_binary_file(tmp.file("missing.pstb")), PastaError);
}

TEST(BinaryIo, RejectsTruncatedFile)
{
    TempDir tmp;
    Rng rng(5);
    CooTensor x = CooTensor::random({32, 32}, 100, rng);
    write_binary_file(tmp.file("t.pstb"), x);
    // Truncate to half size.
    const auto full = std::filesystem::file_size(tmp.file("t.pstb"));
    std::filesystem::resize_file(tmp.file("t.pstb"), full / 2);
    EXPECT_THROW(read_binary_file(tmp.file("t.pstb")), PastaError);
}

TEST(Registry, GeneratesThenServesFromCache)
{
    TempDir tmp;
    TensorRegistry registry(tmp.dir(), 1e-4);
    CooTensor first = registry.load("irrS");
    const DatasetSpec& spec = find_dataset("irrS");
    EXPECT_TRUE(std::filesystem::exists(registry.cache_path(spec)));
    CooTensor second = registry.load("irrS");
    EXPECT_TRUE(first.same_pattern(second));
    EXPECT_EQ(first.values(), second.values());
}

TEST(Registry, RegeneratesOnStaleCache)
{
    TempDir tmp;
    TensorRegistry registry(tmp.dir(), 1e-4);
    const DatasetSpec& spec = find_dataset("irrS");
    CooTensor first = registry.load("irrS");
    {
        std::ofstream f(registry.cache_path(spec), std::ios::binary);
        f << "garbage";
    }
    CooTensor second = registry.load("irrS");
    EXPECT_TRUE(first.same_pattern(second));
}

TEST(Registry, ConcurrentLoadsSeeOneConsistentTensor)
{
    TempDir tmp;
    const DatasetSpec& spec = find_dataset("irrS");
    // Cold cache: every thread races generate-and-publish; single-flight
    // means one synthesis, and atomic publication means no thread can
    // read a torn half-written file.
    constexpr int kThreads = 8;
    std::vector<CooTensor> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            TensorRegistry registry(tmp.dir(), 1e-4);
            results[static_cast<std::size_t>(t)] = registry.load("irrS");
        });
    for (auto& t : threads)
        t.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_TRUE(results[0].same_pattern(
            results[static_cast<std::size_t>(t)]));
        EXPECT_EQ(results[0].values(),
                  results[static_cast<std::size_t>(t)].values());
    }
    TensorRegistry registry(tmp.dir(), 1e-4);
    EXPECT_TRUE(std::filesystem::exists(registry.cache_path(spec)));
    // No leftover temp files from the publish protocol.
    for (const auto& entry :
         std::filesystem::directory_iterator(tmp.dir()))
        EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
            << entry.path();
}

TEST(Registry, ConcurrentReloadSurvivesInjectedCacheFaults)
{
    TempDir tmp;
    {
        TensorRegistry registry(tmp.dir(), 1e-4);
        registry.load("irrS");  // warm the cache
    }
    // Every cache read fails with probability 0.5: threads keep racing
    // the delete-and-regenerate path against plain cache reads.  The
    // invariant is that every load still returns the same tensor and
    // nobody crashes on a torn or vanished file.
    auto& injector = harness::FaultInjector::instance();
    injector.configure(harness::parse_fault_spec("cache.load:throw:0.5"),
                       11);
    constexpr int kThreads = 6;
    constexpr int kRounds = 4;
    std::vector<CooTensor> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            TensorRegistry registry(tmp.dir(), 1e-4);
            for (int r = 0; r < kRounds; ++r)
                results[static_cast<std::size_t>(t)] =
                    registry.load("irrS");
        });
    for (auto& t : threads)
        t.join();
    injector.clear();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_TRUE(results[0].same_pattern(
            results[static_cast<std::size_t>(t)]));
        EXPECT_EQ(results[0].values(),
                  results[static_cast<std::size_t>(t)].values());
    }
}

TEST(Registry, UnknownDatasetThrows)
{
    TensorRegistry registry("", 1e-4);
    EXPECT_THROW(registry.load("bogus"), PastaError);
}

TEST(Registry, EmptyCacheDirDisablesCaching)
{
    TensorRegistry registry("", 1e-4);
    const DatasetSpec& spec = find_dataset("irrS");
    EXPECT_TRUE(registry.cache_path(spec).empty());
    CooTensor t = registry.load("irrS");
    EXPECT_GT(t.nnz(), 0u);
}

}  // namespace
}  // namespace pasta
