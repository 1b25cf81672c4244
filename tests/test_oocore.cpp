// Bounded-memory execution tests: the memory governor, mmap-backed
// tensors, the chunked out-of-core kernels (bit-identity against the
// in-memory baselines across thread counts), partition checkpoint/
// resume, and the OOM -> streaming degradation ladder.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>

#include "common/error.hpp"
#include "common/membudget.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "harness/fault.hpp"
#include "harness/journal.hpp"
#include "harness/trial.hpp"
#include "io/binary_io.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/ttv.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pasta {
namespace {

class TempDir {
  public:
    TempDir()
    {
        path_ = std::filesystem::temp_directory_path() /
                ("pasta_oocore_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }

    std::string file(const std::string& name) const
    {
        return (path_ / name).string();
    }

  private:
    static inline int counter_ = 0;
    std::filesystem::path path_;
};

/// The governor is process-wide state; every test leaves it disarmed.
class Oocore : public ::testing::Test {
  protected:
    void TearDown() override
    {
        auto& gov = membudget::MemGovernor::instance();
        gov.configure(0);
        gov.set_degraded(false);
        gov.reset_peak();
        harness::FaultInjector::instance().clear();
    }
};

CooTensor
random_tensor(Size nnz, std::uint64_t seed, bool with_duplicates)
{
    const std::vector<Index> dims{64, 48, 32};
    Rng rng(seed);
    if (!with_duplicates) {
        CooTensor x = CooTensor::random(dims, nnz, rng);
        x.canonicalize(DuplicatePolicy::kSum);
        return x;
    }
    // Coordinates drawn from a small sub-box so duplicate runs appear.
    CooTensor x(dims);
    for (Size p = 0; p < nnz; ++p) {
        Coordinate c(dims.size());
        for (Size m = 0; m < dims.size(); ++m)
            c[m] = static_cast<Index>(rng.next_u64() % (dims[m] / 2));
        x.append(c, rng.next_float() + 0.25f);
    }
    return x;
}

void
expect_bit_identical(const CooTensor& a, const CooTensor& b)
{
    ASSERT_EQ(a.dims(), b.dims());
    ASSERT_EQ(a.nnz(), b.nnz());
    for (Size m = 0; m < a.order(); ++m)
        EXPECT_EQ(a.mode_indices(m), b.mode_indices(m)) << "mode " << m;
    ASSERT_EQ(a.values().size(), b.values().size());
    EXPECT_EQ(0, std::memcmp(a.values().data(), b.values().data(),
                             a.values().size() * sizeof(Value)));
}

// ---------------------------------------------------------------- governor

TEST_F(Oocore, GovernorEnforcesBudgetAndTracksPeak)
{
    auto& gov = membudget::MemGovernor::instance();
    gov.configure(1000);
    gov.reset_peak();
    ASSERT_TRUE(gov.enabled());

    gov.reserve(600, "a");
    EXPECT_EQ(gov.reserved(), 600u);
    EXPECT_THROW(gov.reserve(600, "b"), membudget::HostOomError);
    EXPECT_FALSE(gov.try_reserve(600, "b"));
    EXPECT_TRUE(gov.would_fit(400));
    EXPECT_FALSE(gov.would_fit(401));
    EXPECT_THROW(gov.check(500, "probe"), membudget::HostOomError);
    gov.check(400, "probe");  // fits: records the prospective peak
    EXPECT_EQ(gov.peak(), 1000u);

    gov.release(600);
    EXPECT_EQ(gov.reserved(), 0u);
    // Peak is a high-water mark: release does not lower it.
    EXPECT_EQ(gov.peak(), 1000u);
    gov.reset_peak();
    EXPECT_EQ(gov.peak(), 0u);

    // Double release clamps instead of underflowing.
    gov.release(100);
    EXPECT_EQ(gov.reserved(), 0u);

    gov.configure(0);
    EXPECT_FALSE(gov.enabled());
    gov.reserve(std::uint64_t{1} << 40, "unlimited");
    gov.release(std::uint64_t{1} << 40);
}

TEST_F(Oocore, GovernorRaiiReservationReleases)
{
    auto& gov = membudget::MemGovernor::instance();
    gov.configure(1000);
    {
        membudget::MemReservation r(700, "scoped");
        EXPECT_EQ(gov.reserved(), 700u);
        membudget::MemReservation moved(std::move(r));
        EXPECT_EQ(gov.reserved(), 700u);
    }
    EXPECT_EQ(gov.reserved(), 0u);
    EXPECT_THROW(membudget::MemReservation(1001, "too big"),
                 membudget::HostOomError);
    EXPECT_EQ(gov.reserved(), 0u);
}

TEST_F(Oocore, GovernorParsesEnvBudget)
{
    auto& gov = membudget::MemGovernor::instance();
    const auto with_env = [&](const char* value) {
        ::setenv("PASTA_MEM_BYTES", value, 1);
        gov.configure_from_env();
        ::unsetenv("PASTA_MEM_BYTES");
    };
    with_env("12345");
    EXPECT_EQ(gov.budget(), 12345u);
    with_env("512K");
    EXPECT_EQ(gov.budget(), 512u * 1024);
    with_env("2M");
    EXPECT_EQ(gov.budget(), 2u * 1024 * 1024);
    with_env("1G");
    EXPECT_EQ(gov.budget(), std::uint64_t{1} << 30);
    EXPECT_THROW(with_env("abc"), PastaError);
    EXPECT_THROW(with_env("12Q"), PastaError);
    // Unset leaves the previous budget untouched.
    ::unsetenv("PASTA_MEM_BYTES");
    gov.configure(777);
    gov.configure_from_env();
    EXPECT_EQ(gov.budget(), 777u);
}

TEST_F(Oocore, GovernorFaultPointFires)
{
    const auto& points = harness::known_fault_points();
    EXPECT_NE(std::find(points.begin(), points.end(), "mem.reserve"),
              points.end());
    EXPECT_NE(std::find(points.begin(), points.end(), "io.mmap"),
              points.end());

    harness::FaultInjector::instance().configure(
        harness::parse_fault_spec("mem.reserve:throw"));
    EXPECT_THROW(membudget::reserve(64, "chaos"), PastaError);
    harness::FaultInjector::instance().clear();
}

// -------------------------------------------------------------- binary IO

TEST_F(Oocore, MappedTensorMatchesInMemoryLoad)
{
    TempDir tmp;
    const CooTensor x = random_tensor(3000, 7, true);
    const std::string path = tmp.file("x.pstb");
    write_binary_file(path, x);

    const CooTensor loaded = read_binary_file(path);
    MappedCooTensor mapped(path);
    EXPECT_EQ(mapped.order(), x.order());
    EXPECT_EQ(mapped.dims(), x.dims());
    EXPECT_EQ(mapped.nnz(), x.nnz());
    EXPECT_TRUE(mapped.verify_checksum());
    expect_bit_identical(mapped.to_coo(), loaded);
    expect_bit_identical(mapped.to_coo(), x);

    // Zero-copy sections agree with the canonical arrays.
    for (Size m = 0; m < x.order(); ++m)
        EXPECT_EQ(0, std::memcmp(mapped.mode_indices(m),
                                 x.mode_indices(m).data(),
                                 x.nnz() * sizeof(Index)));
    EXPECT_EQ(0, std::memcmp(mapped.values(), x.values().data(),
                             x.nnz() * sizeof(Value)));

    // Slices restrict the stream order.
    const CooTensor mid = mapped.slice(100, 500);
    EXPECT_EQ(mid.nnz(), 400u);
    for (Size m = 0; m < x.order(); ++m)
        EXPECT_EQ(mid.index(m, 0), x.index(m, 100));
}

TEST_F(Oocore, TruncatedFilesDetectedUpFront)
{
    TempDir tmp;
    const CooTensor x = random_tensor(2000, 11, false);
    const std::string path = tmp.file("trunc.pstb");
    write_binary_file(path, x);
    const auto full = std::filesystem::file_size(path);

    // Torn tail (the classic killed-writer case).
    std::filesystem::resize_file(path, full - 9);
    EXPECT_THROW(read_binary_file(path), PastaError);
    EXPECT_THROW(MappedCooTensor{path}, PastaError);

    // Torn header.
    std::filesystem::resize_file(path, 10);
    EXPECT_THROW(read_binary_file(path), PastaError);
    EXPECT_THROW(MappedCooTensor{path}, PastaError);

    // A grown file (trailing garbage) is also not silently accepted.
    write_binary_file(path, x);
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f.write("xx", 2);
    }
    EXPECT_THROW(read_binary_file(path), PastaError);
    EXPECT_THROW(MappedCooTensor{path}, PastaError);
}

TEST_F(Oocore, MmapFaultPointFires)
{
    TempDir tmp;
    const std::string path = tmp.file("x.pstb");
    write_binary_file(path, random_tensor(100, 3, false));
    harness::FaultInjector::instance().configure(
        harness::parse_fault_spec("io.mmap:throw"));
    EXPECT_THROW(MappedCooTensor{path}, PastaError);
    harness::FaultInjector::instance().clear();
    MappedCooTensor ok(path);
    EXPECT_EQ(ok.nnz(), 100u);
}

// ------------------------------------------------------- streamed kernels

/// Budget that forces a genuine multi-partition sweep on the test
/// tensors while leaving every per-chunk probe feasible.
constexpr std::uint64_t kSweepBudget = 150'000;

TEST_F(Oocore, StreamedCoalesceBitIdenticalToInMemory)
{
    TempDir tmp;
    const CooTensor x = random_tensor(6000, 19, true);
    const std::string in_path = tmp.file("in.pstb");
    const std::string out_path = tmp.file("coalesced.pstb");
    write_binary_file(in_path, x);
    MappedCooTensor mapped(in_path);

    CooTensor expected = x;
    expected.canonicalize(DuplicatePolicy::kSum);

    membudget::MemGovernor::instance().configure(kSweepBudget);
    const stream::StreamDecision d =
        stream::coalesce_streamed(mapped, out_path);
    membudget::MemGovernor::instance().configure(0);

    EXPECT_TRUE(d.streamed);
    EXPECT_GE(d.partitions, 2u);
    EXPECT_EQ(d.variant,
              "coalesce_stream_p" + std::to_string(d.partitions));
    expect_bit_identical(read_binary_file(out_path), expected);
}

TEST_F(Oocore, StreamedTtvBitIdenticalAcrossThreadCounts)
{
    TempDir tmp;
    const CooTensor x = random_tensor(6000, 23, false);
    const std::string path = tmp.file("x.pstb");
    write_binary_file(path, x);
    MappedCooTensor mapped(path);

    const int saved_threads = num_threads();
    for (Size mode = 0; mode < x.order(); ++mode) {
        Rng rng(41 + mode);
        const DenseVector v = DenseVector::random(x.dim(mode), rng);
        const CooTensor expected = ttv_coo(x, v, mode);
        for (int threads : {1, 4, 8}) {
            set_num_threads(threads);
            CooTensor out;
            membudget::MemGovernor::instance().configure(kSweepBudget);
            const stream::StreamDecision d =
                stream::ttv_coo_stream(mapped, v, mode, out);
            membudget::MemGovernor::instance().configure(0);
            EXPECT_GE(d.partitions, 2u) << "mode " << mode;
            expect_bit_identical(out, expected);
        }
    }
    set_num_threads(saved_threads);
}

TEST_F(Oocore, StreamedMttkrpBitIdenticalAcrossThreadCounts)
{
    TempDir tmp;
    const CooTensor x = random_tensor(6000, 29, false);
    const std::string path = tmp.file("x.pstb");
    write_binary_file(path, x);
    MappedCooTensor mapped(path);

    const Size rank = 8;
    Rng rng(5);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), rank, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);

    const int saved_threads = num_threads();
    for (Size mode = 0; mode < x.order(); ++mode) {
        DenseMatrix expected(x.dim(mode), rank);
        mttkrp_coo_seq(x, factors, mode, expected);
        for (int threads : {1, 4, 8}) {
            set_num_threads(threads);
            DenseMatrix out(x.dim(mode), rank);
            membudget::MemGovernor::instance().configure(kSweepBudget);
            const stream::StreamDecision d =
                stream::mttkrp_coo_stream(mapped, factors, mode, out);
            membudget::MemGovernor::instance().configure(0);
            EXPECT_GE(d.partitions, 2u) << "mode " << mode;
            EXPECT_EQ(0,
                      std::memcmp(out.data(), expected.data(),
                                  x.dim(mode) * rank * sizeof(Value)))
                << "mode " << mode << " at " << threads << " threads";
        }
    }
    set_num_threads(saved_threads);
}

TEST_F(Oocore, MttkrpCheckpointResumesAfterKill)
{
    TempDir tmp;
    const CooTensor x = random_tensor(6000, 31, false);
    const std::string path = tmp.file("x.pstb");
    const std::string ckpt = tmp.file("mttkrp.ckpt");
    write_binary_file(path, x);
    MappedCooTensor mapped(path);

    const Size rank = 8;
    Rng rng(9);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), rank, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);

    DenseMatrix expected(x.dim(0), rank);
    mttkrp_coo_seq(x, factors, 0, expected);

    membudget::MemGovernor::instance().configure(kSweepBudget);

    // First run dies after the second partition's checkpoint landed
    // (the hook fires after the save, like a kill between partitions).
    stream::StreamOptions opts;
    opts.checkpoint_path = ckpt;
    opts.progress = [](Size done, Size) {
        if (done == 2)
            throw std::runtime_error("simulated kill");
    };
    DenseMatrix out(x.dim(0), rank);
    EXPECT_THROW(stream::mttkrp_coo_stream(mapped, factors, 0, out, opts),
                 std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists(ckpt));

    // Second run resumes at partition 2 and finishes bit-identically.
    stream::StreamOptions resume;
    resume.checkpoint_path = ckpt;
    DenseMatrix out2(x.dim(0), rank);
    const stream::StreamDecision d =
        stream::mttkrp_coo_stream(mapped, factors, 0, out2, resume);
    membudget::MemGovernor::instance().configure(0);
    EXPECT_EQ(d.resumed_from, 2u);
    EXPECT_GT(d.partitions, 2u);
    EXPECT_EQ(0, std::memcmp(out2.data(), expected.data(),
                             x.dim(0) * rank * sizeof(Value)));

    // A corrupt checkpoint degrades to a fresh, still-correct sweep.
    {
        std::fstream f(ckpt, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(24);
        const char junk = 0x5a;
        f.write(&junk, 1);
    }
    DenseMatrix out3(x.dim(0), rank);
    membudget::MemGovernor::instance().configure(kSweepBudget);
    const stream::StreamDecision d3 =
        stream::mttkrp_coo_stream(mapped, factors, 0, out3, resume);
    membudget::MemGovernor::instance().configure(0);
    EXPECT_EQ(d3.resumed_from, 0u);
    EXPECT_EQ(0, std::memcmp(out3.data(), expected.data(),
                             x.dim(0) * rank * sizeof(Value)));
}

/// PSCK v2 framing, mirrored from core/stream.cpp: a 48-byte header,
/// then per partition a 24-byte record head, the partition's rows and
/// an 8-byte checksum.
constexpr std::uint64_t kCkptHeaderBytes = 48;
constexpr std::uint64_t kCkptRecordOverhead = 32;

/// A mapped random tensor, rank-8 factors, the mode-0 mttkrp_coo_seq
/// reference, and the partition plan the kSweepBudget sweep uses — the
/// shared setup of the checkpoint log tests.
class CheckpointCase {
  public:
    static constexpr Size kRank = 8;

    explicit CheckpointCase(std::uint64_t seed)
        : x_(random_tensor(6000, seed, false)),
          ckpt_(tmp_.file("mttkrp.ckpt"))
    {
        const std::string path = tmp_.file("x.pstb");
        write_binary_file(path, x_);
        mapped_.emplace(path);
        Rng rng(seed + 1);
        for (Size m = 0; m < x_.order(); ++m)
            mats_.push_back(DenseMatrix::random(x_.dim(m), kRank, rng));
        for (const auto& m : mats_)
            factors_.push_back(&m);
        expected_ = DenseMatrix(rows(), kRank);
        mttkrp_coo_seq(x_, factors_, 0, expected_);
        plan_ = stream::plan_partitions(*mapped_, 0, kSweepBudget, 4096);
    }

    const std::string& ckpt() const { return ckpt_; }
    Size rows() const { return x_.dim(0); }
    Size partitions() const { return plan_.partitions; }
    const DenseMatrix& expected() const { return expected_; }

    /// First output row owned by partition `p` (clamped to the matrix).
    Size row_begin(Size p) const
    {
        return std::min<Size>(p << plan_.shift, rows());
    }

    /// File offset of partition `k`'s record in a log that starts at 0.
    std::uint64_t record_offset(Size k) const
    {
        return kCkptHeaderBytes + k * kCkptRecordOverhead +
               row_begin(k) * kRank * sizeof(Value);
    }

    /// One checkpointed sweep under kSweepBudget into `out`.
    stream::StreamDecision run(DenseMatrix& out, stream::StreamOptions opts)
    {
        opts.checkpoint_path = ckpt_;
        out = DenseMatrix(rows(), kRank);
        auto& gov = membudget::MemGovernor::instance();
        gov.configure(kSweepBudget);
        try {
            const stream::StreamDecision d =
                stream::mttkrp_coo_stream(*mapped_, factors_, 0, out, opts);
            gov.configure(0);
            return d;
        } catch (...) {
            gov.configure(0);
            throw;
        }
    }

    bool matches(const DenseMatrix& out) const
    {
        return std::memcmp(out.data(), expected_.data(),
                           rows() * kRank * sizeof(Value)) == 0;
    }

  private:
    TempDir tmp_;
    CooTensor x_;
    std::string ckpt_;
    std::optional<MappedCooTensor> mapped_;
    std::vector<DenseMatrix> mats_;
    FactorList factors_;
    DenseMatrix expected_;
    stream::PartitionPlan plan_;
};

/// A progress hook that simulates a kill once `after` partitions of the
/// sweep have completed (the hook fires after the record is durable).
std::function<void(Size, Size)>
kill_after(Size after)
{
    return [after](Size done, Size) {
        if (done == after)
            throw std::runtime_error("simulated kill");
    };
}

TEST_F(Oocore, MttkrpCheckpointTornAppendResumesAtLastCompletePartition)
{
    CheckpointCase c(43);
    const Size parts = c.partitions();
    ASSERT_GE(parts, 4u);
    DenseMatrix out;
    c.run(out, {});
    ASSERT_TRUE(c.matches(out));
    ASSERT_EQ(std::filesystem::file_size(c.ckpt()), c.record_offset(parts));

    // A writer killed mid-append: record k stops partway through its rows.
    const Size k = parts / 2;
    std::filesystem::resize_file(c.ckpt(), c.record_offset(k) + 24 + 5);
    const stream::StreamDecision d = c.run(out, {});
    EXPECT_EQ(d.resumed_from, k);
    EXPECT_TRUE(c.matches(out));
    EXPECT_EQ(std::filesystem::file_size(c.ckpt()), c.record_offset(parts));
}

TEST_F(Oocore, MttkrpCheckpointCorruptRecordTruncatesToValidPrefix)
{
    CheckpointCase c(47);
    const Size parts = c.partitions();
    ASSERT_GE(parts, 4u);
    DenseMatrix out;
    c.run(out, {});

    // Flip a byte inside record k's data: records 0..k-1 stay valid.
    const Size k = parts / 2;
    ASSERT_LT(c.row_begin(k), c.row_begin(k + 1));
    {
        std::fstream f(c.ckpt(),
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(static_cast<std::streamoff>(c.record_offset(k) + 24 + 3));
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(static_cast<std::streamoff>(c.record_offset(k) + 24 + 3));
        f.write(&byte, 1);
    }

    // The resume recomputes k and dies right after appending it: the
    // file must hold exactly records 0..k, so the bad record and every
    // record after it were cut off rather than overwritten in place.
    stream::StreamOptions die;
    die.progress = kill_after(k + 1);
    EXPECT_THROW(c.run(out, die), std::runtime_error);
    EXPECT_EQ(std::filesystem::file_size(c.ckpt()), c.record_offset(k + 1));

    // Record k was recomputed onto re-zeroed rows, so replaying it (and
    // finishing the sweep) is still bit-identical.
    const stream::StreamDecision d = c.run(out, {});
    EXPECT_EQ(d.resumed_from, k + 1);
    EXPECT_TRUE(c.matches(out));
}

TEST_F(Oocore, MttkrpCheckpointForeignOrCorruptHeaderStartsFresh)
{
    CheckpointCase c(53);
    DenseMatrix out;

    // A whole-matrix v1 checkpoint claiming a finished sweep.
    {
        std::ofstream f(c.ckpt(), std::ios::binary);
        const std::uint32_t version = 1;
        const std::uint64_t fields[5] = {0, c.partitions(), c.partitions(),
                                         c.rows(), CheckpointCase::kRank};
        f.write("PSCK", 4);
        f.write(reinterpret_cast<const char*>(&version), sizeof(version));
        f.write(reinterpret_cast<const char*>(fields), sizeof(fields));
        const std::vector<Value> data(c.rows() * CheckpointCase::kRank,
                                      1.0f);
        f.write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(data.size() * sizeof(Value)));
        const std::uint64_t sum = 0;
        f.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
    }
    stream::StreamDecision d = c.run(out, {});
    EXPECT_EQ(d.resumed_from, 0u);
    EXPECT_TRUE(c.matches(out));
    {
        // The v1 file was replaced by a v2 log.
        std::ifstream f(c.ckpt(), std::ios::binary);
        f.seekg(4);
        std::uint32_t version = 0;
        f.read(reinterpret_cast<char*>(&version), sizeof(version));
        EXPECT_EQ(version, 2u);
    }

    // A complete v2 log whose header mode field is corrupted.
    {
        std::fstream f(c.ckpt(),
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(8);
        const char junk = 0x01;
        f.write(&junk, 1);
    }
    d = c.run(out, {});
    EXPECT_EQ(d.resumed_from, 0u);
    EXPECT_TRUE(c.matches(out));
}

TEST_F(Oocore, MttkrpCheckpointBytesAreOutputSized)
{
    const obs::TraceMode saved = obs::current_mode();
    obs::set_mode(obs::TraceMode::kCounters);
    obs::reset_metrics();

    CheckpointCase c(61);
    DenseMatrix out;
    c.run(out, {});
    const std::uint64_t written =
        obs::counter("stream.checkpoint_bytes").total();
    obs::set_mode(saved);

    // Header + one record per partition: the output once, plus framing.
    const Size parts = c.partitions();
    const std::uint64_t output =
        c.rows() * CheckpointCase::kRank * sizeof(Value);
    EXPECT_EQ(written,
              kCkptHeaderBytes + parts * kCkptRecordOverhead + output);
    EXPECT_EQ(written, std::filesystem::file_size(c.ckpt()));
    EXPECT_LT(written, 2 * output);
}

// --------------------------------------------------- degradation ladder

TEST_F(Oocore, BudgetedEntryPointsRouteByBudget)
{
    TempDir tmp;
    const CooTensor x = random_tensor(6000, 37, false);
    const std::string path = tmp.file("x.pstb");
    write_binary_file(path, x);
    MappedCooTensor mapped(path);

    const Size rank = 8;
    Rng rng(13);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), rank, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);
    DenseMatrix expected(x.dim(0), rank);
    mttkrp_coo_seq(x, factors, 0, expected);

    // Unlimited budget: the in-memory kernel runs.
    {
        DenseMatrix out(x.dim(0), rank);
        const stream::StreamDecision d =
            stream::mttkrp_coo_budgeted(mapped, factors, 0, out);
        EXPECT_FALSE(d.streamed);
        EXPECT_EQ(d.variant, "mttkrp_inmem");
    }

    // In-memory references, computed before the budget is armed (the
    // reference kernels meter their scratch too and would OOM).
    Rng vrng(17);
    const DenseVector v = DenseVector::random(x.dim(1), vrng);
    const CooTensor ttv_expected = ttv_coo(x, v, 1);
    CooTensor coalesce_expected = x;
    coalesce_expected.canonicalize(DuplicatePolicy::kSum);

    // Budget below the tensor footprint: streaming fallback, and the
    // governor-metered peak stays under the budget for the whole sweep.
    constexpr std::uint64_t kRouteBudget = 60'000;
    auto& gov = membudget::MemGovernor::instance();
    gov.configure(kRouteBudget);
    ASSERT_LT(kRouteBudget, membudget::coo_bytes(x.order(), x.nnz()));
    {
        gov.reset_peak();
        DenseMatrix out(x.dim(0), rank);
        const stream::StreamDecision d =
            stream::mttkrp_coo_budgeted(mapped, factors, 0, out);
        EXPECT_TRUE(d.streamed);
        EXPECT_EQ(d.variant,
                  "mttkrp_stream_p" + std::to_string(d.partitions));
        EXPECT_EQ(0, std::memcmp(out.data(), expected.data(),
                                 x.dim(0) * rank * sizeof(Value)));
        EXPECT_GT(gov.peak(), 0u);
        EXPECT_LE(gov.peak(), kRouteBudget);
    }
    {
        gov.reset_peak();
        CooTensor out;
        const stream::StreamDecision d =
            stream::ttv_coo_budgeted(mapped, v, 1, out);
        EXPECT_TRUE(d.streamed);
        expect_bit_identical(out, ttv_expected);
        EXPECT_LE(gov.peak(), kRouteBudget);
    }
    {
        gov.reset_peak();
        const std::string out_path = tmp.file("coalesced.pstb");
        const stream::StreamDecision d =
            stream::coalesce_budgeted(mapped, out_path);
        EXPECT_TRUE(d.streamed);
        gov.configure(0);  // reading the result back needs no budget
        expect_bit_identical(read_binary_file(out_path), coalesce_expected);
    }
}

TEST_F(Oocore, TrialHarnessDegradesOnHostOom)
{
    harness::TrialPolicy policy;
    policy.timeout_seconds = 0;
    policy.max_attempts = 3;
    policy.backoff_initial_s = 0.0;
    policy.backoff_max_s = 0.0;

    // First attempt hits the budget wall; the harness arms degraded mode
    // and the retry takes the streaming route.
    int attempts = 0;
    const harness::TrialResult ok = harness::run_guarded_trial(
        "degrade",
        [&attempts] {
            ++attempts;
            if (!membudget::degraded())
                throw membudget::HostOomError("working set over budget");
            return 1.0;
        },
        policy);
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.attempts, 2);
    EXPECT_EQ(attempts, 2);
    EXPECT_FALSE(ok.oom);

    // Degraded mode is reset at the next trial's entry.
    const harness::TrialResult fresh = harness::run_guarded_trial(
        "fresh", [] { return membudget::degraded() ? 0.0 : 2.0; }, policy);
    EXPECT_TRUE(fresh.ok);
    EXPECT_EQ(fresh.seconds, 2.0);

    // Persistent OOM exhausts retries and classifies as oom.
    const harness::TrialResult bad = harness::run_guarded_trial(
        "hopeless",
        []() -> double { throw membudget::HostOomError("still too big"); },
        policy);
    EXPECT_FALSE(bad.ok);
    EXPECT_TRUE(bad.oom);
    EXPECT_EQ(bad.attempts, 3);
}

// ---------------------------------------------------------------- journal

TEST_F(Oocore, JournalCarriesMemoryAndPartitionFields)
{
    harness::JournalEntry entry;
    entry.tensor_id = "r1";
    entry.kernel = "MTTKRP";
    entry.format = "OOC";
    entry.ok = true;
    entry.seconds = 0.5;
    entry.mem_peak = 123456;
    entry.partitions_done = 5;
    entry.partitions_total = 16;

    harness::JournalEntry parsed;
    ASSERT_TRUE(harness::parse_json_line(harness::to_json_line(entry),
                                         parsed));
    EXPECT_EQ(parsed.mem_peak, 123456);
    EXPECT_EQ(parsed.partitions_done, 5);
    EXPECT_EQ(parsed.partitions_total, 16);

    // Pre-governor journal lines (no new fields) still parse.
    harness::JournalEntry legacy;
    ASSERT_TRUE(harness::parse_json_line(
        R"({"tensor":"r1","kernel":"TTV","format":"COO","ok":true,)"
        R"("seconds":1.5,"flops":1,"bytes":2,"attempts":1,"error":""})",
        legacy));
    EXPECT_EQ(legacy.mem_peak, 0);
    EXPECT_EQ(legacy.partitions_done, 0);
    EXPECT_EQ(legacy.partitions_total, 0);
}

}  // namespace
}  // namespace pasta
