// Tests for the bench harness plumbing: option parsing (including the
// strict env validation), suite loading, the CPU/GPU measurement
// pipelines at tiny scale, and the robustness layer wiring: fault-driven
// partial results, retry recovery, journal checkpoint/resume (each on the
// CPU and the simulated GPU), and the Table I cost each backend reports.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "analysis/cost_model.hpp"
#include "bench_common.hpp"
#include "common/error.hpp"
#include "gpusim/timing_model.hpp"
#include "harness/fault.hpp"

namespace pasta::bench {
namespace {

/// Clears the global fault injector even when a test fails mid-way.
struct FaultGuard {
    ~FaultGuard() { harness::FaultInjector::instance().clear(); }
};

TEST(BenchOptions, EnvOverridesAreApplied)
{
    ::setenv("PASTA_SCALE", "0.002", 1);
    ::setenv("PASTA_RUNS", "7", 1);
    ::setenv("PASTA_CACHE", "/tmp/pasta_cache_test", 1);
    const BenchOptions options = options_from_env();
    EXPECT_DOUBLE_EQ(options.scale, 0.002);
    EXPECT_EQ(options.runs, 7u);
    EXPECT_EQ(options.cache_dir, "/tmp/pasta_cache_test");
    ::unsetenv("PASTA_SCALE");
    ::unsetenv("PASTA_RUNS");
    ::unsetenv("PASTA_CACHE");
}

TEST(BenchOptions, DefaultsMatchThePaperProtocol)
{
    ::unsetenv("PASTA_SCALE");
    ::unsetenv("PASTA_RUNS");
    const BenchOptions options = options_from_env();
    EXPECT_EQ(options.rank, 16u);           // §V-A2: R = 16
    EXPECT_EQ(options.block_bits, 7u);      // §V-A2: B = 128
    EXPECT_GT(options.scale, 0.0);
    EXPECT_TRUE(options.journal_enabled);
}

TEST(BenchOptions, MalformedScaleRejected)
{
    for (const char* bad : {"abc", "0", "-0.5", "1.5", "0.1x", ""}) {
        ::setenv("PASTA_SCALE", bad, 1);
        EXPECT_THROW(options_from_env(), PastaError) << "'" << bad << "'";
    }
    ::unsetenv("PASTA_SCALE");
}

TEST(BenchOptions, MalformedRunsRejected)
{
    // 0 runs would silently measure nothing; absurd counts are typos.
    for (const char* bad : {"abc", "0", "-3", "3.5", "99999999999999"}) {
        ::setenv("PASTA_RUNS", bad, 1);
        EXPECT_THROW(options_from_env(), PastaError) << "'" << bad << "'";
    }
    ::unsetenv("PASTA_RUNS");
}

class SuitePipeline : public ::testing::Test {
  protected:
    void SetUp() override
    {
        options_.scale = 2e-5;  // tiny for test speed
        options_.runs = 1;
        options_.cache_dir.clear();  // no disk caching in tests
        suite_ = load_suite(options_);
    }

    BenchOptions options_;
    std::vector<NamedTensor> suite_;
};

TEST_F(SuitePipeline, LoadsAllThirtyDatasets)
{
    ASSERT_EQ(suite_.size(), 30u);
    EXPECT_EQ(suite_[0].id, "r1");
    EXPECT_EQ(suite_[29].id, "s15");
    for (const auto& entry : suite_)
        EXPECT_GT(entry.tensor.nnz(), 0u) << entry.id;
}

TEST_F(SuitePipeline, CpuSuiteProducesTenRunsPerTensor)
{
    // Use only the first two tensors to keep the test quick.
    std::vector<NamedTensor> small(suite_.begin(), suite_.begin() + 2);
    const SuiteResult result = run_cpu_suite(small, options_);
    // 5 kernels x 2 formats x 2 tensors.
    EXPECT_EQ(result.runs.size(), 20u);
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(result.resumed, 0u);
    for (const auto& run : result.runs) {
        EXPECT_GT(run.seconds, 0.0);
        EXPECT_GT(run.cost.flops, 0.0);
        EXPECT_GT(run.cost.bytes, 0.0);
    }
}

TEST_F(SuitePipeline, GpuSuiteProducesTenRunsPerTensor)
{
    std::vector<NamedTensor> small(suite_.begin() + 15,
                                   suite_.begin() + 17);
    const SuiteResult result =
        run_gpu_suite(small, gpusim::tesla_v100(), options_);
    EXPECT_EQ(result.runs.size(), 20u);
    EXPECT_TRUE(result.complete());
    for (const auto& run : result.runs)
        EXPECT_GT(run.seconds, 0.0);
}

TEST_F(SuitePipeline, PrintHelpersDoNotCrash)
{
    std::vector<NamedTensor> small(suite_.begin(), suite_.begin() + 1);
    const SuiteResult result = run_cpu_suite(small, options_);
    print_figure("test figure", result.runs, bluesky());
    print_averages(result.runs, bluesky());
    print_failure_summary(result);
}

TEST_F(SuitePipeline, CsvExportRoundTrips)
{
    namespace fs = std::filesystem;
    std::vector<NamedTensor> small(suite_.begin(), suite_.begin() + 1);
    const SuiteResult result = run_cpu_suite(small, options_);
    const fs::path dir = fs::temp_directory_path() / "pasta_csv_test";
    fs::create_directories(dir);
    const std::string path = (dir / "series.csv").string();
    export_csv(path, result.runs, bluesky());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header,
              "tensor,kernel,format,seconds,gflops,roofline_gflops,"
              "efficiency,variant,obs_flops,obs_bytes,obs_ai,"
              "roofline_pct,mem_peak");
    Size lines = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, result.runs.size());
    fs::remove_all(dir);
}

/// The suite-robustness tests run once per backend: the host CPU and the
/// simulated V100.  Both go through the same suite driver, so each fault,
/// retry and journal path must behave the same on both.
enum class Backend { kCpu, kGpuV100 };

class SuiteBackend : public SuitePipeline,
                     public ::testing::WithParamInterface<Backend> {
  protected:
    SuiteResult run(const std::vector<NamedTensor>& tensors) const
    {
        if (GetParam() == Backend::kCpu)
            return run_cpu_suite(tensors, options_);
        return run_gpu_suite(tensors, gpusim::tesla_v100(), options_);
    }
};

TEST_P(SuiteBackend, InjectedKernelFaultsYieldPartialResults)
{
    FaultGuard guard;
    harness::FaultInjector::instance().configure(
        harness::parse_fault_spec("kernel.run:throw"), 7);
    options_.trial_policy.max_attempts = 1;
    options_.trial_policy.backoff_initial_s = 0.0;
    std::vector<NamedTensor> small(suite_.begin(), suite_.begin() + 2);
    const SuiteResult result = run(small);
    EXPECT_EQ(result.runs.size(), 0u);
    EXPECT_EQ(result.failures.size(), 20u);
    for (const auto& f : result.failures) {
        EXPECT_EQ(f.failure_class, "error");
        EXPECT_NE(f.error.find("injected fault"), std::string::npos);
    }
    // Partial rendering must not crash on fully-missing series.
    print_figure("faulted figure", result.runs, bluesky());
    print_failure_summary(result);
}

TEST_P(SuiteBackend, ProbabilisticFaultsSkipOnlySomeTrials)
{
    FaultGuard guard;
    harness::FaultInjector::instance().configure(
        harness::parse_fault_spec("kernel.run:throw:0.3"), 1234);
    options_.trial_policy.max_attempts = 1;
    std::vector<NamedTensor> small(suite_.begin(), suite_.begin() + 2);
    const SuiteResult result = run(small);
    EXPECT_EQ(result.runs.size() + result.failures.size(), 20u);
    EXPECT_GT(result.runs.size(), 0u);       // 0.3^20 ~ 3.5e-11
    EXPECT_GT(result.failures.size(), 0u);   // 0.7^20 ~ 8e-4
    print_figure("partial figure", result.runs, bluesky());
    print_failure_summary(result);
}

TEST_P(SuiteBackend, RetryRecoversFromTransientFault)
{
    FaultGuard guard;
    // Fires exactly once, on the very first kernel.run hit; the retry
    // must recover it and every later trial is untouched.
    harness::FaultInjector::instance().configure(
        harness::parse_fault_spec("kernel.run:throw@1"), 7);
    options_.trial_policy.max_attempts = 3;
    options_.trial_policy.backoff_initial_s = 0.001;
    std::vector<NamedTensor> small(suite_.begin(), suite_.begin() + 1);
    const SuiteResult result = run(small);
    EXPECT_EQ(result.runs.size(), 10u);
    EXPECT_TRUE(result.complete());
}

TEST_P(SuiteBackend, ContextFaultFailsWholeTensor)
{
    FaultGuard guard;
    harness::FaultInjector::instance().configure(
        harness::parse_fault_spec("alloc:oom"), 7);
    options_.trial_policy.max_attempts = 1;
    std::vector<NamedTensor> small(suite_.begin(), suite_.begin() + 1);
    const SuiteResult result = run(small);
    EXPECT_EQ(result.runs.size(), 0u);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].kernel, "*");
    EXPECT_NE(result.failures[0].error.find("out of memory"),
              std::string::npos);
}

TEST_P(SuiteBackend, JournalResumeSkipsCompletedTrials)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "pasta_journal_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    options_.cache_dir = dir.string();
    options_.journal_stem = "resume_test";
    std::vector<NamedTensor> small(suite_.begin(), suite_.begin() + 2);

    const SuiteResult first = run(small);
    EXPECT_EQ(first.runs.size(), 20u);
    EXPECT_EQ(first.resumed, 0u);
    bool journal_seen = false;
    for (const auto& e : fs::directory_iterator(dir))
        journal_seen = journal_seen ||
                       e.path().string().find("resume_test") !=
                           std::string::npos;
    EXPECT_TRUE(journal_seen);

    // Second invocation must restore every trial without re-measuring.
    const SuiteResult second = run(small);
    EXPECT_EQ(second.runs.size(), 20u);
    EXPECT_EQ(second.resumed, 20u);
    for (const auto& run : first.runs) {
        bool matched = false;
        for (const auto& replay : second.runs)
            if (replay.tensor_id == run.tensor_id &&
                replay.kernel == run.kernel &&
                replay.format == run.format) {
                EXPECT_DOUBLE_EQ(replay.seconds, run.seconds);
                EXPECT_DOUBLE_EQ(replay.cost.flops, run.cost.flops);
                matched = true;
            }
        EXPECT_TRUE(matched);
    }
    fs::remove_all(dir);
}

TEST_P(SuiteBackend, JournalResumeRetriesFailedTrials)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "pasta_journal_retry_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    options_.cache_dir = dir.string();
    options_.journal_stem = "retry_test";
    options_.trial_policy.max_attempts = 1;
    std::vector<NamedTensor> small(suite_.begin(), suite_.begin() + 1);

    {
        FaultGuard guard;
        harness::FaultInjector::instance().configure(
            harness::parse_fault_spec("kernel.run:throw"), 7);
        const SuiteResult faulted = run(small);
        EXPECT_EQ(faulted.failures.size(), 10u);
    }
    // Faults cleared: the rerun retries everything the journal marked
    // failed and completes the campaign.
    const SuiteResult recovered = run(small);
    EXPECT_EQ(recovered.runs.size(), 10u);
    EXPECT_EQ(recovered.resumed, 0u);
    EXPECT_TRUE(recovered.complete());
    fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SuiteBackend,
    ::testing::Values(Backend::kCpu, Backend::kGpuV100),
    [](const ::testing::TestParamInfo<Backend>& info) {
        return std::string(info.param == Backend::kCpu ? "cpu" : "v100");
    });

TEST_F(SuitePipeline, CostModelMatchesAcrossBackendsAndTableI)
{
    // The Table I cost of every cell depends only on the tensor, never on
    // the backend, and equals kernel_cost over compute_stats: the per-
    // mode mean for TTV/TTM (M_F differs per mode), kNoMode otherwise.
    std::vector<NamedTensor> picked;
    for (const auto& entry : suite_)
        if (entry.id == "r1" || entry.id == "r2" || entry.id == "r3" ||
            entry.id == "s6")
            picked.push_back(entry);
    ASSERT_EQ(picked.size(), 4u);
    const SuiteResult cpu = run_cpu_suite(picked, options_);
    const SuiteResult gpu =
        run_gpu_suite(picked, gpusim::tesla_v100(), options_);
    ASSERT_EQ(cpu.runs.size(), 40u);
    ASSERT_EQ(gpu.runs.size(), 40u);
    for (std::size_t i = 0; i < cpu.runs.size(); ++i) {
        const MeasuredRun& c = cpu.runs[i];
        const MeasuredRun& g = gpu.runs[i];
        ASSERT_EQ(c.tensor_id, g.tensor_id);
        ASSERT_EQ(c.kernel, g.kernel);
        ASSERT_EQ(c.format, g.format);
        const CooTensor* x = nullptr;
        for (const auto& entry : picked)
            if (entry.id == c.tensor_id)
                x = &entry.tensor;
        ASSERT_NE(x, nullptr);
        KernelCost oracle;
        if (c.kernel == Kernel::kTtv || c.kernel == Kernel::kTtm) {
            const Size order = x->order();
            for (Size mode = 0; mode < order; ++mode) {
                const KernelCost m = kernel_cost(
                    c.kernel, c.format,
                    compute_stats(*x, mode, options_.block_bits),
                    options_.rank);
                oracle.flops += m.flops / order;
                oracle.bytes += m.bytes / order;
            }
        } else {
            oracle = kernel_cost(
                c.kernel, c.format,
                compute_stats(*x, kNoMode, options_.block_bits),
                options_.rank);
        }
        const std::string cell = c.tensor_id + " " +
                                 kernel_name(c.kernel) + "/" +
                                 format_name(c.format);
        EXPECT_EQ(c.cost.flops, g.cost.flops) << cell;
        EXPECT_EQ(c.cost.bytes, g.cost.bytes) << cell;
        EXPECT_EQ(c.cost.flops, oracle.flops) << cell;
        EXPECT_EQ(c.cost.bytes, oracle.bytes) << cell;
    }
}

TEST(CsvEnv, MaybeExportRespectsEnvVar)
{
    ::unsetenv("PASTA_CSV_DIR");
    // No env: must be a silent no-op.
    maybe_export_csv("noop", std::vector<MeasuredRun>{}, bluesky());
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "pasta_csv_env";
    fs::create_directories(dir);
    ::setenv("PASTA_CSV_DIR", dir.c_str(), 1);
    maybe_export_csv("series", std::vector<MeasuredRun>{}, bluesky());
    EXPECT_TRUE(fs::exists(dir / "series.csv"));
    ::unsetenv("PASTA_CSV_DIR");
    fs::remove_all(dir);
}

TEST(CsvEnv, SuiteResultExportWritesFailuresCsv)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "pasta_csv_fail";
    fs::remove_all(dir);
    fs::create_directories(dir);
    ::setenv("PASTA_CSV_DIR", dir.c_str(), 1);
    SuiteResult result;
    result.failures.push_back({"r1", "TTV", "COO",
                               "injected fault, with comma", 2, "error"});
    maybe_export_csv("faulty", result, bluesky());
    EXPECT_TRUE(fs::exists(dir / "faulty.csv"));
    ASSERT_TRUE(fs::exists(dir / "faulty_failures.csv"));
    std::ifstream in(dir / "faulty_failures.csv");
    std::string header, row;
    std::getline(in, header);
    EXPECT_EQ(header, "tensor,kernel,format,class,attempts,error");
    std::getline(in, row);
    EXPECT_EQ(row, "r1,TTV,COO,error,2,injected fault; with comma");
    ::unsetenv("PASTA_CSV_DIR");
    fs::remove_all(dir);
}

}  // namespace
}  // namespace pasta::bench
