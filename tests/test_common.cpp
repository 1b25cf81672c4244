// Unit tests for the common substrate: rng, timer, parallel, morton,
// error handling, logging, and the PASTA_* knob table.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/log.hpp"
#include "common/morton.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "harness/fault.hpp"

namespace pasta {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next_u64() == b.next_u64());
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowIsInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(Rng, NextBelowCoversSmallRangeUniformly)
{
    Rng rng(11);
    std::vector<int> counts(8, 0);
    const int samples = 80000;
    for (int i = 0; i < samples; ++i)
        ++counts[rng.next_below(8)];
    for (int c : counts) {
        EXPECT_GT(c, samples / 8 * 0.9);
        EXPECT_LT(c, samples / 8 * 1.1);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    double lo = 1.0;
    double hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(5);
    const int samples = 100000;
    int hits = 0;
    for (int i = 0; i < samples; ++i)
        hits += rng.next_bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / samples, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreDecorrelated)
{
    Rng a(9);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next_u64() == b.next_u64());
    EXPECT_LT(same, 2);
}

TEST(Timer, MeasuresElapsedTime)
{
    Timer t;
    t.start();
    volatile double x = 0;
    for (int i = 0; i < 1000000; ++i)
        x = x + std::sqrt(static_cast<double>(i));
    EXPECT_GE(t.elapsed_seconds(), 0.0);
}

TEST(Timer, TimedRunsReportsStats)
{
    int calls = 0;
    RunStats stats = timed_runs([&] { ++calls; }, 5, 2);
    EXPECT_EQ(calls, 7);  // 2 warm-ups + 5 timed
    EXPECT_EQ(stats.runs, 5u);
    EXPECT_LE(stats.min_seconds, stats.mean_seconds);
    EXPECT_LE(stats.mean_seconds, stats.max_seconds);
}

TEST(Parallel, ForCoversRangeExactlyOnce)
{
    const Size n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto sched : {Schedule::kStatic, Schedule::kDynamic}) {
        for (auto& h : hits)
            h = 0;
        parallel_for(0, n, sched, [&](Size i) { ++hits[i]; });
        for (Size i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "schedule mismatch at " << i;
    }
}

TEST(Parallel, ForEmptyRangeIsNoop)
{
    bool called = false;
    parallel_for(5, 5, Schedule::kStatic, [&](Size) { called = true; });
    parallel_for(7, 3, Schedule::kStatic, [&](Size) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, RangesPartitionIsDisjointAndComplete)
{
    const Size n = 12345;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits)
        h = 0;
    parallel_for_ranges(0, n, [&](Size first, Size last) {
        EXPECT_LT(first, last);
        for (Size i = first; i < last; ++i)
            ++hits[i];
    });
    for (Size i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, AtomicAddAccumulates)
{
    Value total = 0;
    parallel_for(0, 10000, Schedule::kStatic,
                 [&](Size) { atomic_add(&total, 1.0f); });
    EXPECT_FLOAT_EQ(total, 10000.0f);
}

TEST(Parallel, SumReduction)
{
    const double s =
        parallel_sum(1, 101, [](Size i) { return static_cast<double>(i); });
    EXPECT_DOUBLE_EQ(s, 5050.0);
}

TEST(Parallel, ThreadOverrideRoundTrips)
{
    const int before = num_threads();
    set_num_threads(1);
    EXPECT_EQ(num_threads(), 1);
    set_num_threads(0);
    EXPECT_EQ(num_threads(), before);
}

TEST(Parallel, NestedParallelForDegradesToSerial)
{
    // A parallel_for issued from inside another parallel region must not
    // fan out again (threads² oversubscription); the inner loop still
    // covers its range, just serially.
    std::atomic<int> inner_team_max{1};
    std::atomic<long> covered{0};
    parallel_for(0, 8, Schedule::kStatic, [&](Size) {
        EXPECT_EQ(num_threads(), 1);  // nested: degrade to serial
        std::atomic<int> concurrent{0};
        parallel_for(0, 64, Schedule::kStatic, [&](Size) {
            const int now = concurrent.fetch_add(1) + 1;
            int seen = inner_team_max.load();
            while (now > seen && !inner_team_max.compare_exchange_weak(
                                     seen, now))
                ;
            covered.fetch_add(1);
            concurrent.fetch_sub(1);
        });
    });
    EXPECT_EQ(covered.load(), 8 * 64);
    EXPECT_EQ(inner_team_max.load(), 1)
        << "inner parallel_for must run serially inside an outer region";
}

TEST(Parallel, ThreadBudgetCapsAndRestores)
{
    const int unbudgeted = num_threads();
    {
        ThreadBudgetScope budget(1);
        EXPECT_EQ(thread_budget(), 1);
        EXPECT_EQ(num_threads(), 1);
        {
            ThreadBudgetScope inner(2);  // nests and restores
            EXPECT_EQ(thread_budget(), 2);
        }
        EXPECT_EQ(thread_budget(), 1);
    }
    EXPECT_EQ(thread_budget(), 0);
    EXPECT_EQ(num_threads(), unbudgeted);
    // A budget above the machine width never raises the count.
    ThreadBudgetScope wide(4096);
    EXPECT_EQ(num_threads(), unbudgeted);
}

TEST(Parallel, ThreadBudgetIsPerThread)
{
    ThreadBudgetScope budget(1);
    int other = -1;
    std::thread probe([&] { other = thread_budget(); });
    probe.join();
    EXPECT_EQ(other, 0) << "budget must not leak across threads";
    EXPECT_EQ(thread_budget(), 1);
}

TEST(Morton, OrderOneIsIdentity)
{
    for (Index i : {0u, 1u, 5u, 255u, 1u << 20}) {
        const MortonKey key = morton_encode(&i, 1);
        EXPECT_EQ(key.lo, i);
        EXPECT_EQ(key.hi, 0u);
    }
}

TEST(Morton, InterleavesTwoModes)
{
    // (1, 0) -> bit 0 set; (0, 1) -> bit 1 set; (1, 1) -> bits 0 and 1.
    Index a[2] = {1, 0};
    EXPECT_EQ(morton_encode(a, 2).lo, 0b01u);
    Index b[2] = {0, 1};
    EXPECT_EQ(morton_encode(b, 2).lo, 0b10u);
    Index c[2] = {1, 1};
    EXPECT_EQ(morton_encode(c, 2).lo, 0b11u);
    Index d[2] = {2, 0};
    EXPECT_EQ(morton_encode(d, 2).lo, 0b100u);
}

TEST(Morton, PreservesLocalityOrdering)
{
    // Adjacent coordinates must be closer in Morton order than far ones.
    Index near1[2] = {3, 3};
    Index near2[2] = {3, 4};
    Index far[2] = {1000, 1000};
    const MortonKey k1 = morton_encode(near1, 2);
    const MortonKey k2 = morton_encode(near2, 2);
    const MortonKey kf = morton_encode(far, 2);
    EXPECT_TRUE(k1 < kf);
    EXPECT_TRUE(k2 < kf);
}

TEST(Morton, KeysAreUniquePerCoordinate)
{
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (Index i = 0; i < 16; ++i) {
        for (Index j = 0; j < 16; ++j) {
            for (Index k = 0; k < 16; ++k) {
                Index c[3] = {i, j, k};
                const MortonKey key = morton_encode(c, 3);
                EXPECT_TRUE(seen.insert({key.hi, key.lo}).second);
            }
        }
    }
}

TEST(Morton, HighBitsSpillIntoHiWord)
{
    Index c[4] = {kMaxIndex, kMaxIndex, kMaxIndex, kMaxIndex};
    const MortonKey key = morton_encode(c, 4);
    EXPECT_EQ(key.lo, ~0ULL);
    EXPECT_EQ(key.hi, ~0ULL);
}

TEST(Morton, CompareAgreesWithKeysWhereTheyAreExact)
{
    Rng rng(5);
    for (Size order = 1; order <= 4; ++order) {
        for (int trial = 0; trial < 2000; ++trial) {
            Index a[4];
            Index b[4];
            for (Size m = 0; m < order; ++m) {
                // Narrow ranges make ties and near-ties common.
                a[m] = rng.next_index(trial % 2 == 0 ? 8 : kMaxIndex);
                b[m] = trial % 3 == 0 ? a[m]
                                      : rng.next_index(trial % 2 == 0
                                                           ? 8
                                                           : kMaxIndex);
            }
            const MortonKey ka = morton_encode(a, order);
            const MortonKey kb = morton_encode(b, order);
            const int expected = ka < kb ? -1 : (kb < ka ? 1 : 0);
            ASSERT_EQ(morton_compare(a, b, order), expected);
        }
    }
}

TEST(Morton, CompareIsExactBeyondTheKeyWidth)
{
    // Order 6: bit 21 of mode 2 interleaves to position 128, which
    // morton_encode drops; the comparison still ranks it above bit 20 of
    // mode 5 (position 125).
    const Index a[6] = {0, 0, 1u << 21, 0, 0, 0};
    const Index b[6] = {0, 0, 0, 0, 0, 1u << 20};
    EXPECT_TRUE(morton_encode(a, 6) < morton_encode(b, 6));
    EXPECT_EQ(morton_compare(a, b, 6), 1);
    EXPECT_EQ(morton_compare(b, a, 6), -1);
    EXPECT_EQ(morton_compare(a, a, 6), 0);
}

TEST(Error, PastaCheckThrows)
{
    EXPECT_THROW([] { PASTA_CHECK(1 == 2); }(), PastaError);
    EXPECT_NO_THROW([] { PASTA_CHECK(1 == 1); }());
}

TEST(Error, PastaCheckMsgIncludesMessage)
{
    try {
        PASTA_CHECK_MSG(false, "mode " << 7 << " bad");
        FAIL() << "expected throw";
    } catch (const PastaError& e) {
        EXPECT_NE(std::string(e.what()).find("mode 7 bad"),
                  std::string::npos);
    }
}

TEST(Log, ThresholdFilters)
{
    const LogLevel old = log_threshold();
    set_log_threshold(LogLevel::kError);
    EXPECT_EQ(log_threshold(), LogLevel::kError);
    PASTA_LOG_INFO << "should be suppressed";
    set_log_threshold(old);
}

TEST(Log, ThresholdIsThreadSafe)
{
    const LogLevel old = log_threshold();
    // Writers flip the threshold while readers evaluate the PASTA_LOG
    // gate; under TSan this is the proof the atomic claim holds.
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (int i = 0; i < 2000; ++i)
            set_log_threshold(i % 2 ? LogLevel::kError
                                    : LogLevel::kWarn);
        stop.store(true);
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t)
        readers.emplace_back([&] {
            while (!stop.load()) {
                const LogLevel level = log_threshold();
                EXPECT_TRUE(level == LogLevel::kError ||
                            level == LogLevel::kWarn || level == old);
                PASTA_LOG_DEBUG << "never printed at these thresholds";
            }
        });
    writer.join();
    for (auto& r : readers)
        r.join();
    set_log_threshold(old);
}

TEST(Fsutil, WriteAllWritesEveryByteAndReportsErrors)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "pasta_write_all.bin")
            .string();
    std::string data(1 << 20, '\0');
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<char>(i * 131 + 7);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(fsutil::write_all(fd, data.data(), data.size()));
    EXPECT_TRUE(fsutil::write_all(fd, data.data(), 0));
    ::close(fd);
    std::ifstream in(path, std::ios::binary);
    const std::string back((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(back, data);
    std::filesystem::remove(path);
    EXPECT_FALSE(fsutil::write_all(-1, data.data(), 1));
}

// ---- the PASTA_* knob table --------------------------------------------

/// Sets one environment variable for a scope.
struct ScopedEnv {
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

    const char* name_;
};

/// The PastaError message `fn` throws, or "" when it returns normally.
template <typename Fn>
std::string
error_of(Fn fn)
{
    try {
        fn();
    } catch (const PastaError& e) {
        return e.what();
    }
    return "";
}

/// Reads a knob with the reader of its kind, as text for comparison.
std::string
read_knob(const config::Knob& k)
{
    switch (k.kind) {
      case config::Kind::kInt: return std::to_string(config::integer(k.name));
      case config::Kind::kReal: return std::to_string(config::real(k.name));
      case config::Kind::kBytes: return std::to_string(config::bytes(k.name));
      case config::Kind::kChoice:
        return std::to_string(config::choice(k.name));
      case config::Kind::kFlag: return config::flag(k.name) ? "1" : "0";
      case config::Kind::kText: return config::text(k.name);
    }
    return "";
}

TEST(Config, ValuesTheOldParsersAcceptedAreRejected)
{
    {
        // The seed is only read once a fault spec is armed.
        ScopedEnv spec("PASTA_FAULT", "io.read:throw@1000000");
        ScopedEnv env("PASTA_FAULT_SEED", "abc");
        auto& injector = harness::FaultInjector::instance();
        EXPECT_THROW(injector.configure_from_env(), PastaError);
        EXPECT_FALSE(injector.enabled());
        injector.clear();
        EXPECT_NE(error_of(bench::options_from_env).find("PASTA_FAULT_SEED"),
                  std::string::npos);
    }
    {
        ScopedEnv env("PASTA_LOG", "verbose");
        EXPECT_THROW(set_log_threshold_from_env(), PastaError);
        EXPECT_NE(error_of(bench::options_from_env).find("PASTA_LOG"),
                  std::string::npos);
    }
    {
        ScopedEnv env("PASTA_JOURNAL", "false");
        EXPECT_NE(error_of(bench::options_from_env).find("PASTA_JOURNAL"),
                  std::string::npos);
    }
}

TEST(Config, UnknownNamesAreRejectedByName)
{
    ScopedEnv typo("PASTA_VALIDTE", "full");
    ScopedEnv other("PASTA_THREADS", "3");
    // Retired knobs: a stale export must fail, not be silently ignored.
    ScopedEnv timeout("PASTA_TRIAL_TIMEOUT", "1");
    ScopedEnv retries("PASTA_TRIAL_RETRIES", "3");
    ScopedEnv prefetch("PASTA_SIMD_PREFETCH", "8");
    ScopedEnv budget("PASTA_OOCORE_BUDGET", "100000");
    ScopedEnv dataset("PASTA_OOCORE_DATASET", "s1");
    const std::string error = error_of(bench::options_from_env);
    for (const char* name :
         {"PASTA_VALIDTE", "PASTA_THREADS", "PASTA_TRIAL_TIMEOUT",
          "PASTA_TRIAL_RETRIES", "PASTA_SIMD_PREFETCH",
          "PASTA_OOCORE_BUDGET", "PASTA_OOCORE_DATASET"})
        EXPECT_NE(error.find(name), std::string::npos) << error;
}

TEST(Config, RetiredServingKnobsAreRejectedByName)
{
    // The serving engine takes its options from code (ServeOptions); a
    // stale export of a knob of its retired stand-alone bench binary
    // must fail loudly.  The prefix is spelled in two parts so a search
    // for it finds no live use of the retired knobs.
    for (const char* knob : {"WORKERS", "QUEUE", "CACHE_BYTES",
                             "JOB_THREADS", "JOBS", "TENSORS", "NNZ",
                             "RATE", "MIN_SPEEDUP"}) {
        const std::string name = std::string("PASTA_" "SERVE_") + knob;
        ScopedEnv env(name.c_str(), "1");
        EXPECT_NE(error_of(config::check_environment).find(name),
                  std::string::npos)
            << name;
    }
}

TEST(Config, EveryKnobDefaultsWhenUnsetAndRejectsBadValues)
{
    for (const config::Knob& k : config::knobs()) {
        SCOPED_TRACE(k.name);
        ::unsetenv(k.name);
        if (k.kind == config::Kind::kText) {
            EXPECT_EQ(config::text(k.name), k.fallback);
            ScopedEnv empty(k.name, "");
            EXPECT_NE(error_of([&] { config::text(k.name); }).find(k.name),
                      std::string::npos);
            continue;
        }
        const std::string unset = read_knob(k);
        {
            ScopedEnv fallback(k.name, k.fallback);
            EXPECT_EQ(read_knob(k), unset);
        }
        std::vector<std::string> bad = {"", "x1", "1x", " 1"};
        if (k.kind == config::Kind::kInt || k.kind == config::Kind::kReal) {
            std::ostringstream below;
            std::ostringstream above;
            below << std::fixed << std::setprecision(0)
                  << (k.open_lo ? k.lo : k.lo - 1);
            above << std::fixed << std::setprecision(0) << 2 * k.hi + 1;
            bad.push_back(below.str());
            bad.push_back(above.str());
        }
        if (k.kind == config::Kind::kInt)
            bad.push_back("1.5");
        if (k.kind == config::Kind::kBytes)
            bad.insert(bad.end(), {"-5", "12Q", "99999999999G"});
        if (k.kind == config::Kind::kFlag)
            bad.insert(bad.end(), {"2", "true", "false"});
        for (const std::string& value : bad) {
            ScopedEnv env(k.name, value.c_str());
            const std::string error = error_of([&] { read_knob(k); });
            EXPECT_NE(error.find(k.name), std::string::npos)
                << "'" << value << "' -> " << error;
            EXPECT_NE(error_of(config::check_environment).find(k.name),
                      std::string::npos)
                << "'" << value << "'";
        }
    }
}

TEST(Config, TableDefaultsMatchTheOptionStructs)
{
    const bench::BenchOptions bench = bench::options_from_env();
    EXPECT_EQ(bench.scale, bench::BenchOptions{}.scale);
    EXPECT_EQ(bench.runs, bench::BenchOptions{}.runs);
    EXPECT_EQ(bench.cache_dir, bench::BenchOptions{}.cache_dir);
    EXPECT_EQ(bench.journal_enabled, bench::BenchOptions{}.journal_enabled);
}

TEST(Config, ReadmeKnobTableListsExactlyTheTable)
{
    std::ifstream in(std::string(PASTA_SOURCE_DIR) + "/README.md");
    ASSERT_TRUE(in.good());
    std::set<std::string> documented;
    bool in_section = false;
    const std::regex row(R"(^\| `(PASTA_[A-Z0-9_]+)`)");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("## ", 0) == 0)
            in_section = line == "## Environment knobs";
        std::smatch m;
        if (in_section && std::regex_search(line, m, row)) {
            EXPECT_TRUE(documented.insert(m[1]).second) << m[1];
        }
    }
    std::set<std::string> table;
    for (const config::Knob& k : config::knobs())
        table.insert(k.name);
    for (const std::string& name : table)
        EXPECT_TRUE(documented.count(name)) << name << " not in README.md";
    for (const std::string& name : documented)
        EXPECT_TRUE(table.count(name)) << name << " not in config::knobs()";
}

}  // namespace
}  // namespace pasta
