// Tests for the robustness harness itself: fault-spec parsing and
// deterministic injection, guarded trial retry/timeout semantics, the
// JSONL run journal (including torn-line tolerance), and corrupt-cache
// regeneration through TensorRegistry.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "harness/fault.hpp"
#include "harness/journal.hpp"
#include "harness/trial.hpp"
#include "io/binary_io.hpp"
#include "io/registry.hpp"

namespace pasta::harness {
namespace {

struct FaultGuard {
    ~FaultGuard() { FaultInjector::instance().clear(); }
};

// ---------------------------------------------------------------------
// Fault spec parsing
// ---------------------------------------------------------------------

TEST(FaultSpecParse, AcceptsFullGrammar)
{
    const FaultSpec spec =
        parse_fault_spec("io.read:throw:0.1,kernel.run:hang@3,alloc:oom");
    ASSERT_EQ(spec.rules.size(), 3u);
    EXPECT_EQ(spec.rules[0].point, "io.read");
    EXPECT_EQ(spec.rules[0].action, FaultAction::kThrow);
    EXPECT_DOUBLE_EQ(spec.rules[0].probability, 0.1);
    EXPECT_EQ(spec.rules[0].at, 0u);
    EXPECT_EQ(spec.rules[1].point, "kernel.run");
    EXPECT_EQ(spec.rules[1].action, FaultAction::kHang);
    EXPECT_EQ(spec.rules[1].at, 3u);
    EXPECT_EQ(spec.rules[2].action, FaultAction::kOom);
    EXPECT_DOUBLE_EQ(spec.rules[2].probability, 1.0);
}

TEST(FaultSpecParse, RejectsMalformedSpecs)
{
    const char* bad[] = {
        "kernel.run",              // missing action
        "kernel.run:explode",      // unknown action
        "warp.drive:throw",        // unknown point
        "kernel.run:throw:1.5",    // probability out of range
        "kernel.run:throw:-0.1",   // negative probability
        "kernel.run:throw:x",      // non-numeric probability
        "kernel.run:throw@0",      // @N is 1-based
        "kernel.run:throw@x",      // non-numeric hit index
        ",",                       // empty rule
        "kernel.run:throw:0.5:9",  // trailing junk
    };
    for (const char* spec : bad)
        EXPECT_THROW(parse_fault_spec(spec), PastaError) << spec;
}

TEST(FaultSpecParse, KnownPointsCoverTheInstrumentedSet)
{
    const auto& points = known_fault_points();
    for (const char* expected : {"io.read", "cache.load", "alloc",
                                 "kernel.run"}) {
        bool found = false;
        for (const auto& p : points)
            found = found || p == expected;
        EXPECT_TRUE(found) << expected;
    }
}

// ---------------------------------------------------------------------
// Injection behaviour
// ---------------------------------------------------------------------

TEST(FaultInjection, DisarmedInjectorIsFree)
{
    FaultInjector::instance().clear();
    EXPECT_FALSE(FaultInjector::instance().enabled());
    fault_point("kernel.run");  // must be a no-op
}

TEST(FaultInjection, AlwaysRuleThrowsAtItsPointOnly)
{
    FaultGuard guard;
    FaultInjector::instance().configure(
        parse_fault_spec("kernel.run:throw"));
    fault_point("io.read");  // other points unaffected
    EXPECT_THROW(fault_point("kernel.run"), PastaError);
}

TEST(FaultInjection, OomRuleThrowsBadAlloc)
{
    FaultGuard guard;
    FaultInjector::instance().configure(parse_fault_spec("alloc:oom"));
    EXPECT_THROW(fault_point("alloc"), std::bad_alloc);
}

TEST(FaultInjection, AtNFiresOnExactlyTheNthHit)
{
    FaultGuard guard;
    FaultInjector::instance().configure(
        parse_fault_spec("io.read:throw@3"));
    fault_point("io.read");
    fault_point("io.read");
    EXPECT_THROW(fault_point("io.read"), PastaError);
    fault_point("io.read");  // 4th hit: silent again
    EXPECT_EQ(FaultInjector::instance().hits("io.read"), 4u);
}

TEST(FaultInjection, ProbabilityStreamIsDeterministicPerSeed)
{
    FaultGuard guard;
    const auto sample = [](std::uint64_t seed) {
        FaultInjector::instance().configure(
            parse_fault_spec("kernel.run:throw:0.5"), seed);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i) {
            bool f = false;
            try {
                fault_point("kernel.run");
            } catch (const PastaError&) {
                f = true;
            }
            fired.push_back(f);
        }
        return fired;
    };
    const auto a = sample(42);
    const auto b = sample(42);
    const auto c = sample(43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    int fires = 0;
    for (bool f : a)
        fires += f ? 1 : 0;
    EXPECT_GT(fires, 16);  // p=0.5 over 64 draws
    EXPECT_LT(fires, 48);
}

TEST(FaultInjection, HangRuleSleepsForConfiguredSeconds)
{
    FaultGuard guard;
    FaultSpec spec = parse_fault_spec("kernel.run:hang");
    spec.rules[0].hang_seconds = 0.1;
    FaultInjector::instance().configure(spec);
    Timer timer;
    timer.start();
    fault_point("kernel.run");
    EXPECT_GE(timer.elapsed_seconds(), 0.08);
}

// ---------------------------------------------------------------------
// Guarded trials
// ---------------------------------------------------------------------

TEST(GuardedTrial, SuccessfulBodyReportsSeconds)
{
    TrialPolicy policy;
    const TrialResult r =
        run_guarded_trial("ok", [] { return 0.125; }, policy);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.skipped);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_DOUBLE_EQ(r.seconds, 0.125);
}

TEST(GuardedTrial, RetriesThenSucceeds)
{
    TrialPolicy policy;
    policy.max_attempts = 3;
    policy.backoff_initial_s = 0.001;
    int calls = 0;
    const TrialResult r = run_guarded_trial(
        "flaky",
        [&calls]() -> double {
            if (++calls < 3)
                throw PastaError("transient");
            return 1.0;
        },
        policy);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.attempts, 3);
    EXPECT_EQ(calls, 3);
}

TEST(GuardedTrial, ExhaustedRetriesReportLastError)
{
    TrialPolicy policy;
    policy.max_attempts = 2;
    policy.backoff_initial_s = 0.001;
    int calls = 0;
    const TrialResult r = run_guarded_trial(
        "doomed",
        [&calls]() -> double {
            ++calls;
            throw PastaError("permanent failure");
        },
        policy);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.skipped);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(r.attempts, 2);
    EXPECT_EQ(calls, 2);
    EXPECT_NE(r.error.find("permanent failure"), std::string::npos);
}

TEST(GuardedTrial, BadAllocIsCaughtAndRetried)
{
    TrialPolicy policy;
    policy.max_attempts = 2;
    policy.backoff_initial_s = 0.001;
    int calls = 0;
    const TrialResult r = run_guarded_trial(
        "oom",
        [&calls]() -> double {
            if (++calls < 2)
                throw std::bad_alloc();
            return 2.0;
        },
        policy);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.attempts, 2);
}

TEST(GuardedTrial, WatchdogMarksHungTrialSkipped)
{
    TrialPolicy policy;
    policy.timeout_seconds = 0.2;
    policy.max_attempts = 3;  // timeout must be terminal regardless
    Timer timer;
    timer.start();
    const TrialResult r = run_guarded_trial(
        "hung",
        []() -> double {
            // Sleep well past the watchdog; runs on a detached worker.
            Deadline deadline(2.0);
            while (!deadline.expired())
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            return 0.0;
        },
        policy);
    const double waited = timer.elapsed_seconds();
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.skipped);
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.attempts, 1);  // no retry after a timeout
    EXPECT_LT(waited, 1.5);    // returned before the body finished
}

TEST(GuardedTrial, WatchdogPassesFastTrialsThrough)
{
    TrialPolicy policy;
    policy.timeout_seconds = 5.0;
    const TrialResult r =
        run_guarded_trial("fast", [] { return 0.5; }, policy);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.timed_out);
    EXPECT_DOUBLE_EQ(r.seconds, 0.5);
}

// ---------------------------------------------------------------------
// Run journal
// ---------------------------------------------------------------------

TEST(Journal, EntryJsonRoundTrips)
{
    JournalEntry entry;
    entry.tensor_id = "r7";
    entry.kernel = "MTTKRP";
    entry.format = "HiCOO";
    entry.ok = false;
    entry.seconds = 1.25e-4;
    entry.flops = 4.2e6;
    entry.bytes = 8.1e6;
    entry.attempts = 3;
    entry.error = "path \"with\\quotes\"\nand newline";
    JournalEntry parsed;
    ASSERT_TRUE(parse_json_line(to_json_line(entry), parsed));
    EXPECT_EQ(parsed.tensor_id, entry.tensor_id);
    EXPECT_EQ(parsed.kernel, entry.kernel);
    EXPECT_EQ(parsed.format, entry.format);
    EXPECT_EQ(parsed.ok, entry.ok);
    EXPECT_DOUBLE_EQ(parsed.seconds, entry.seconds);
    EXPECT_DOUBLE_EQ(parsed.flops, entry.flops);
    EXPECT_DOUBLE_EQ(parsed.bytes, entry.bytes);
    EXPECT_EQ(parsed.attempts, entry.attempts);
    EXPECT_EQ(parsed.error, entry.error);
}

TEST(Journal, ParseRejectsTornAndMalformedLines)
{
    JournalEntry entry;
    EXPECT_FALSE(parse_json_line("", entry));
    EXPECT_FALSE(parse_json_line("{\"tensor\":\"r1\",\"ker", entry));
    EXPECT_FALSE(parse_json_line("not json at all", entry));
    EXPECT_FALSE(parse_json_line("{\"kernel\":\"TTV\"}", entry));
}

/// A fully populated entry whose serialized bytes are pinned below.
JournalEntry
golden_entry()
{
    JournalEntry e;
    e.tensor_id = "r7";
    e.kernel = "MTTKRP";
    e.format = "HiCOO";
    e.ok = true;
    e.seconds = 1.25e-4;
    e.flops = 4.2e6;
    e.bytes = 8.1e6;
    e.attempts = 3;
    e.error = "path \"q\"\\x\nline\ttab\x01";
    e.failure_class = "error";
    e.variant = "atomic_avx2";
    e.obs_flops = 1234.5;
    e.obs_bytes = 0.1;
    e.mem_peak = 65536;
    e.partitions_done = 2;
    e.partitions_total = 8;
    return e;
}

TEST(Journal, LineBytesArePinned)
{
    // Journals written by earlier builds must stay byte-comparable with
    // new ones: field order, %.17g doubles, escapes.
    JournalEntry e = golden_entry();
    EXPECT_EQ(to_json_line(e),
              "{\"tensor\":\"r7\",\"kernel\":\"MTTKRP\",\"format\":\"HiCOO\","
              "\"ok\":true,\"seconds\":0.000125,\"flops\":4200000,"
              "\"bytes\":8100000,\"attempts\":3,"
              "\"error\":\"path \\\"q\\\"\\\\x\\nline\\ttab\\u0001\","
              "\"class\":\"error\",\"variant\":\"atomic_avx2\","
              "\"obs_flops\":1234.5,\"obs_bytes\":0.10000000000000001,"
              "\"mem_peak\":65536,\"partitions_done\":2,"
              "\"partitions_total\":8}");
    e.ok = false;
    e.seconds = 3.0;
    e.attempts = -1;
    EXPECT_EQ(to_json_line(e),
              "{\"tensor\":\"r7\",\"kernel\":\"MTTKRP\",\"format\":\"HiCOO\","
              "\"ok\":false,\"seconds\":3,\"flops\":4200000,"
              "\"bytes\":8100000,\"attempts\":-1,"
              "\"error\":\"path \\\"q\\\"\\\\x\\nline\\ttab\\u0001\","
              "\"class\":\"error\",\"variant\":\"atomic_avx2\","
              "\"obs_flops\":1234.5,\"obs_bytes\":0.10000000000000001,"
              "\"mem_peak\":65536,\"partitions_done\":2,"
              "\"partitions_total\":8}");
    JournalEntry back;
    ASSERT_TRUE(parse_json_line(to_json_line(e), back));
    EXPECT_EQ(back.error, e.error);
    EXPECT_EQ(back.attempts, -1);
    EXPECT_EQ(back.partitions_total, 8);
    EXPECT_DOUBLE_EQ(back.obs_bytes, 0.1);
    // Unknown fields, such as the "shard" older builds wrote, are
    // ignored, so old journals still load.
    ASSERT_TRUE(parse_json_line(
        "{\"tensor\":\"r7\",\"kernel\":\"TTV\",\"format\":\"COO\","
        "\"ok\":true,\"shard\":\"s1.MTTKRP.p0-8\"}",
        back));
    EXPECT_EQ(back.kernel, "TTV");
}

TEST(Journal, UnicodeEscapesDecodeToUtf8)
{
    JournalEntry entry;
    ASSERT_TRUE(parse_json_line(
        "{\"tensor\":\"caf\\u00e9\",\"kernel\":\"TTV\",\"format\":\"COO\","
        "\"ok\":true,\"error\":\"\\ud83d\\ude00 \\u20ac\"}",
        entry));
    EXPECT_EQ(entry.tensor_id, "caf\xc3\xa9");
    EXPECT_EQ(entry.error, "\xf0\x9f\x98\x80 \xe2\x82\xac");
    // A lone surrogate encodes nothing: the line is malformed.
    EXPECT_FALSE(parse_json_line(
        "{\"tensor\":\"\\ud83d\",\"kernel\":\"TTV\",\"format\":\"COO\","
        "\"ok\":true}",
        entry));
    EXPECT_FALSE(parse_json_line(
        "{\"tensor\":\"\\ude00x\",\"kernel\":\"TTV\",\"format\":\"COO\","
        "\"ok\":true}",
        entry));
}

TEST(Journal, RejectsNonJsonNumbers)
{
    const std::string head =
        "{\"tensor\":\"r1\",\"kernel\":\"TTV\",\"format\":\"COO\","
        "\"ok\":true,";
    JournalEntry entry;
    ASSERT_TRUE(parse_json_line(head + "\"seconds\":16}", entry));
    for (const char* bad : {"\"seconds\":nan}", "\"seconds\":0x10}",
                            "\"attempts\":inf}", "\"seconds\":-inf}",
                            "\"seconds\":+1}", "\"seconds\":.5}",
                            "\"seconds\":01}", "\"attempts\":1e300}",
                            "\"attempts\":\"3\"}"})
        EXPECT_FALSE(parse_json_line(head + bad, entry)) << bad;
}

TEST(Journal, ReplaySkipsOrTruncatesLinesWithNonJsonNumbers)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "pasta_journal_nan";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "nan.journal.jsonl").string();
    const std::string good_a = to_json_line(
        JournalEntry{"r1", "TEW", "COO", true, 0.5, 1e6, 2e6, 1, ""});
    const std::string interior =
        "{\"tensor\":\"r1\",\"kernel\":\"TS\",\"format\":\"COO\","
        "\"ok\":true,\"seconds\":nan}";
    const std::string good_b = to_json_line(
        JournalEntry{"r1", "TTV", "COO", true, 0.25, 1e6, 2e6, 1, ""});
    const std::string final_line =
        "{\"tensor\":\"r1\",\"kernel\":\"TTM\",\"format\":\"COO\","
        "\"ok\":true,\"attempts\":inf}";
    {
        std::ofstream out(path, std::ios::binary);
        out << good_a << "\n"
            << interior << "\n"
            << good_b << "\n"
            << final_line << "\n";
    }
    RunJournal replayed(path);
    EXPECT_EQ(replayed.size(), 2u);
    EXPECT_TRUE(replayed.has_ok("r1", "TEW", "COO"));
    EXPECT_TRUE(replayed.has_ok("r1", "TTV", "COO"));
    EXPECT_EQ(replayed.find("r1", "TS", "COO"), nullptr);
    EXPECT_EQ(replayed.find("r1", "TTM", "COO"), nullptr);
    // The interior line is kept on disk (skipped); the final one is cut.
    EXPECT_EQ(fs::file_size(path),
              good_a.size() + interior.size() + good_b.size() + 3);
    fs::remove_all(dir);
}

TEST(Journal, DisabledJournalIsInert)
{
    RunJournal journal;
    EXPECT_FALSE(journal.enabled());
    JournalEntry entry;
    entry.tensor_id = "r1";
    entry.kernel = "TEW";
    entry.format = "COO";
    entry.ok = true;
    journal.append(entry);  // no-op, no crash
    EXPECT_FALSE(journal.has_ok("r1", "TEW", "COO"));
}

TEST(Journal, ReplaySurvivesTornTrailingLine)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "pasta_journal_unit";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "torn.journal.jsonl").string();
    const JournalEntry a{"r1", "TEW", "COO", true, 0.5, 1e6, 2e6, 1, ""};
    const JournalEntry b{"r1", "TTV", "COO", false, 0, 0, 0, 3, "boom"};
    {
        RunJournal journal(path);
        journal.append(a);
        journal.append(b);
    }
    {
        // Simulate a kill mid-append: a torn half-line at the end.
        std::ofstream out(path, std::ios::app);
        out << "{\"tensor\":\"r1\",\"kernel\":\"TS\",\"form";
    }
    RunJournal replayed(path);
    EXPECT_EQ(replayed.size(), 2u);
    EXPECT_TRUE(replayed.has_ok("r1", "TEW", "COO"));
    // Failed entries are found but never satisfy the resume filter.
    ASSERT_NE(replayed.find("r1", "TTV", "COO"), nullptr);
    EXPECT_FALSE(replayed.has_ok("r1", "TTV", "COO"));
    EXPECT_EQ(replayed.find("r1", "TS", "COO"), nullptr);
    // The torn tail was cut off the file itself ...
    {
        std::ifstream in(path, std::ios::binary);
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        EXPECT_EQ(text, to_json_line(a) + "\n" + to_json_line(b) + "\n");
    }
    // ... so the next append starts on a clean line and reloads.
    JournalEntry c = a;
    c.kernel = "TS";
    replayed.append(c);
    RunJournal reloaded(path);
    EXPECT_EQ(reloaded.size(), 3u);
    EXPECT_TRUE(reloaded.has_ok("r1", "TS", "COO"));
    fs::remove_all(dir);
}

TEST(Journal, LastWriteWinsOnReplay)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "pasta_journal_dedup";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "dedup.journal.jsonl").string();
    {
        RunJournal journal(path);
        JournalEntry fail{"r1", "TTM", "HiCOO", false, 0, 0, 0, 3, "x"};
        JournalEntry pass{"r1", "TTM", "HiCOO", true, 0.25, 1e6, 2e6, 1,
                          ""};
        journal.append(fail);
        journal.append(pass);
    }
    RunJournal replayed(path);
    EXPECT_EQ(replayed.size(), 1u);
    EXPECT_TRUE(replayed.has_ok("r1", "TTM", "HiCOO"));
    EXPECT_DOUBLE_EQ(replayed.find("r1", "TTM", "HiCOO")->seconds, 0.25);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Corrupt-cache regeneration
// ---------------------------------------------------------------------

class CacheRegeneration : public ::testing::Test {
  protected:
    void SetUp() override
    {
        namespace fs = std::filesystem;
        dir_ = fs::temp_directory_path() / "pasta_cache_regen";
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path cached_file() const
    {
        for (const auto& e : std::filesystem::directory_iterator(dir_))
            if (e.path().extension() == ".pstb")
                return e.path();
        return {};
    }

    std::filesystem::path dir_;
};

TEST_F(CacheRegeneration, BitflippedPayloadIsDetectedAndRegenerated)
{
    TensorRegistry registry(dir_.string(), 1e-4);
    const CooTensor original = registry.load("r1");
    const auto path = cached_file();
    ASSERT_FALSE(path.empty());

    // Flip one byte deep in the payload (past the header) so only the
    // checksum can catch it.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(-9, std::ios::end);
        char byte = 0;
        f.seekg(-9, std::ios::end);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(-9, std::ios::end);
        f.write(&byte, 1);
    }
    EXPECT_THROW(read_binary_file(path.string()), PastaError);

    // The registry must warn, delete the corrupt entry, and regenerate.
    TensorRegistry fresh(dir_.string(), 1e-4);
    const CooTensor reloaded = fresh.load("r1");
    EXPECT_EQ(reloaded.nnz(), original.nnz());
    EXPECT_EQ(reloaded.order(), original.order());
    // And the rewritten cache entry must now be healthy.
    const CooTensor recached = read_binary_file(cached_file().string());
    EXPECT_EQ(recached.nnz(), original.nnz());
}

TEST_F(CacheRegeneration, TruncatedEntryIsRegenerated)
{
    TensorRegistry registry(dir_.string(), 1e-4);
    const CooTensor original = registry.load("r2");
    const auto path = cached_file();
    ASSERT_FALSE(path.empty());
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);
    EXPECT_THROW(read_binary_file(path.string()), PastaError);

    TensorRegistry fresh(dir_.string(), 1e-4);
    const CooTensor reloaded = fresh.load("r2");
    EXPECT_EQ(reloaded.nnz(), original.nnz());
}

TEST_F(CacheRegeneration, InjectedCacheLoadFaultFallsBackToSynthesis)
{
    FaultGuard guard;
    TensorRegistry registry(dir_.string(), 1e-4);
    const CooTensor original = registry.load("r3");
    ASSERT_FALSE(cached_file().empty());

    FaultInjector::instance().configure(
        parse_fault_spec("cache.load:throw@1"));
    // First load hits the fault, falls back to synthesis, and re-caches;
    // the result must be identical (synthesis is deterministic).
    const CooTensor reloaded = registry.load("r3");
    EXPECT_EQ(reloaded.nnz(), original.nnz());
    // Second load passes the armed-but-spent rule and reads the cache.
    const CooTensor cached = registry.load("r3");
    EXPECT_EQ(cached.nnz(), original.nnz());
}

}  // namespace
}  // namespace pasta::harness
