// Campaign supervisor tests: lease claim/expiry/reclaim, the worker
// protocol (done markers, failure journaling, no-work), SIGKILL
// mid-trial -> exactly-once merged journal, heartbeat-timeout watchdog
// respawn, graceful drain with a resumable remainder, spawn-fault
// backoff, and torn-journal-line recovery.
//
// Supervisor tests run in fork-only mode (the shard body executes in
// the forked child); bodies stay free of OpenMP so forking from the
// test process is safe.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/membudget.hpp"
#include "harness/campaign.hpp"
#include "harness/fault.hpp"
#include "harness/journal.hpp"
#include "harness/lease.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pasta {
namespace {

namespace fs = std::filesystem;
using namespace harness;

class TempDir {
  public:
    TempDir()
    {
        path_ = fs::temp_directory_path() /
                ("pasta_campaign_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    std::string file(const std::string& name) const
    {
        return (path_ / name).string();
    }

  private:
    static inline int counter_ = 0;
    fs::path path_;
};

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
spit(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

/// Fast supervisor knobs for tests (fork-only mode, tight ticks).
CampaignOptions
test_options(const TempDir& dir)
{
    CampaignOptions opts;
    opts.dir = dir.str();
    opts.workers = 2;
    opts.lease_ttl_s = 30.0;
    opts.heartbeat_interval_s = 0.05;
    opts.heartbeat_timeout_s = 10.0;
    opts.poll_interval_s = 0.02;
    opts.backoff_initial_s = 0.02;
    opts.backoff_max_s = 0.1;
    opts.install_signal_handlers = false;
    return opts;
}

std::vector<ShardSpec>
make_shards(int n)
{
    std::vector<ShardSpec> shards;
    for (int i = 0; i < n; ++i)
        shards.push_back({"shard" + std::to_string(i), "t0", "K",
                          "F" + std::to_string(i)});
    return shards;
}

JournalEntry
ok_entry(const ShardSpec& spec)
{
    JournalEntry entry;
    entry.tensor_id = spec.tensor;
    entry.kernel = spec.kernel;
    entry.format = spec.format;
    entry.shard = spec.name;
    entry.ok = true;
    entry.seconds = 0.001;
    entry.attempts = 1;
    return entry;
}

// ---- leases ---------------------------------------------------------

TEST(Lease, ClaimIsExclusiveWhileOwnerLives)
{
    TempDir dir;
    EXPECT_TRUE(try_claim_lease(dir.str(), "s", 30.0));
    // Same (live) process already owns it: a second claim must lose.
    EXPECT_FALSE(try_claim_lease(dir.str(), "s", 30.0));

    LeaseInfo info;
    ASSERT_TRUE(read_lease(lease_path(dir.str(), "s"), info));
    EXPECT_EQ(info.pid, static_cast<long>(::getpid()));
    EXPECT_TRUE(info.owner_alive);
    EXPECT_FALSE(lease_stale(info, 30.0));

    release_lease(dir.str(), "s");
    EXPECT_FALSE(fs::exists(lease_path(dir.str(), "s")));
    EXPECT_TRUE(try_claim_lease(dir.str(), "s", 30.0));
}

TEST(Lease, DeadOwnerIsStaleAndReclaimable)
{
    TempDir dir;
    // A child claims and dies without releasing — the SIGKILL'd worker.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(try_claim_lease(dir.str(), "s", 30.0) ? 0 : 1);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_EQ(WEXITSTATUS(status), 0);

    LeaseInfo info;
    ASSERT_TRUE(read_lease(lease_path(dir.str(), "s"), info));
    EXPECT_EQ(info.pid, static_cast<long>(child));
    EXPECT_FALSE(info.owner_alive);
    EXPECT_TRUE(lease_stale(info, 30.0));

    // Both the supervisor reap path and a racing claimer recover it.
    EXPECT_TRUE(try_claim_lease(dir.str(), "s", 30.0));
    release_lease(dir.str(), "s");
}

TEST(Lease, TtlExpiryAndHeartbeatRefresh)
{
    TempDir dir;
    ASSERT_TRUE(try_claim_lease(dir.str(), "s", 30.0));
    const std::string path = lease_path(dir.str(), "s");

    // Age the lease 10 s into the past: stale under a 5 s TTL even
    // though the owner (this process) is alive — the wedged-owner case.
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::seconds(10));
    LeaseInfo info;
    ASSERT_TRUE(read_lease(path, info));
    EXPECT_TRUE(info.owner_alive);
    EXPECT_TRUE(lease_stale(info, 5.0));

    // The heartbeat refresh makes it fresh again.
    refresh_lease(dir.str(), "s");
    ASSERT_TRUE(read_lease(path, info));
    EXPECT_FALSE(lease_stale(info, 5.0));
    EXPECT_FALSE(reclaim_lease_if_stale(dir.str(), "s", 5.0));

    // Re-aged, reclaim_if_stale removes it (and only when stale).
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::seconds(10));
    EXPECT_TRUE(reclaim_lease_if_stale(dir.str(), "s", 5.0));
    EXPECT_FALSE(fs::exists(path));
}

TEST(Lease, UnreadableLeaseIsReclaimed)
{
    TempDir dir;
    // A crash between O_EXCL create and the record write leaves an
    // empty lease; it must not block the shard.
    spit(lease_path(dir.str(), "s"), "");
    EXPECT_TRUE(try_claim_lease(dir.str(), "s", 30.0));
    LeaseInfo info;
    ASSERT_TRUE(read_lease(lease_path(dir.str(), "s"), info));
    EXPECT_EQ(info.pid, static_cast<long>(::getpid()));
}

// ---- exit classification -------------------------------------------

TEST(Campaign, ClassifiesWorkerExits)
{
    const auto status_of = [](int code, int sig) {
        const pid_t pid = ::fork();
        EXPECT_GE(pid, 0);
        if (pid == 0) {
            if (sig != 0) {
                ::raise(sig);
                ::pause();
            }
            ::_exit(code);
        }
        int status = 0;
        EXPECT_EQ(::waitpid(pid, &status, 0), pid);
        return status;
    };

    EXPECT_EQ(classify_exit(status_of(kWorkerExitClean, 0), false, false),
              ExitClass::kClean);
    EXPECT_EQ(classify_exit(status_of(kWorkerExitNoWork, 0), false, false),
              ExitClass::kNoWork);
    EXPECT_EQ(classify_exit(status_of(kWorkerExitOom, 0), false, false),
              ExitClass::kOom);
    EXPECT_EQ(classify_exit(status_of(kWorkerExitFailure, 0), false, false),
              ExitClass::kFailure);
    const int killed = status_of(0, SIGKILL);
    EXPECT_EQ(classify_exit(killed, false, false), ExitClass::kSignal);
    EXPECT_EQ(classify_exit(killed, true, false), ExitClass::kTimeout);
    EXPECT_EQ(classify_exit(killed, false, true), ExitClass::kChaos);
}

// ---- worker protocol ------------------------------------------------

TEST(Campaign, WorkerClaimsRunsAndPublishesDone)
{
    TempDir dir;
    const CampaignOptions opts = test_options(dir);
    const auto shards = make_shards(2);

    int ran = 0;
    const ShardBody body = [&](const ShardSpec& spec) {
        ++ran;
        return ok_entry(spec);
    };
    EXPECT_EQ(run_worker_once(opts, shards, body), kWorkerExitClean);
    EXPECT_EQ(run_worker_once(opts, shards, body), kWorkerExitClean);
    EXPECT_EQ(ran, 2);
    // Everything done: the next worker finds no claimable work.
    EXPECT_EQ(run_worker_once(opts, shards, body), kWorkerExitNoWork);
    EXPECT_EQ(ran, 2);

    for (const auto& spec : shards) {
        EXPECT_TRUE(fs::exists(dir.file("done/" + spec.name + ".done")));
        EXPECT_FALSE(
            fs::exists(dir.file("leases/" + spec.name + ".lease")));
        RunJournal journal(dir.file("journal." + spec.name + ".jsonl"));
        EXPECT_TRUE(journal.has_ok(spec.tensor, spec.kernel, spec.format,
                                   spec.name));
    }
}

TEST(Campaign, WorkerJournalsFailuresWithExitCodes)
{
    TempDir dir;
    const CampaignOptions opts = test_options(dir);
    const auto shards = make_shards(1);

    const ShardBody boom = [](const ShardSpec&) -> JournalEntry {
        throw std::runtime_error("kernel exploded");
    };
    EXPECT_EQ(run_worker_once(opts, shards, boom), kWorkerExitFailure);
    {
        RunJournal journal(dir.file("journal.shard0.jsonl"));
        const JournalEntry* entry =
            journal.find("t0", "K", "F0", "shard0");
        ASSERT_NE(entry, nullptr);
        EXPECT_FALSE(entry->ok);
        EXPECT_EQ(entry->failure_class, "error");
        EXPECT_EQ(entry->error, "kernel exploded");
    }
    EXPECT_FALSE(fs::exists(dir.file("done/shard0.done")));
    // The lease was released: the shard stays claimable for a retry.
    const ShardBody oom = [](const ShardSpec&) -> JournalEntry {
        throw membudget::HostOomError("budget exceeded");
    };
    EXPECT_EQ(run_worker_once(opts, shards, oom), kWorkerExitOom);
}

// ---- crash / exactly-once ------------------------------------------

TEST(Campaign, SigkillMidTrialYieldsExactlyOnceMergedJournal)
{
    TempDir dir;
    const CampaignOptions opts = test_options(dir);
    const auto shards = make_shards(1);
    const std::string gate = dir.file("first_attempt.flag");

    // Attempt 1 (child): announce mid-trial, then stall until SIGKILL'd
    // while holding the lease.  Attempt 2 (this process): finish.
    const ShardBody body = [&](const ShardSpec& spec) {
        if (!fs::exists(gate)) {
            spit(gate, "x");
            std::this_thread::sleep_for(std::chrono::seconds(30));
        }
        return ok_entry(spec);
    };

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(run_worker_once(opts, shards, body));
    while (!fs::exists(gate))
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    // The dead worker's lease is stale, so the retry claims the shard.
    EXPECT_EQ(run_worker_once(opts, shards, body), kWorkerExitClean);
    EXPECT_TRUE(fs::exists(dir.file("done/shard0.done")));

    const MergeStats stats =
        merge_journal_shards(dir.str(), dir.file("journal.merged.jsonl"));
    EXPECT_EQ(stats.entries, 1u);
    RunJournal merged(dir.file("journal.merged.jsonl"));
    EXPECT_TRUE(merged.has_ok("t0", "K", "F0", "shard0"));
}

TEST(Campaign, MergePrefersSuccessAndFoldsDuplicates)
{
    TempDir dir;
    // Two shard journals with a duplicate key: a progress line from a
    // killed attempt and the ok line from the rerun.
    JournalEntry progress;
    progress.tensor_id = "t0";
    progress.kernel = "K";
    progress.format = "F";
    progress.shard = "s0";
    progress.ok = false;
    progress.failure_class = "progress";
    progress.partitions_done = 3;
    JournalEntry done = progress;
    done.ok = true;
    done.failure_class = "";
    done.partitions_done = 8;
    JournalEntry other = progress;
    other.shard = "s1";
    other.ok = true;

    spit(dir.file("journal.s0.jsonl"), to_json_line(done) + "\n" +
                                           to_json_line(progress) + "\n");
    spit(dir.file("journal.s1.jsonl"), to_json_line(other) + "\n");

    const std::string merged = dir.file("journal.merged.jsonl");
    const MergeStats stats = merge_journal_shards(dir.str(), merged);
    EXPECT_EQ(stats.shard_files, 2u);
    EXPECT_EQ(stats.lines, 3u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.duplicates, 1u);

    RunJournal journal(merged);
    const JournalEntry* kept = journal.find("t0", "K", "F", "s0");
    ASSERT_NE(kept, nullptr);
    EXPECT_TRUE(kept->ok);  // the ok line beat the progress line
    EXPECT_EQ(kept->partitions_done, 8);

    // Re-merging with the merged file present must not double-count it,
    // and the output is byte-stable (sorted by key).
    const std::string first = slurp(merged);
    const MergeStats again = merge_journal_shards(dir.str(), merged);
    EXPECT_EQ(again.shard_files, 2u);
    EXPECT_EQ(slurp(merged), first);
}

// ---- torn journal lines --------------------------------------------

TEST(Campaign, TornFinalJournalLineIsTruncatedOnReplay)
{
    TempDir dir;
    const std::string path = dir.file("journal.s0.jsonl");
    JournalEntry entry;
    entry.tensor_id = "t0";
    entry.kernel = "K";
    entry.format = "F";
    entry.ok = true;
    const std::string good = to_json_line(entry) + "\n";
    // A SIGKILL mid-write leaves a torn, unterminated trailing line.
    spit(path, good + "{\"tensor\":\"t1\",\"ker");

    RunJournal journal(path);
    EXPECT_EQ(journal.size(), 1u);
    EXPECT_TRUE(journal.has_ok("t0", "K", "F"));
    // The torn tail was truncated off the file itself, so the next
    // append starts at a clean line boundary.
    EXPECT_EQ(slurp(path), good);

    JournalEntry next = entry;
    next.tensor_id = "t1";
    journal.append(next);
    journal.flush();
    RunJournal reload(path);
    EXPECT_EQ(reload.size(), 2u);
    EXPECT_TRUE(reload.has_ok("t1", "K", "F"));
}

// ---- supervisor -----------------------------------------------------

TEST(Campaign, SupervisorRunsAllShardsToDone)
{
    TempDir dir;
    CampaignOptions opts = test_options(dir);
    opts.workers = 3;
    const auto shards = make_shards(5);

    Supervisor supervisor(opts, shards, [](const ShardSpec& spec) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return ok_entry(spec);
    });
    const CampaignReport report = supervisor.run();

    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.shards_done, 5u);
    EXPECT_EQ(report.shards_failed, 0u);
    EXPECT_GE(report.exits_clean, 5);
    EXPECT_EQ(report.merge.entries, 5u);
    EXPECT_TRUE(fs::exists(dir.file("journal.merged.jsonl")));
    EXPECT_FALSE(fs::exists(dir.file("resume.list")));
}

TEST(Campaign, ChaosKillsAreSurvivedExactlyOnce)
{
    TempDir dir;
    CampaignOptions opts = test_options(dir);
    opts.workers = 2;
    opts.chaos_kills = 2;
    opts.chaos_seed = 7;
    const auto shards = make_shards(4);

    // Slow enough that chaos catches workers mid-trial.
    Supervisor supervisor(opts, shards, [](const ShardSpec& spec) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        return ok_entry(spec);
    });
    const CampaignReport report = supervisor.run();

    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.shards_done, 4u);
    EXPECT_EQ(report.chaos_kills_sent, 2);
    EXPECT_GE(report.respawns, 2);
    // Exactly-once: one merged entry per shard, all successful, no
    // matter how many attempts the kills forced.
    EXPECT_EQ(report.merge.entries, 4u);
    RunJournal merged(dir.file("journal.merged.jsonl"));
    for (const auto& spec : shards)
        EXPECT_TRUE(merged.has_ok(spec.tensor, spec.kernel, spec.format,
                                  spec.name));
}

TEST(Campaign, HeartbeatTimeoutKillsWedgedWorkerAndRespawns)
{
    TempDir dir;
    CampaignOptions opts = test_options(dir);
    opts.workers = 1;
    opts.heartbeat_interval_s = 0.03;
    opts.heartbeat_timeout_s = 0.3;
    opts.lease_ttl_s = 0.5;
    const auto shards = make_shards(1);
    const std::string gate = dir.file("wedged.flag");

    // First attempt wedges the whole process (SIGSTOP stops the
    // heartbeat thread too — exactly the stale-heartbeat case); the
    // respawned attempt succeeds.
    Supervisor supervisor(opts, shards, [&](const ShardSpec& spec) {
        if (!fs::exists(gate)) {
            spit(gate, "x");
            ::raise(SIGSTOP);
        }
        return ok_entry(spec);
    });
    const CampaignReport report = supervisor.run();

    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.shards_done, 1u);
    EXPECT_GE(report.exits_timeout, 1);
    EXPECT_GE(report.respawns, 1);
    EXPECT_EQ(report.merge.entries, 1u);
}

TEST(Campaign, DrainFinishesInFlightAndJournalsRemainder)
{
    TempDir dir;
    CampaignOptions opts = test_options(dir);
    opts.workers = 1;
    const auto shards = make_shards(6);

    Supervisor* running = nullptr;
    opts.tick_hook = [&](int tick) {
        if (tick == 4 && running)
            running->request_drain();
    };
    Supervisor supervisor(opts, shards, [](const ShardSpec& spec) {
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        return ok_entry(spec);
    });
    running = &supervisor;
    const CampaignReport report = supervisor.run();

    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.shards_failed, 0u);
    EXPECT_GT(report.shards_remaining, 0u);
    EXPECT_EQ(report.shards_done + report.shards_remaining, 6u);

    // The remainder is journaled for resume...
    const std::string resume = slurp(dir.file("resume.list"));
    for (const auto& spec : shards) {
        const bool done = fs::exists(dir.file("done/" + spec.name + ".done"));
        EXPECT_EQ(resume.find(spec.name) != std::string::npos, !done);
    }

    // ...and rerunning the same campaign dir finishes exactly it.
    CampaignOptions opts2 = test_options(dir);
    opts2.workers = 2;
    Supervisor resume_supervisor(opts2, shards, [](const ShardSpec& spec) {
        return ok_entry(spec);
    });
    const CampaignReport report2 = resume_supervisor.run();
    EXPECT_TRUE(report2.complete());
    EXPECT_EQ(report2.shards_done, 6u);
    EXPECT_EQ(report2.merge.entries, 6u);
    EXPECT_FALSE(fs::exists(dir.file("resume.list")));
}

TEST(Campaign, SpawnFaultPointTriggersBackoffNotFailure)
{
    TempDir dir;
    CampaignOptions opts = test_options(dir);
    opts.workers = 1;
    const auto shards = make_shards(2);

    // The first two spawn attempts fault (proc.spawn satellite); the
    // campaign must back off and still complete.
    FaultInjector::instance().configure(
        parse_fault_spec("proc.spawn:throw@1,proc.spawn:throw@2"));
    Supervisor supervisor(opts, shards, [](const ShardSpec& spec) {
        return ok_entry(spec);
    });
    const CampaignReport report = supervisor.run();
    FaultInjector::instance().clear();

    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.shards_done, 2u);
    EXPECT_GE(report.spawn_faults, 2);
}

TEST(Campaign, RetryBudgetExhaustionFailsShardAndContinues)
{
    TempDir dir;
    CampaignOptions opts = test_options(dir);
    opts.workers = 1;
    opts.shard_retry_budget = 2;
    const auto shards = make_shards(2);

    // shard0 always crashes its worker; shard1 succeeds.  The campaign
    // must fail shard0 terminally after 2 attempts and still finish.
    Supervisor supervisor(opts, shards, [](const ShardSpec& spec) {
        if (spec.name == "shard0")
            ::raise(SIGKILL);
        return ok_entry(spec);
    });
    const CampaignReport report = supervisor.run();

    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.shards_done, 1u);
    EXPECT_EQ(report.shards_failed, 1u);
    EXPECT_EQ(report.shards_remaining, 0u);
    EXPECT_TRUE(fs::exists(dir.file("failed/shard0.failed")));
    // The supervisor journaled the terminal failure for the record.
    RunJournal merged(dir.file("journal.merged.jsonl"));
    const JournalEntry* entry = merged.find("t0", "K", "F0", "shard0");
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->ok);
    EXPECT_NE(entry->error.find("retry budget exhausted"),
              std::string::npos);
}

TEST(Campaign, MetricsArmedCampaignAggregatesCountersAndMergesTraces)
{
    TempDir dir;
    TempDir elsewhere;  // env path OUTSIDE the campaign dir: the shard
                        // scan must only see per-shard heartbeats
    ::setenv("PASTA_METRICS",
             (elsewhere.file("env.jsonl") + ",100").c_str(), 1);
    obs::stop_exporter();
    obs::reset_metrics();
    obs::set_mode(obs::TraceMode::kSpans);
    obs::reset_spans();

    CampaignOptions opts = test_options(dir);
    opts.workers = 2;
    const auto shards = make_shards(3);
    Supervisor supervisor(opts, shards, [](const ShardSpec& spec) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return ok_entry(spec);
    });
    const CampaignReport report = supervisor.run();
    ::unsetenv("PASTA_METRICS");
    obs::set_mode(obs::TraceMode::kOff);
    obs::reset_spans();
    obs::stop_exporter();
    obs::reset_metrics();

    ASSERT_TRUE(report.complete());
    // Every worker process exported a per-shard heartbeat and its final
    // snapshot carries exactly that shard's trial counter; summing the
    // last snapshots therefore equals the merged journal's entry count.
    for (const auto& spec : shards) {
        std::string hb = "metrics.";
        hb += spec.name;
        hb += ".jsonl";
        EXPECT_TRUE(fs::exists(dir.file(hb)));
    }
    EXPECT_GE(report.metrics.shard_files, shards.size());
    EXPECT_EQ(report.metrics.merged.counter("campaign.trial.ok"),
              report.merge.entries);
    EXPECT_EQ(report.metrics.merged.counter("campaign.trial.failed"), 0u);
    EXPECT_EQ(report.metrics.merged.source, "campaign");

    // The aggregate file is itself a tailable heartbeat whose last line
    // round-trips to the report's merged snapshot.
    obs::MetricsSnapshot last;
    ASSERT_TRUE(obs::load_last_snapshot(
        dir.file("metrics.campaign.jsonl"), last));
    EXPECT_EQ(last.counter("campaign.trial.ok"), report.merge.entries);

    // Spans were armed: every worker (and the supervisor) exported a
    // trace and they merged onto one clock-aligned timeline with one
    // pid track per process.
    EXPECT_TRUE(report.trace_merged);
    const std::string merged = slurp(dir.file("campaign.trace.json"));
    ASSERT_FALSE(merged.empty());
    EXPECT_NE(merged.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(merged.find("\"pastaMeta\""), std::string::npos);
    EXPECT_NE(merged.find("campaign.shard.shard0"), std::string::npos);
    // Distinct pid tracks: at least two different "pid":N values.
    std::set<std::string> pids;
    for (std::size_t pos = merged.find("\"pid\":");
         pos != std::string::npos;
         pos = merged.find("\"pid\":", pos + 1)) {
        std::size_t end = pos + 6;
        while (end < merged.size() &&
               std::isdigit(static_cast<unsigned char>(merged[end])))
            ++end;
        pids.insert(merged.substr(pos + 6, end - pos - 6));
    }
    EXPECT_GE(pids.size(), 2u);
}

TEST(Campaign, FromEnvReadsShardsAndChaos)
{
    ::setenv("PASTA_SHARDS", "5", 1);
    ::setenv("PASTA_CHAOS", "3", 1);
    ::setenv("PASTA_FAULT_SEED", "99", 1);
    const CampaignOptions opts = CampaignOptions::from_env();
    EXPECT_EQ(opts.workers, 5);
    EXPECT_EQ(opts.chaos_kills, 3);
    EXPECT_EQ(opts.chaos_seed, 99u);
    ::setenv("PASTA_SHARDS", "not-a-number", 1);
    EXPECT_THROW(CampaignOptions::from_env(), PastaError);
    ::unsetenv("PASTA_SHARDS");
    ::unsetenv("PASTA_CHAOS");
    ::unsetenv("PASTA_FAULT_SEED");
}

}  // namespace
}  // namespace pasta
