/// \file
/// Crash-isolated campaign supervisor: shards a campaign's trial set
/// across a pool of worker *processes*, so a segfault, OOM-kill, or
/// hung kernel costs one shard's attempt instead of the whole run.
///
/// Roles and protocol
/// ------------------
/// The supervisor owns a campaign directory and a list of ShardSpecs
/// (one trial or one partition-range of an out-of-core sweep each).  It
/// keeps up to `workers` children alive; each child claims *one* shard
/// through a crash-safe filesystem lease (src/harness/lease), runs it,
/// journals the outcome to its own `journal.<shard>.jsonl` (fsync'd per
/// line), publishes a durable `done/<shard>.done` marker, releases the
/// lease, and exits 0.  Workers are spawned either by fork+exec of
/// `worker_argv` (the pasta_campaign driver re-execs itself with
/// `--worker`; full isolation, safe with OpenMP) or — when `worker_argv`
/// is empty — by plain fork running `body` in the child (tests).
///
/// Crash ladder
/// ------------
/// - SIGKILL'd / crashed worker: its lease goes stale (owner pid dead),
///   any later worker reclaims the shard; the supervisor also reaps the
///   lease immediately on reaping the child.  Duplicate journal lines
///   from a shard that was re-run after a kill-after-finish are folded
///   by the exactly-once merge.
/// - Wedged worker (SIGSTOP, D-state): the heartbeat file it refreshes
///   every `heartbeat_interval_s` goes stale; after
///   `heartbeat_timeout_s` the supervisor SIGKILLs it and classifies
///   the exit as a timeout.
/// - Every non-clean exit (nonzero, signal, timeout, worker-reported
///   host-OOM exit code) charges the shard's retry budget and the
///   worker is respawned under capped exponential backoff; a shard that
///   exhausts the budget gets a durable `failed/<shard>.failed` marker
///   plus a terminal journal entry, and the campaign continues.
/// - SIGTERM/SIGINT (or request_drain()): stop spawning, let in-flight
///   shards finish, write the remaining shard names to `resume.list`,
///   and return with `drained` set — rerunning the same campaign
///   directory picks up exactly the unfinished shards.
///
/// Chaos mode
/// ----------
/// `chaos_kills` > 0 (armed from $PASTA_CHAOS by the driver) makes the
/// supervisor itself SIGKILL that many randomly chosen workers
/// *mid-trial* (only workers holding a claimed shard are eligible),
/// using the same SplitMix64 stream the PR 1 fault injector uses,
/// seeded by `chaos_seed` ($PASTA_FAULT_SEED).  Chaos kills exercise
/// the full lease-reclaim/respawn ladder but do not charge retry
/// budgets — the supervisor knows it pulled the trigger.
///
/// Exit classification
/// -------------------
///   clean    exit(0)    shard finished (done marker is the proof)
///   no_work  exit(75)   nothing claimable right now (benign)
///   failure  exit(!=0)  body threw; worker journaled the error first
///   oom      exit(77)   body hit HostOomError/bad_alloc terminally
///   signal   signaled   crash (or chaos kill — counted separately)
///   timeout  signaled   supervisor watchdog killed a stale heartbeat
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "harness/journal.hpp"
#include "obs/metrics.hpp"

namespace pasta::harness {

/// Worker exit codes of the campaign protocol (75 = EX_TEMPFAIL-ish
/// "no work", 77 = EX_NOPERM-adjacent "out of memory"; both chosen to
/// stay clear of shells' 126/127/128+n conventions).
constexpr int kWorkerExitClean = 0;
constexpr int kWorkerExitFailure = 1;
constexpr int kWorkerExitNoWork = 75;
constexpr int kWorkerExitOom = 77;

/// One unit of claimable work: a (tensor, kernel, format) trial or one
/// partition range of an out-of-core sweep.
struct ShardSpec {
    std::string name;    ///< unique, filesystem-safe (claim/journal key)
    std::string tensor;  ///< journal identity fields
    std::string kernel;
    std::string format;
};

/// Runs one shard inside a worker process and returns the journal entry
/// to record.  Throwing reports the shard as failed (HostOomError /
/// bad_alloc exit with kWorkerExitOom, anything else with
/// kWorkerExitFailure).
using ShardBody = std::function<JournalEntry(const ShardSpec&)>;

/// Supervisor knobs.  The env-facing ones (PASTA_SHARDS worker count,
/// PASTA_CHAOS kill count, PASTA_FAULT_SEED chaos seed) load via
/// from_env(); the rest are code-level tuning with safe defaults.
struct CampaignOptions {
    std::string dir;            ///< campaign state directory (required)
    int workers = 2;            ///< max live worker processes
    double lease_ttl_s = 30.0;  ///< lease staleness horizon
    double heartbeat_interval_s = 0.2;
    double heartbeat_timeout_s = 10.0;  ///< stale heartbeat -> SIGKILL
    double poll_interval_s = 0.05;      ///< supervisor tick
    int shard_retry_budget = 3;  ///< non-clean exits allowed per shard
    double backoff_initial_s = 0.1;  ///< respawn backoff after a crash
    double backoff_max_s = 2.0;      ///< exponential cap
    int chaos_kills = 0;             ///< SIGKILLs to deal mid-trial
    std::uint64_t chaos_seed = 42;   ///< SplitMix64 seed (PR 1 RNG)
    /// Non-empty: fork+exec this argv for each worker (the exec'd
    /// process must call run_worker_once and exit with its result).
    /// Empty: fork only and run `body` directly in the child.
    std::vector<std::string> worker_argv;
    bool install_signal_handlers = true;  ///< SIGTERM/SIGINT -> drain
    /// Test hook, called once per supervisor tick (after reaping).
    std::function<void(int tick)> tick_hook;

    /// Reads PASTA_SHARDS / PASTA_CHAOS / PASTA_FAULT_SEED; malformed
    /// values throw PastaError.
    static CampaignOptions from_env();
};

/// How one worker exit was classified.
enum class ExitClass {
    kClean,
    kNoWork,
    kFailure,
    kOom,
    kSignal,
    kTimeout,
    kChaos,
};

const char* exit_class_name(ExitClass c);

/// Classifies a waitpid status; `killed_for_timeout` / `killed_for_chaos`
/// record that the supervisor itself sent the fatal signal.
ExitClass classify_exit(int wait_status, bool killed_for_timeout,
                        bool killed_for_chaos);

/// What merging the per-shard journals produced.
struct MergeStats {
    std::size_t shard_files = 0;  ///< journal.<shard>.jsonl files read
    std::size_t lines = 0;        ///< parsable lines across all shards
    std::size_t entries = 0;      ///< unique (t, k, f, shard) entries out
    std::size_t duplicates = 0;   ///< lines folded by exactly-once dedup
};

/// Merges every `journal.*.jsonl` under `dir` into `merged_path`
/// (durably: tmp + fsync + rename + dir fsync) with exactly-once dedup
/// on the (tensor, kernel, format, shard) key: a successful entry beats
/// progress/failure entries for the same key, later duplicates fold
/// away, and output is sorted by key so two merges of the same shards
/// are byte-identical.
MergeStats merge_journal_shards(const std::string& dir,
                                const std::string& merged_path);

/// What aggregating the per-shard metrics heartbeats produced.
struct MetricsAggregate {
    std::size_t shard_files = 0;  ///< metrics.*.jsonl files aggregated
    obs::MetricsSnapshot merged;
};

/// Tails every `metrics.*.jsonl` under `dir` (excluding the output
/// file's own name): the LAST parseable snapshot of each heartbeat is
/// taken as that exporter's current truth, the snapshots are merged
/// (counters summed, gauges maxed, histograms merged), and one
/// aggregated line is appended to `out_path` — itself a tailable
/// campaign-wide heartbeat.  Because each worker process restarts its
/// per-shard exporter from zeroed (fresh-process) metrics, summing
/// last-snapshots counts each shard's work exactly once even across
/// chaos kills and reruns.
MetricsAggregate aggregate_campaign_metrics(const std::string& dir,
                                            const std::string& out_path);

/// Merges every per-process `trace.*.json` under `dir` (excluding the
/// output's own name) into one clock-aligned `out_path` via
/// obs::merge_chrome_traces, labelling each input's pid track with the
/// shard name from its filename.  False when no input traces exist.
bool merge_campaign_traces(const std::string& dir,
                           const std::string& out_path);

/// Campaign outcome counters (one supervisor run).
struct CampaignReport {
    Size shards_total = 0;
    Size shards_done = 0;       ///< durable done markers present
    Size shards_failed = 0;     ///< retry budget exhausted
    Size shards_remaining = 0;  ///< neither (only after a drain)
    int spawns = 0;             ///< workers forked
    int respawns = 0;           ///< spawns replacing a non-clean exit
    int spawn_faults = 0;       ///< proc.spawn fault-point firings
    int chaos_kills_sent = 0;
    int exits_clean = 0;
    int exits_nowork = 0;
    int exits_failure = 0;
    int exits_oom = 0;
    int exits_signal = 0;
    int exits_timeout = 0;
    bool drained = false;  ///< stopped early on SIGTERM/SIGINT/drain
    MergeStats merge;
    /// Telemetry side-channel (populated when PASTA_METRICS is armed /
    /// spans were recorded; zero-valued otherwise).
    MetricsAggregate metrics;
    bool trace_merged = false;  ///< campaign.trace.json written

    bool complete() const
    {
        return shards_remaining == 0 && shards_failed == 0;
    }
};

/// The campaign supervisor.  Construct with the shard list and (for
/// fork-only mode) the shard body, then run() to completion or drain.
class Supervisor {
  public:
    Supervisor(CampaignOptions opts, std::vector<ShardSpec> shards,
               ShardBody body = {});

    /// Runs the campaign: spawn/watchdog/reap loop, then the journal
    /// merge.  Returns the outcome report; throws only for setup errors
    /// (unwritable campaign dir, empty shard names).
    CampaignReport run();

    /// Asks the running loop to drain (same path as SIGTERM).  Safe to
    /// call from the tick hook.
    void request_drain() { drain_requested_ = true; }

  private:
    struct WorkerProc;
    struct RunState;

    CampaignOptions opts_;
    std::vector<ShardSpec> shards_;
    ShardBody body_;
    volatile bool drain_requested_ = false;
};

/// Worker entry point: claims one shard (skipping done/failed markers,
/// reclaiming stale leases), heartbeats while running `body`, journals
/// the outcome durably, publishes the done marker, releases the lease,
/// and returns the exit code to _exit with.  Returns kWorkerExitNoWork
/// when nothing was claimable.
int run_worker_once(const CampaignOptions& opts,
                    const std::vector<ShardSpec>& shards,
                    const ShardBody& body);

}  // namespace pasta::harness
