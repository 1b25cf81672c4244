#include "harness/campaign.hpp"

#include <csignal>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "harness/fault.hpp"
#include "harness/lease.hpp"
#include "obs/trace.hpp"

namespace pasta::harness {

namespace {

namespace fs = std::filesystem;

double
now_wall_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

double
now_steady_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---- campaign directory layout -------------------------------------

std::string
leases_dir(const std::string& dir)
{
    return dir + "/leases";
}

std::string
done_marker(const std::string& dir, const std::string& shard)
{
    return dir + "/done/" + shard + ".done";
}

std::string
failed_marker(const std::string& dir, const std::string& shard)
{
    return dir + "/failed/" + shard + ".failed";
}

std::string
heartbeat_path(const std::string& dir, long pid)
{
    return dir + "/hb/" + std::to_string(pid) + ".hb";
}

std::string
claim_note_path(const std::string& dir, long pid)
{
    return dir + "/claims/" + std::to_string(pid) + ".shard";
}

std::string
shard_journal_path(const std::string& dir, const std::string& shard)
{
    return dir + "/journal." + shard + ".jsonl";
}

std::string
shard_metrics_path(const std::string& dir, const std::string& shard)
{
    return dir + "/metrics." + shard + ".jsonl";
}

std::string
shard_trace_path(const std::string& dir, const std::string& shard)
{
    return dir + "/trace." + shard + ".json";
}

void
make_campaign_dirs(const std::string& dir)
{
    std::error_code ec;
    for (const char* sub : {"", "/leases", "/done", "/failed", "/hb",
                            "/claims"})
        fs::create_directories(dir + sub, ec);
    PASTA_CHECK_MSG(fs::is_directory(dir),
                    "cannot create campaign dir " << dir);
}

bool
marker_exists(const std::string& path)
{
    std::error_code ec;
    return fs::exists(path, ec);
}

/// Creates/refreshes a zero-length timestamp file (heartbeats).
void
touch_file(const std::string& path)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0)
        return;
    ::futimens(fd, nullptr);
    ::close(fd);
}

/// Seconds since `path`'s mtime, or a negative value when it is absent.
double
file_age_seconds(const std::string& path)
{
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0)
        return -1.0;
    return now_wall_seconds() - static_cast<double>(st.st_mtime);
}

std::string
read_small_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in.good())
        return {};
    std::string text;
    std::getline(in, text);
    return text;
}

// ---- drain signal plumbing -----------------------------------------

volatile std::sig_atomic_t g_drain_signal = 0;

void
drain_handler(int)
{
    g_drain_signal = 1;
}

}  // namespace

CampaignOptions
CampaignOptions::from_env()
{
    CampaignOptions opts;
    opts.workers = static_cast<int>(config::integer("PASTA_SHARDS"));
    opts.chaos_kills = static_cast<int>(config::integer("PASTA_CHAOS"));
    opts.chaos_seed =
        static_cast<std::uint64_t>(config::integer("PASTA_FAULT_SEED"));
    return opts;
}

const char*
exit_class_name(ExitClass c)
{
    switch (c) {
      case ExitClass::kClean: return "clean";
      case ExitClass::kNoWork: return "no_work";
      case ExitClass::kFailure: return "failure";
      case ExitClass::kOom: return "oom";
      case ExitClass::kSignal: return "signal";
      case ExitClass::kTimeout: return "timeout";
      case ExitClass::kChaos: return "chaos";
    }
    return "?";
}

ExitClass
classify_exit(int wait_status, bool killed_for_timeout,
              bool killed_for_chaos)
{
    if (WIFEXITED(wait_status)) {
        switch (WEXITSTATUS(wait_status)) {
          case kWorkerExitClean: return ExitClass::kClean;
          case kWorkerExitNoWork: return ExitClass::kNoWork;
          case kWorkerExitOom: return ExitClass::kOom;
          default: return ExitClass::kFailure;
        }
    }
    if (WIFSIGNALED(wait_status)) {
        if (killed_for_timeout)
            return ExitClass::kTimeout;
        if (killed_for_chaos)
            return ExitClass::kChaos;
        return ExitClass::kSignal;
    }
    return ExitClass::kFailure;
}

// ---- worker side ----------------------------------------------------

namespace {

/// RAII heartbeat: refreshes hb/<pid>.hb and the shard lease every
/// interval from a helper thread until stopped.  A SIGKILL stops the
/// refreshes implicitly — which is exactly the watchdog's signal.
class Heartbeat {
  public:
    Heartbeat(std::string dir, std::string shard, double interval_s)
        : dir_(std::move(dir)), shard_(std::move(shard))
    {
        touch_file(heartbeat_path(dir_, ::getpid()));
        thread_ = std::thread([this, interval_s] {
            const auto tick =
                std::chrono::duration<double>(interval_s);
            while (!stop_.load(std::memory_order_acquire)) {
                touch_file(heartbeat_path(dir_, ::getpid()));
                refresh_lease(leases_dir(dir_), shard_);
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait_for(lock, tick, [this] {
                    return stop_.load(std::memory_order_acquire);
                });
            }
        });
    }

    ~Heartbeat()
    {
        stop_.store(true, std::memory_order_release);
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    std::string dir_;
    std::string shard_;
    std::atomic<bool> stop_{false};
    std::mutex mutex_;
    std::condition_variable cv_;
    std::thread thread_;
};

/// Fills the entry's identity fields from the shard spec when the body
/// left them blank.
void
stamp_entry(JournalEntry& entry, const ShardSpec& spec)
{
    if (entry.tensor_id.empty())
        entry.tensor_id = spec.tensor;
    if (entry.kernel.empty())
        entry.kernel = spec.kernel;
    if (entry.format.empty())
        entry.format = spec.format;
    if (entry.shard.empty())
        entry.shard = spec.name;
}

}  // namespace

int
run_worker_once(const CampaignOptions& opts,
                const std::vector<ShardSpec>& shards,
                const ShardBody& body)
{
    PASTA_CHECK_MSG(!opts.dir.empty(), "campaign dir not set");
    PASTA_CHECK_MSG(body, "worker needs a shard body");
    make_campaign_dirs(opts.dir);
    if (shards.empty())
        return kWorkerExitNoWork;

    // Start the scan at pid % n so racing workers fan out over the
    // shard list instead of all contending for shard 0's lease.
    const std::size_t n = shards.size();
    const std::size_t start =
        static_cast<std::size_t>(::getpid()) % n;
    for (std::size_t i = 0; i < n; ++i) {
        const ShardSpec& spec = shards[(start + i) % n];
        PASTA_CHECK_MSG(!spec.name.empty(), "shard with empty name");
        if (marker_exists(done_marker(opts.dir, spec.name)) ||
            marker_exists(failed_marker(opts.dir, spec.name)))
            continue;
        if (!try_claim_lease(leases_dir(opts.dir), spec.name,
                             opts.lease_ttl_s))
            continue;
        // Claim-vs-done race: a predecessor may have published the done
        // marker after our check but before its lease lapsed.
        if (marker_exists(done_marker(opts.dir, spec.name))) {
            release_lease(leases_dir(opts.dir), spec.name);
            continue;
        }

        // Tell the supervisor which shard this pid carries (exit
        // attribution for retry accounting), then heartbeat and run.
        fsutil::write_file_durable(
            claim_note_path(opts.dir, ::getpid()), spec.name + "\n");
        Heartbeat heartbeat(opts.dir, spec.name,
                            opts.heartbeat_interval_s);
        RunJournal journal(shard_journal_path(opts.dir, spec.name));

        // Per-shard heartbeat exporter: the env selects arming and
        // interval, the path is this shard's own file so the supervisor
        // can tail/aggregate per shard.  Metrics are zeroed first so a
        // fork-mode child never exports counters inherited from the
        // parent — summing per-shard last-snapshots must count each
        // shard exactly once.
        obs::ExporterOptions mopts =
            obs::ExporterOptions::from_env();
        if (mopts.armed()) {
            obs::reset_metrics();
            mopts.path = shard_metrics_path(opts.dir, spec.name);
            obs::start_exporter(mopts, spec.name);
        }

        int exit_code = kWorkerExitFailure;
        JournalEntry entry;
        try {
            obs::SpanScope span("campaign.shard." + spec.name);
            entry = body(spec);
            stamp_entry(entry, spec);
            journal.append(entry);
            // The trial counter moves only after its journal line is
            // durable, and the final metrics snapshot lands before the
            // done marker: a kill anywhere in between re-runs the shard
            // and both the journal merge and the last-snapshot
            // aggregation fold the duplicate the same way.
            obs::counter("campaign.trial.ok").add(1);
            obs::stop_exporter();
            // Order matters: journal line first, then the durable done
            // marker.  A kill between the two re-runs the shard and the
            // merge folds the duplicate; the reverse order could mark a
            // shard done whose measurement never hit the disk.
            fsutil::write_file_durable(done_marker(opts.dir, spec.name),
                                       "done\n");
            exit_code = kWorkerExitClean;
        } catch (const std::bad_alloc&) {
            entry = JournalEntry{};
            stamp_entry(entry, spec);
            entry.error = "out of memory (std::bad_alloc)";
            entry.failure_class = "oom";
            journal.append(entry);
            obs::counter("campaign.trial.failed").add(1);
            obs::stop_exporter();
            exit_code = kWorkerExitOom;
        } catch (const std::exception& e) {
            const bool oom =
                dynamic_cast<const membudget::HostOomError*>(&e) !=
                nullptr;
            entry = JournalEntry{};
            stamp_entry(entry, spec);
            entry.error = e.what();
            entry.failure_class = oom ? "oom" : "error";
            journal.append(entry);
            obs::counter("campaign.trial.failed").add(1);
            obs::stop_exporter();
            exit_code = oom ? kWorkerExitOom : kWorkerExitFailure;
        }
        // Per-process trace export (write mode: a rerun after a kill
        // replaces the partial trace).  The supervisor merges these
        // onto one clock-aligned timeline at campaign end.
        if (obs::spans_enabled())
            obs::write_chrome_trace(
                shard_trace_path(opts.dir, spec.name));
        release_lease(leases_dir(opts.dir), spec.name);
        return exit_code;
    }
    return kWorkerExitNoWork;
}

// ---- supervisor -----------------------------------------------------

struct Supervisor::WorkerProc {
    double spawn_wall = 0;       ///< for heartbeat grace before first beat
    bool killed_timeout = false;
    bool killed_chaos = false;
};

Supervisor::Supervisor(CampaignOptions opts, std::vector<ShardSpec> shards,
                       ShardBody body)
    : opts_(std::move(opts)), shards_(std::move(shards)),
      body_(std::move(body))
{
}

CampaignReport
Supervisor::run()
{
    PASTA_CHECK_MSG(!opts_.dir.empty(), "campaign dir not set");
    PASTA_CHECK_MSG(!opts_.worker_argv.empty() || body_,
                    "fork-only campaigns need a shard body");
    make_campaign_dirs(opts_.dir);
    std::map<std::string, const ShardSpec*> by_name;
    for (const ShardSpec& s : shards_) {
        PASTA_CHECK_MSG(!s.name.empty(), "shard with empty name");
        PASTA_CHECK_MSG(by_name.emplace(s.name, &s).second,
                        "duplicate shard name " << s.name);
    }

    CampaignReport report;
    report.shards_total = shards_.size();

    // Telemetry plumbing.  Exec-mode supervisors heartbeat their own
    // metrics file alongside the per-shard worker files; fork-only
    // supervisors (tests) must instead make sure NO exporter thread is
    // alive before forking — a child forked while the exporter holds
    // the registry mutex would deadlock on its first counter.
    const obs::ExporterOptions menv =
        obs::ExporterOptions::from_env();
    const bool metrics_armed = menv.armed();
    const std::string campaign_metrics =
        opts_.dir + "/metrics.campaign.jsonl";
    if (opts_.worker_argv.empty()) {
        obs::stop_exporter();
    } else if (metrics_armed) {
        obs::ExporterOptions sopts = menv;
        sopts.path = opts_.dir + "/metrics.supervisor.jsonl";
        obs::start_exporter(sopts, "supervisor");
    }
    // Aggregate the shard heartbeats about once per exporter interval.
    const int agg_ticks =
        metrics_armed
            ? std::max(1, static_cast<int>(menv.interval_s /
                                           opts_.poll_interval_s))
            : 0;

    // SIGTERM/SIGINT request a graceful drain; handlers are restored on
    // every exit path from this function.
    g_drain_signal = 0;
    struct sigaction old_term {}, old_int {};
    const bool hooked = opts_.install_signal_handlers;
    if (hooked) {
        struct sigaction sa {};
        sa.sa_handler = drain_handler;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGTERM, &sa, &old_term);
        ::sigaction(SIGINT, &sa, &old_int);
    }

    std::map<pid_t, WorkerProc> active;
    std::map<std::string, int> retries;
    double backoff = opts_.backoff_initial_s;
    double next_spawn_steady = 0;
    int consecutive_spawn_failures = 0;
    // The same SplitMix64 the fault injector draws from: chaos kill
    // selection shares its seed ($PASTA_FAULT_SEED), so a chaos campaign
    // is reproducible alongside an armed fault spec.
    std::uint64_t chaos_rng = opts_.chaos_seed;
    int chaos_left = opts_.chaos_kills;
    int next_chaos_tick =
        chaos_left > 0
            ? 2 + static_cast<int>(splitmix64(chaos_rng) % 8)
            : -1;
    int tick = 0;

    const auto spawn_worker = [&]() -> bool {
        try {
            fault_point("proc.spawn");
        } catch (const std::exception& e) {
            ++report.spawn_faults;
            ++consecutive_spawn_failures;
            next_spawn_steady = now_steady_seconds() + backoff;
            backoff = std::min(backoff * 2, opts_.backoff_max_s);
            PASTA_LOG_WARN << "campaign: worker spawn fault ("
                           << e.what() << "); backing off";
            return false;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ++consecutive_spawn_failures;
            next_spawn_steady = now_steady_seconds() + backoff;
            backoff = std::min(backoff * 2, opts_.backoff_max_s);
            PASTA_LOG_WARN << "campaign: fork failed ("
                           << std::strerror(errno) << "); backing off";
            return false;
        }
        if (pid == 0) {
            // Child: shed the supervisor's drain handlers, then either
            // exec the worker binary or run one shard right here.
            ::signal(SIGTERM, SIG_DFL);
            ::signal(SIGINT, SIG_DFL);
            if (!opts_.worker_argv.empty()) {
                std::vector<char*> argv;
                argv.reserve(opts_.worker_argv.size() + 1);
                for (const std::string& a : opts_.worker_argv)
                    argv.push_back(const_cast<char*>(a.c_str()));
                argv.push_back(nullptr);
                ::execv(argv[0], argv.data());
                std::fprintf(stderr, "campaign worker exec %s: %s\n",
                             argv[0], std::strerror(errno));
                ::_exit(127);
            }
            int code = kWorkerExitFailure;
            try {
                code = run_worker_once(opts_, shards_, body_);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "campaign worker: %s\n", e.what());
                code = kWorkerExitFailure;
            }
            ::_exit(code);
        }
        active[pid] = WorkerProc{now_wall_seconds(), false, false};
        ++report.spawns;
        return true;
    };

    const std::string ldir = leases_dir(opts_.dir);
    for (;;) {
        // Durable truth: done/failed markers on disk.
        Size done = 0, failed = 0;
        Size claimable = 0;
        for (const ShardSpec& s : shards_) {
            if (marker_exists(done_marker(opts_.dir, s.name))) {
                ++done;
                continue;
            }
            if (marker_exists(failed_marker(opts_.dir, s.name))) {
                ++failed;
                continue;
            }
            LeaseInfo info;
            if (!read_lease(lease_path(ldir, s.name), info) ||
                lease_stale(info, opts_.lease_ttl_s))
                ++claimable;
        }
        const Size remaining = report.shards_total - done - failed;
        report.shards_done = done;
        report.shards_failed = failed;
        report.shards_remaining = remaining;

        const bool draining = drain_requested_ || g_drain_signal != 0;
        if (remaining == 0 && active.empty())
            break;
        if (draining && active.empty()) {
            report.drained = true;
            break;
        }

        // Keep the pool filled — but never spawn more workers than
        // there are claimable shards (extra workers would just churn
        // through no_work exits), and respect the crash backoff.
        if (!draining) {
            while (static_cast<int>(active.size()) < opts_.workers &&
                   claimable > 0 &&
                   now_steady_seconds() >= next_spawn_steady) {
                if (!spawn_worker())
                    break;
                --claimable;
            }
        }

        // Heartbeat watchdog: a worker whose beat file went stale is
        // wedged (SIGSTOP, uninterruptible sleep) — SIGKILL it and let
        // the retry ladder take over.
        for (auto& [pid, proc] : active) {
            if (proc.killed_timeout || proc.killed_chaos)
                continue;
            const double hb_age =
                file_age_seconds(heartbeat_path(opts_.dir, pid));
            const double age = hb_age >= 0
                                   ? hb_age
                                   : now_wall_seconds() - proc.spawn_wall;
            if (age > opts_.heartbeat_timeout_s) {
                PASTA_LOG_WARN << "campaign: worker " << pid
                               << " heartbeat stale (" << age
                               << " s); killing";
                proc.killed_timeout = true;
                ::kill(pid, SIGKILL);
            }
        }

        // Chaos: SIGKILL a randomly chosen worker that is mid-trial
        // (holds a claim note), proving the reclaim/respawn ladder.
        if (chaos_left > 0 && tick >= next_chaos_tick) {
            std::vector<pid_t> eligible;
            for (const auto& [pid, proc] : active)
                if (!proc.killed_timeout && !proc.killed_chaos &&
                    marker_exists(claim_note_path(opts_.dir, pid)))
                    eligible.push_back(pid);
            if (!eligible.empty()) {
                const pid_t victim = eligible[static_cast<std::size_t>(
                    splitmix64(chaos_rng) % eligible.size())];
                PASTA_LOG_WARN << "campaign: chaos SIGKILL of worker "
                               << victim << " ("
                               << chaos_left - 1 << " kill(s) left)";
                active[victim].killed_chaos = true;
                ::kill(victim, SIGKILL);
                obs::record_span("campaign.chaos_kill",
                                 obs::trace_now_ns(), 0);
                obs::counter("campaign.chaos_kills").add(1);
                ++report.chaos_kills_sent;
                --chaos_left;
                next_chaos_tick =
                    tick + 2 +
                    static_cast<int>(splitmix64(chaos_rng) % 8);
            }
        }

        // Reap exits.
        for (;;) {
            int status = 0;
            const pid_t pid = ::waitpid(-1, &status, WNOHANG);
            if (pid <= 0)
                break;
            const auto it = active.find(pid);
            if (it == active.end())
                continue;
            const WorkerProc proc = it->second;
            active.erase(it);

            const std::string note = claim_note_path(opts_.dir, pid);
            const std::string shard = read_small_file(note);
            ::unlink(note.c_str());
            ::unlink(heartbeat_path(opts_.dir, pid).c_str());
            // A dead owner's lease is stale by definition; reap it now
            // instead of waiting for a claimer to notice.
            if (!shard.empty())
                reclaim_lease_if_stale(ldir, shard, opts_.lease_ttl_s);

            const ExitClass cls = classify_exit(
                status, proc.killed_timeout, proc.killed_chaos);
            switch (cls) {
              case ExitClass::kClean:
                ++report.exits_clean;
                consecutive_spawn_failures = 0;
                backoff = opts_.backoff_initial_s;
                break;
              case ExitClass::kNoWork:
                ++report.exits_nowork;
                // Benign, but don't spin respawning into a claim race.
                next_spawn_steady =
                    now_steady_seconds() + 2 * opts_.poll_interval_s;
                break;
              case ExitClass::kChaos:
                // Our own bullet: respawn, no retry charge.
                ++report.exits_signal;
                ++report.respawns;
                obs::record_span("campaign.respawn",
                                 obs::trace_now_ns(), 0);
                obs::counter("campaign.respawns").add(1);
                break;
              default: {
                if (cls == ExitClass::kFailure)
                    ++report.exits_failure;
                else if (cls == ExitClass::kOom)
                    ++report.exits_oom;
                else if (cls == ExitClass::kTimeout)
                    ++report.exits_timeout;
                else
                    ++report.exits_signal;
                ++report.respawns;
                obs::record_span("campaign.respawn",
                                 obs::trace_now_ns(), 0);
                obs::counter("campaign.respawns").add(1);
                next_spawn_steady = now_steady_seconds() + backoff;
                backoff = std::min(backoff * 2, opts_.backoff_max_s);
                const bool done_anyway =
                    !shard.empty() &&
                    marker_exists(done_marker(opts_.dir, shard));
                if (!shard.empty() && !done_anyway) {
                    const int used = ++retries[shard];
                    PASTA_LOG_WARN
                        << "campaign: shard " << shard << " attempt "
                        << used << "/" << opts_.shard_retry_budget
                        << " ended as " << exit_class_name(cls);
                    if (used >= opts_.shard_retry_budget) {
                        // Terminal: durable failed marker plus a
                        // journal line so the merge records the loss.
                        fsutil::write_file_durable(
                            failed_marker(opts_.dir, shard),
                            std::string(exit_class_name(cls)) + "\n");
                        const auto spec_it = by_name.find(shard);
                        if (spec_it != by_name.end()) {
                            RunJournal sj(shard_journal_path(
                                opts_.dir, "_supervisor"));
                            JournalEntry entry;
                            stamp_entry(entry, *spec_it->second);
                            entry.attempts = used;
                            entry.error =
                                std::string("retry budget exhausted (") +
                                exit_class_name(cls) + ")";
                            entry.failure_class =
                                cls == ExitClass::kTimeout ? "timeout"
                                : cls == ExitClass::kOom   ? "oom"
                                                           : "error";
                            sj.append(entry);
                            sj.flush();
                        }
                    }
                }
                break;
              }
            }
        }

        // Live campaign-wide aggregate: tail every shard heartbeat into
        // one summed/merged snapshot, itself an appended heartbeat.
        if (agg_ticks > 0 && tick % agg_ticks == 0)
            report.metrics = aggregate_campaign_metrics(
                opts_.dir, campaign_metrics);

        if (opts_.tick_hook)
            opts_.tick_hook(tick);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts_.poll_interval_s));
        ++tick;
    }

    if (hooked) {
        ::sigaction(SIGTERM, &old_term, nullptr);
        ::sigaction(SIGINT, &old_int, nullptr);
    }

    // Journal the remainder as resumable: the durable shard list a
    // rerun (same campaign dir) will pick up.
    const std::string resume = opts_.dir + "/resume.list";
    if (report.shards_remaining > 0) {
        std::string names;
        for (const ShardSpec& s : shards_)
            if (!marker_exists(done_marker(opts_.dir, s.name)) &&
                !marker_exists(failed_marker(opts_.dir, s.name)))
                names += s.name + "\n";
        fsutil::write_file_durable(resume, names);
        PASTA_LOG_WARN << "campaign: drained with "
                       << report.shards_remaining
                       << " shard(s) unfinished; see " << resume;
    } else {
        ::unlink(resume.c_str());
    }

    report.merge = merge_journal_shards(
        opts_.dir, opts_.dir + "/journal.merged.jsonl");

    // Final telemetry: stop the supervisor's own heartbeat (its last
    // snapshot joins the aggregate), fold every shard heartbeat into
    // one closing campaign snapshot, and merge the per-process traces
    // onto one clock-aligned timeline.
    if (metrics_armed) {
        obs::stop_exporter();
        report.metrics = aggregate_campaign_metrics(
            opts_.dir, campaign_metrics);
    }
    if (obs::spans_enabled())
        obs::write_chrome_trace(opts_.dir + "/trace.supervisor.json");
    report.trace_merged = merge_campaign_traces(
        opts_.dir, opts_.dir + "/campaign.trace.json");

    PASTA_LOG_INFO << "campaign: " << report.shards_done << "/"
                   << report.shards_total << " shard(s) done, "
                   << report.shards_failed << " failed, "
                   << report.merge.entries << " merged journal entries ("
                   << report.merge.duplicates << " duplicate(s) folded)";
    if (metrics_armed) {
        PASTA_LOG_INFO << "campaign: aggregated "
                       << report.metrics.shard_files
                       << " metrics heartbeat(s) into "
                       << campaign_metrics;
    }
    return report;
}

// ---- merge ----------------------------------------------------------

MergeStats
merge_journal_shards(const std::string& dir,
                     const std::string& merged_path)
{
    MergeStats stats;
    const std::string merged_name =
        fs::path(merged_path).filename().string();

    // Exactly-once selection per (tensor, kernel, format, shard) key:
    // a successful entry beats any progress/failure line for the same
    // key; among non-ok lines the furthest partition progress wins
    // (then last-read, matching the journal's own last-wins replay).
    std::map<std::string, JournalEntry> best;
    std::vector<std::string> shard_files;
    for (const auto& ent : fs::directory_iterator(dir)) {
        if (!ent.is_regular_file())
            continue;
        const std::string name = ent.path().filename().string();
        if (name.rfind("journal.", 0) != 0 || name == merged_name ||
            name.size() < 6 ||
            name.compare(name.size() - 6, 6, ".jsonl") != 0)
            continue;
        shard_files.push_back(ent.path().string());
    }
    std::sort(shard_files.begin(), shard_files.end());
    stats.shard_files = shard_files.size();

    for (const std::string& path : shard_files) {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            JournalEntry entry;
            if (!parse_json_line(line, entry))
                continue;  // torn shard tail; the shard rerun covers it
            ++stats.lines;
            const std::string key =
                RunJournal::key(entry.tensor_id, entry.kernel,
                                entry.format, entry.shard);
            const auto it = best.find(key);
            if (it == best.end()) {
                best.emplace(key, std::move(entry));
                continue;
            }
            JournalEntry& held = it->second;
            const bool replace =
                entry.ok != held.ok
                    ? entry.ok
                    : entry.partitions_done >= held.partitions_done;
            if (replace)
                held = std::move(entry);
        }
    }

    std::string out;
    for (const auto& [key, entry] : best) {
        (void)key;
        out += to_json_line(entry);
        out += "\n";
    }
    fsutil::write_file_durable(merged_path, out);
    stats.entries = best.size();
    stats.duplicates = stats.lines - stats.entries;
    return stats;
}

MetricsAggregate
aggregate_campaign_metrics(const std::string& dir,
                           const std::string& out_path)
{
    MetricsAggregate agg;
    const std::string out_name = fs::path(out_path).filename().string();
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto& ent : fs::directory_iterator(dir, ec)) {
        if (!ent.is_regular_file())
            continue;
        const std::string name = ent.path().filename().string();
        if (name.rfind("metrics.", 0) != 0 || name == out_name ||
            name.size() < 6 ||
            name.compare(name.size() - 6, 6, ".jsonl") != 0)
            continue;
        files.push_back(ent.path().string());
    }
    std::sort(files.begin(), files.end());

    std::vector<obs::MetricsSnapshot> snaps;
    for (const std::string& path : files) {
        obs::MetricsSnapshot snap;
        // The newest complete heartbeat is the exporter's truth; a file
        // holding only a torn tail (worker killed mid-first-write)
        // simply contributes nothing this round.
        if (obs::load_last_snapshot(path, snap))
            snaps.push_back(std::move(snap));
    }
    agg.shard_files = snaps.size();
    agg.merged = obs::merge_snapshots(snaps, "campaign");
    agg.merged.ts = now_wall_seconds();

    std::string line = obs::snapshot_to_json(agg.merged);
    line += '\n';
    const int fd = ::open(out_path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd >= 0) {
        if (!fsutil::write_all(fd, line.data(), line.size())) {
            PASTA_LOG_WARN << "campaign: append to " << out_path
                           << " failed: " << std::strerror(errno);
        }
        ::fsync(fd);
        ::close(fd);
    } else {
        PASTA_LOG_WARN << "campaign: cannot append aggregate to "
                       << out_path << ": " << std::strerror(errno);
    }
    return agg;
}

bool
merge_campaign_traces(const std::string& dir, const std::string& out_path)
{
    const std::string out_name = fs::path(out_path).filename().string();
    std::vector<obs::TraceMergeInput> inputs;
    std::error_code ec;
    for (const auto& ent : fs::directory_iterator(dir, ec)) {
        if (!ent.is_regular_file())
            continue;
        const std::string name = ent.path().filename().string();
        if (name.rfind("trace.", 0) != 0 || name == out_name ||
            name.size() < 5 ||
            name.compare(name.size() - 5, 5, ".json") != 0)
            continue;
        // trace.<shard>.json -> the shard name labels the pid track.
        obs::TraceMergeInput input;
        input.path = ent.path().string();
        input.label = name.substr(6, name.size() - 6 - 5);
        inputs.push_back(std::move(input));
    }
    if (inputs.empty())
        return false;  // spans were never armed; nothing to merge
    std::sort(inputs.begin(), inputs.end(),
              [](const obs::TraceMergeInput& a,
                 const obs::TraceMergeInput& b) { return a.path < b.path; });
    return obs::merge_chrome_traces(inputs, out_path);
}

}  // namespace pasta::harness
