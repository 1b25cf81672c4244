/// \file
/// Crash-isolated campaign driver (`pasta_campaign`).
///
/// Shards a small out-of-core campaign — per-dataset TTV and COALESCE
/// trials plus the MTTKRP partition sweep split into partition-range
/// shards — across a pool of fork+exec'd worker processes supervised by
/// harness::Supervisor.  Each worker claims one shard through a
/// crash-safe lease, journals to its own `journal.<shard>.jsonl`, and
/// exits; the supervisor respawns crashed workers under a retry budget
/// and merges the shard journals into `journal.merged.jsonl` with
/// exactly-once dedup at the end.
///
/// Invocation:
///   pasta_campaign            supervisor (spawns workers = itself)
///   pasta_campaign --worker   claim + run ONE shard, then exit (the
///                             supervisor re-execs this; not for hand use)
///
/// Environment: the campaign knobs PASTA_CAMPAIGN_*, PASTA_SHARDS and
/// PASTA_CHAOS (README.md, "Environment knobs").  The delay widens the
/// mid-trial window so chaos kills land.  With PASTA_METRICS armed each
/// worker also exports to <dir>/metrics.<shard>.jsonl and the supervisor
/// folds those into <dir>/metrics.campaign.jsonl (counters summed,
/// gauges maxed, histograms merged); with PASTA_TRACE=spans/full the
/// per-worker traces are merged into <dir>/campaign.trace.json on one
/// epoch clock (see scripts/metrics_summary.py).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/stream.hpp"
#include "harness/campaign.hpp"
#include "io/binary_io.hpp"

namespace {

using namespace pasta;

/// Splits PASTA_CAMPAIGN_DATASETS on commas, dropping empty ids.
std::vector<std::string>
campaign_datasets()
{
    std::istringstream list(config::text("PASTA_CAMPAIGN_DATASETS"));
    std::vector<std::string> ids;
    for (std::string id; std::getline(list, id, ',');)
        if (!id.empty())
            ids.push_back(id);
    return ids;
}

std::string
tensor_stem(const bench::BenchOptions& options, const std::string& id)
{
    return options.cache_dir + "/campaign_" + id;
}

/// Synthesizes the dataset's PSTB v3 file if absent (idempotent: the
/// supervisor does this up front; workers only ever map the file).
void
ensure_tensor_file(const bench::BenchOptions& options,
                   const std::string& id)
{
    const std::string path = tensor_stem(options, id) + ".pstb";
    std::error_code ec;
    std::filesystem::create_directories(options.cache_dir, ec);
    if (std::filesystem::exists(path))
        return;
    const DatasetSpec& spec = find_dataset(id);
    PASTA_LOG_INFO << "campaign: synthesizing " << id << " at scale "
                   << options.scale;
    write_binary_file(path, synthesize_dataset(spec, options.scale));
}

/// The campaign's shard list.  Deterministic given the same environment
/// and cache contents — supervisor and exec'd workers each call this and
/// must agree (the MTTKRP partition plan is a pure function of the
/// mapped file and the memory budget, both shared).
std::vector<harness::ShardSpec>
build_shards(const bench::BenchOptions& options)
{
    std::vector<harness::ShardSpec> shards;
    for (const std::string& id : campaign_datasets()) {
        ensure_tensor_file(options, id);
        MappedCooTensor mapped(tensor_stem(options, id) + ".pstb");

        // Split the MTTKRP sweep over mode 0 into up to 4 contiguous
        // partition-range shards; ranges cover [0, P) exactly once.
        const Size parts = stream::mttkrp_partition_count(mapped, 0);
        const Size ranges = std::min<Size>(4, parts);
        const Size step = (parts + ranges - 1) / ranges;
        for (Size lo = 0; lo < parts; lo += step) {
            const Size hi = std::min(lo + step, parts);
            shards.push_back({id + ".MTTKRP.p" + std::to_string(lo) + "-" +
                                  std::to_string(hi),
                              id, "MTTKRP", "OOC"});
        }
        shards.push_back({id + ".TTV", id, "TTV", "OOC"});
        shards.push_back({id + ".COALESCE", id, "COALESCE", "OOC"});
    }
    return shards;
}

/// Parses the "p<lo>-<hi>" suffix of an MTTKRP range shard name.
bool
parse_range(const std::string& name, Size& lo, Size& hi)
{
    const std::size_t p = name.rfind(".p");
    if (p == std::string::npos)
        return false;
    unsigned long a = 0, b = 0;
    if (std::sscanf(name.c_str() + p, ".p%lu-%lu", &a, &b) != 2)
        return false;
    lo = static_cast<Size>(a);
    hi = static_cast<Size>(b);
    return true;
}

/// Runs one shard's kernel and returns its journal entry.  Everything
/// here executes inside a worker process — a crash costs one attempt.
harness::JournalEntry
run_shard(const bench::BenchOptions& options, const std::string& dir,
          const harness::ShardSpec& spec)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(
        config::integer("PASTA_CAMPAIGN_DELAY_MS")));

    MappedCooTensor mapped(tensor_stem(options, spec.tensor) + ".pstb");
    membudget::MemGovernor::instance().reset_peak();

    stream::StreamDecision decision;
    Timer timer;
    timer.start();
    if (spec.kernel == "MTTKRP") {
        Size lo = 0, hi = 0;
        PASTA_CHECK_MSG(parse_range(spec.name, lo, hi),
                        "bad MTTKRP shard name " << spec.name);
        Rng rng(23);
        std::vector<DenseMatrix> mats;
        for (Size m = 0; m < mapped.order(); ++m)
            mats.push_back(
                DenseMatrix::random(mapped.dim(m), options.rank, rng));
        FactorList factors;
        for (const auto& m : mats)
            factors.push_back(&m);
        DenseMatrix out(mapped.dim(0), options.rank);
        stream::StreamOptions sopts;
        sopts.part_begin = lo;
        sopts.part_end = hi;
        // Per-shard checkpoint: a respawned attempt resumes at the last
        // completed partition of *this range*.
        sopts.checkpoint_path = dir + "/" + spec.name + ".ckpt";
        decision = stream::mttkrp_coo_stream(mapped, factors, 0, out, sopts);
        std::error_code ec;
        std::filesystem::remove(sopts.checkpoint_path, ec);
    } else if (spec.kernel == "TTV") {
        const Size mode = mapped.order() - 1;
        Rng rng(31);
        DenseVector v = DenseVector::random(mapped.dim(mode), rng);
        CooTensor out;
        decision = stream::ttv_coo_budgeted(mapped, v, mode, out);
    } else if (spec.kernel == "COALESCE") {
        const std::string out_path = dir + "/" + spec.name + ".pstb";
        decision = stream::coalesce_budgeted(mapped, out_path);
        std::error_code ec;
        std::filesystem::remove(out_path, ec);
    } else {
        PASTA_CHECK_MSG(false, "unknown campaign kernel " << spec.kernel);
    }

    harness::JournalEntry entry;
    entry.ok = true;
    entry.seconds = timer.elapsed_seconds();
    entry.attempts = 1;
    entry.variant = decision.variant;
    entry.partitions_done = static_cast<int>(decision.partitions);
    entry.partitions_total = static_cast<int>(decision.partitions);
    entry.mem_peak =
        static_cast<double>(membudget::MemGovernor::instance().peak());
    return entry;
}

std::string
self_exe_path(const char* argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace pasta;
    const bench::BenchOptions options = bench::options_from_env();
    std::string dir = config::text("PASTA_CAMPAIGN_DIR");
    if (dir.empty())
        dir = options.cache_dir + "/campaign";

    harness::CampaignOptions copts = harness::CampaignOptions::from_env();
    copts.dir = dir;

    const bool worker_mode = argc > 1 && std::strcmp(argv[1], "--worker") == 0;
    const std::vector<harness::ShardSpec> shards = build_shards(options);
    const harness::ShardBody body =
        [&](const harness::ShardSpec& spec) {
            return run_shard(options, dir, spec);
        };

    if (worker_mode)
        return harness::run_worker_once(copts, shards, body);

    copts.worker_argv = {self_exe_path(argv[0]), "--worker"};
    std::printf("campaign dir %s: %zu shard(s), %d worker(s), %d chaos "
                "kill(s)\n",
                dir.c_str(), shards.size(), copts.workers,
                copts.chaos_kills);

    harness::Supervisor supervisor(copts, shards, body);
    const harness::CampaignReport report = supervisor.run();

    std::printf("\nshards: %zu done, %zu failed, %zu remaining of %zu\n",
                report.shards_done, report.shards_failed,
                report.shards_remaining, report.shards_total);
    std::printf("workers: %d spawned, %d respawned, %d spawn fault(s)\n",
                report.spawns, report.respawns, report.spawn_faults);
    std::printf("exits: %d clean, %d no-work, %d failure, %d oom, "
                "%d signal, %d timeout; %d chaos kill(s) sent\n",
                report.exits_clean, report.exits_nowork,
                report.exits_failure, report.exits_oom,
                report.exits_signal, report.exits_timeout,
                report.chaos_kills_sent);
    std::printf("merge: %zu shard file(s), %zu line(s) -> %zu entries "
                "(%zu duplicate(s) folded) in %s/journal.merged.jsonl\n",
                report.merge.shard_files, report.merge.lines,
                report.merge.entries, report.merge.duplicates, dir.c_str());
    if (report.metrics.shard_files > 0)
        std::printf("metrics: %zu heartbeat file(s) aggregated -> "
                    "%s/metrics.campaign.jsonl (trial.ok=%llu "
                    "trial.failed=%llu)\n",
                    report.metrics.shard_files, dir.c_str(),
                    static_cast<unsigned long long>(
                        report.metrics.merged.counter("campaign.trial.ok")),
                    static_cast<unsigned long long>(
                        report.metrics.merged.counter(
                            "campaign.trial.failed")));
    if (report.trace_merged)
        std::printf("trace: merged per-worker traces -> "
                    "%s/campaign.trace.json\n",
                    dir.c_str());
    if (report.drained)
        std::printf("drained: resume with the same campaign dir "
                    "(%s/resume.list)\n",
                    dir.c_str());
    return report.complete() ? 0 : 1;
}
