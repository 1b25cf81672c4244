/// \file
/// Multi-tenant serving benchmark (src/serve end to end).
///
/// The workload is the ROADMAP's serving traffic shape: thousands of
/// small TTV/MTTKRP requests against a small corpus of tiny tensors,
/// where plan build / format conversion dominates the kernel itself and
/// the plan cache is what turns that from per-request into per-tensor
/// work.  Three phases run the *same deterministic job list*:
///
///   nocache  closed-loop flood, plan cache off — the baseline
///   cache    closed-loop flood, plan cache on  — steady-state
///            throughput; compared job-by-job against the nocache
///            checksums (the bit-identity witness) and against its
///            throughput (PASTA_SERVE_MIN_SPEEDUP gates the ratio)
///   poisson  open-loop Poisson arrivals at PASTA_SERVE_RATE jobs/s
///            (default: 60% of the measured cached throughput) —
///            latency under load: p50/p95/p99, queue depth, shedding
///
/// Every phase prints per-(kernel, format) throughput, latency
/// percentiles, and cache hit rate, plus an accounting line asserting
/// that every accepted job reached exactly one terminal state; rows go
/// to $PASTA_CSV_DIR/serving.csv (variant = phase) for
/// scripts/bench_compare.py, and a summary line per phase goes to the
/// JSONL journal.  With PASTA_FAULT=kernel.run:... armed this doubles
/// as the chaos harness: injected faults fail individual jobs, the
/// accounting still balances, and the binary exits 0 unless jobs were
/// lost (scripts/check_serve.sh runs exactly that).
///
/// Extra environment (on top of the bench_common set, all strictly
/// validated):
///   PASTA_SERVE_JOBS         jobs per phase (default 2000)
///   PASTA_SERVE_TENSORS      corpus size (default 8)
///   PASTA_SERVE_NNZ          nnz per corpus tensor (default 16384)
///   PASTA_SERVE_RATE         poisson arrival rate, jobs/s (0 skips the
///                            phase; default: auto from cached phase)
///   PASTA_SERVE_MIN_SPEEDUP  minimum cache-on / cache-off throughput
///                            ratio (0 = report only; default 0)
///   PASTA_SERVE_WORKERS / _QUEUE / _CACHE_BYTES / _JOB_THREADS
///                            engine knobs, see src/serve/job.hpp
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "harness/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/executor.hpp"
#include "serve/plan_cache.hpp"
#include "serve/scheduler.hpp"

namespace {

using namespace pasta;
using serve::ServeFormat;
using serve::ServeJob;
using serve::ServeKernel;

long
env_long(const char* name, long fallback, long lo, long hi)
{
    const char* s = std::getenv(name);
    if (!s || !*s)
        return fallback;
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    PASTA_CHECK_MSG(*end == '\0' && v >= lo && v <= hi,
                    name << "='" << s << "' must be an integer in [" << lo
                         << ", " << hi << "]");
    return v;
}

double
env_double(const char* name, double fallback, double lo, double hi)
{
    const char* s = std::getenv(name);
    if (!s || !*s)
        return fallback;
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    PASTA_CHECK_MSG(*end == '\0' && v >= lo && v <= hi,
                    name << "='" << s << "' must be a number in [" << lo
                         << ", " << hi << "]");
    return v;
}

/// The immutable description one job is built from in every phase: the
/// job list is a pure function of the config, so nocache and cache
/// phases execute byte-identical requests.
struct JobSpec {
    Size tensor = 0;
    ServeKernel kernel = ServeKernel::kTtv;
    ServeFormat format = ServeFormat::kCoo;
    Size mode = 0;
    std::uint64_t operand_seed = 0;
};

struct Corpus {
    std::vector<std::shared_ptr<const CooTensor>> tensors;
    std::vector<std::uint64_t> fingerprints;
};

Corpus
make_corpus(Size count, Size nnz)
{
    Corpus corpus;
    Rng rng(0x5eedc0de);
    for (Size t = 0; t < count; ++t) {
        // Varied tiny 3-order shapes so modes/fibers differ per tensor.
        const std::vector<Index> dims = {
            static_cast<Index>(48 + 16 * (t % 4)),
            static_cast<Index>(40 + 8 * (t % 3)),
            static_cast<Index>(32 + 8 * (t % 5))};
        auto tensor = std::make_shared<CooTensor>(
            CooTensor::random(dims, nnz, rng));
        corpus.fingerprints.push_back(serve::tensor_fingerprint(*tensor));
        corpus.tensors.push_back(std::move(tensor));
    }
    return corpus;
}

std::vector<JobSpec>
make_specs(Size jobs, const Corpus& corpus)
{
    std::vector<JobSpec> specs;
    specs.reserve(jobs);
    Rng rng(0x0b5e55ed);
    for (Size i = 0; i < jobs; ++i) {
        JobSpec spec;
        spec.tensor = rng.next_below(corpus.tensors.size());
        // Mix: 30% TTV/COO, 30% TTV/HiCOO, 30% MTTKRP/HiCOO (all
        // cache-served), 10% MTTKRP/COO (planless — the cacheless
        // control group inside every phase).
        const std::uint64_t pick = rng.next_below(10);
        if (pick < 3) {
            spec.kernel = ServeKernel::kTtv;
            spec.format = ServeFormat::kCoo;
        } else if (pick < 6) {
            spec.kernel = ServeKernel::kTtv;
            spec.format = ServeFormat::kHicoo;
        } else if (pick < 9) {
            spec.kernel = ServeKernel::kMttkrp;
            spec.format = ServeFormat::kHicoo;
        } else {
            spec.kernel = ServeKernel::kMttkrp;
            spec.format = ServeFormat::kCoo;
        }
        spec.mode =
            rng.next_below(corpus.tensors[spec.tensor]->order());
        spec.operand_seed = 0x700d0000ULL + i;
        specs.push_back(spec);
    }
    return specs;
}

/// Everything one phase produced, for reporting and cross-phase checks.
struct PhaseResult {
    std::string variant;
    double wall = 0;
    std::vector<std::shared_ptr<ServeJob>> jobs;
    std::vector<bool> accepted;
    serve::Scheduler::Stats sched;
    serve::PlanCache::Stats cache;
    double mem_peak = 0;
    std::uint64_t refused = 0;  ///< open-loop submissions shed at admission

    std::uint64_t lost() const
    {
        return sched.submitted - sched.done - sched.failed;
    }
    double jobs_per_sec() const
    {
        return wall > 0 ? static_cast<double>(sched.done) / wall : 0;
    }
};

PhaseResult
run_phase(const std::string& variant, const std::vector<JobSpec>& specs,
          const Corpus& corpus, serve::ServeOptions options,
          double poisson_rate)
{
    PhaseResult result;
    result.variant = variant;
    result.jobs.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const JobSpec& spec = specs[i];
        auto job = std::make_shared<ServeJob>();
        job->id = i;
        job->tensor = corpus.tensors[spec.tensor];
        job->fingerprint = corpus.fingerprints[spec.tensor];
        job->kernel = spec.kernel;
        job->format = spec.format;
        job->mode = spec.mode;
        job->operand_seed = spec.operand_seed;
        result.jobs.push_back(std::move(job));
    }
    result.accepted.assign(specs.size(), false);

    membudget::MemGovernor::instance().reset_peak();
    serve::Executor executor(options);
    serve::Scheduler scheduler(options, executor);

    Timer timer;
    timer.start();
    if (poisson_rate <= 0) {
        // Closed-loop flood: backpressure (shed) means wait and resubmit.
        for (std::size_t i = 0; i < result.jobs.size(); ++i) {
            while (!scheduler.submit(result.jobs[i]))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
            result.accepted[i] = true;
        }
    } else {
        // Open loop: exponential inter-arrival gaps, submissions never
        // wait for the system — an overloaded engine sheds.
        Rng arrivals(0xa221e5);
        auto next = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < result.jobs.size(); ++i) {
            const double u = arrivals.next_double();
            next += std::chrono::nanoseconds(static_cast<std::int64_t>(
                -std::log(1.0 - u) / poisson_rate * 1e9));
            std::this_thread::sleep_until(next);
            result.accepted[i] = scheduler.submit(result.jobs[i]);
            if (!result.accepted[i])
                ++result.refused;
        }
    }
    scheduler.drain();
    result.wall = timer.elapsed_seconds();
    result.sched = scheduler.stats();
    scheduler.stop();
    if (executor.cache())
        result.cache = executor.cache()->stats();
    result.mem_peak =
        static_cast<double>(membudget::MemGovernor::instance().peak());
    return result;
}

/// Percentile in ms out of a µs-valued histogram sample.  Bounded
/// memory: O(nonzero buckets) per group instead of one double per job,
/// with relative error capped by the bucket width (~3.125%, see
/// obs/metrics.hpp).
double
hist_percentile_ms(const obs::HistSample& sample, double q)
{
    return sample.percentile(q) / 1e3;
}

/// Per-(kernel, format) aggregate of one phase.
struct GroupRow {
    std::string kernel;
    std::string format;
    std::uint64_t jobs = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t hits = 0;
    double p50_ms = 0, p95_ms = 0, p99_ms = 0;

    double hit_rate() const
    {
        return done ? static_cast<double>(hits) /
                          static_cast<double>(done)
                    : 0;
    }
};

std::vector<GroupRow>
summarize(const PhaseResult& phase)
{
    std::map<std::pair<int, int>, GroupRow> groups;
    std::map<std::pair<int, int>, std::unique_ptr<obs::Histogram>>
        latencies;
    obs::Histogram all;
    GroupRow total;
    total.kernel = "*";
    total.format = "*";
    for (std::size_t i = 0; i < phase.jobs.size(); ++i) {
        if (!phase.accepted[i])
            continue;
        const ServeJob& job = *phase.jobs[i];
        const std::pair<int, int> key(static_cast<int>(job.kernel),
                                      static_cast<int>(job.format));
        GroupRow& row = groups[key];
        row.kernel = serve::serve_kernel_name(job.kernel);
        row.format = serve::serve_format_name(job.format);
        ++row.jobs;
        ++total.jobs;
        if (job.current_state() == serve::JobState::kDone) {
            ++row.done;
            ++total.done;
            if (job.cache_hit) {
                ++row.hits;
                ++total.hits;
            }
            const std::uint64_t us = static_cast<std::uint64_t>(
                job.total_seconds() * 1e6);
            auto& hist = latencies[key];
            if (!hist)
                hist = std::make_unique<obs::Histogram>();
            hist->record(us);
            all.record(us);
        } else {
            ++row.failed;
            ++total.failed;
        }
    }
    std::vector<GroupRow> rows;
    for (auto& [key, row] : groups) {
        if (auto it = latencies.find(key); it != latencies.end()) {
            const obs::HistSample sample = it->second->snapshot();
            row.p50_ms = hist_percentile_ms(sample, 0.50);
            row.p95_ms = hist_percentile_ms(sample, 0.95);
            row.p99_ms = hist_percentile_ms(sample, 0.99);
        }
        rows.push_back(row);
    }
    const obs::HistSample sample = all.snapshot();
    total.p50_ms = hist_percentile_ms(sample, 0.50);
    total.p95_ms = hist_percentile_ms(sample, 0.95);
    total.p99_ms = hist_percentile_ms(sample, 0.99);
    rows.push_back(total);
    return rows;
}

void
print_phase(const PhaseResult& phase, const std::vector<GroupRow>& rows)
{
    std::printf("\nphase %-8s %6llu jobs in %.3f s -> %.0f jobs/s  "
                "(steals %llu, max queue %llu, oom retries %llu)\n",
                phase.variant.c_str(),
                static_cast<unsigned long long>(phase.sched.submitted),
                phase.wall, phase.jobs_per_sec(),
                static_cast<unsigned long long>(phase.sched.stolen),
                static_cast<unsigned long long>(
                    phase.sched.max_queue_depth),
                static_cast<unsigned long long>(phase.sched.oom_retries));
    std::printf("  %-8s %-6s %7s %7s %7s %9s %9s %9s %9s\n", "kernel",
                "format", "jobs", "done", "failed", "hit_rate", "p50_ms",
                "p95_ms", "p99_ms");
    for (const auto& row : rows)
        std::printf("  %-8s %-6s %7llu %7llu %7llu %8.1f%% %9.3f %9.3f "
                    "%9.3f\n",
                    row.kernel.c_str(), row.format.c_str(),
                    static_cast<unsigned long long>(row.jobs),
                    static_cast<unsigned long long>(row.done),
                    static_cast<unsigned long long>(row.failed),
                    100.0 * row.hit_rate(), row.p50_ms, row.p95_ms,
                    row.p99_ms);
    if (phase.cache.hits + phase.cache.misses)
        std::printf("  cache: %llu hits / %llu misses (%.1f%%), "
                    "%llu evictions, %llu entries, %llu resident bytes\n",
                    static_cast<unsigned long long>(phase.cache.hits),
                    static_cast<unsigned long long>(phase.cache.misses),
                    100.0 * phase.cache.hit_rate(),
                    static_cast<unsigned long long>(phase.cache.evictions),
                    static_cast<unsigned long long>(phase.cache.entries),
                    static_cast<unsigned long long>(
                        phase.cache.resident_bytes));
    std::printf("  accounting[%s]: accepted=%llu done=%llu failed=%llu "
                "shed=%llu refused=%llu lost=%llu\n",
                phase.variant.c_str(),
                static_cast<unsigned long long>(phase.sched.submitted),
                static_cast<unsigned long long>(phase.sched.done),
                static_cast<unsigned long long>(phase.sched.failed),
                static_cast<unsigned long long>(phase.sched.shed),
                static_cast<unsigned long long>(phase.refused),
                static_cast<unsigned long long>(phase.lost()));
}

void
export_csv(const std::string& path, const std::vector<PhaseResult>& phases,
           const std::vector<std::vector<GroupRow>>& summaries)
{
    std::ofstream out(path);
    if (!out) {
        PASTA_LOG_WARN << "cannot write " << path;
        return;
    }
    out << "tensor,kernel,format,variant,jobs,done,failed,shed,"
           "jobs_per_sec,p50_ms,p95_ms,p99_ms,cache_hit_rate,steals,"
           "max_queue_depth,mem_peak\n";
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const PhaseResult& phase = phases[p];
        for (const GroupRow& row : summaries[p]) {
            const bool is_total = row.kernel == "*";
            const double rate =
                phase.wall > 0
                    ? static_cast<double>(row.done) / phase.wall
                    : 0;
            out << "serve_corpus," << row.kernel << ',' << row.format
                << ',' << phase.variant << ',' << row.jobs << ','
                << row.done << ',' << row.failed << ','
                << (is_total ? phase.sched.shed + phase.refused : 0)
                << ',' << rate << ',' << row.p50_ms << ',' << row.p95_ms
                << ',' << row.p99_ms << ',' << row.hit_rate() << ','
                << (is_total ? phase.sched.stolen : 0) << ','
                << (is_total ? phase.sched.max_queue_depth : 0) << ','
                << (is_total ? phase.mem_peak : 0) << '\n';
        }
    }
    std::printf("\nCSV written to %s\n", path.c_str());
}

void
journal_phase(harness::RunJournal& journal, const PhaseResult& phase)
{
    if (!journal.enabled())
        return;
    harness::JournalEntry entry;
    entry.tensor_id = "serve_corpus";
    entry.kernel = "SERVE";
    entry.format = phase.variant;
    entry.ok = phase.lost() == 0;
    entry.seconds = phase.wall;
    entry.attempts = 1;
    entry.variant = phase.variant;
    entry.obs_flops = phase.jobs_per_sec();  // rate, for the record
    entry.mem_peak = phase.mem_peak;
    entry.error = entry.ok ? "" : "jobs lost";
    entry.failure_class = entry.ok ? "" : "error";
    journal.append(entry);
}

}  // namespace

int
main()
{
    using namespace pasta;
    const bench::BenchOptions bench_options = bench::options_from_env();

    const Size jobs = static_cast<Size>(
        env_long("PASTA_SERVE_JOBS", 2000, 1, 100000000));
    const Size tensors = static_cast<Size>(
        env_long("PASTA_SERVE_TENSORS", 8, 1, 100000));
    const Size nnz = static_cast<Size>(
        env_long("PASTA_SERVE_NNZ", 16384, 8, 1 << 28));
    const double rate_env =
        env_double("PASTA_SERVE_RATE", -1.0, -1.0, 1e12);
    const double min_speedup =
        env_double("PASTA_SERVE_MIN_SPEEDUP", 0.0, 0.0, 1e6);

    serve::ServeOptions serve_options = serve::ServeOptions::from_env();
    serve_options.block_bits = bench_options.block_bits;

    std::printf("serving corpus: %zu tensors x %zu nnz, %zu jobs/phase, "
                "cache budget %llu bytes\n",
                tensors, nnz, jobs,
                static_cast<unsigned long long>(
                    serve_options.cache_bytes));
    const Corpus corpus = make_corpus(tensors, nnz);
    const std::vector<JobSpec> specs = make_specs(jobs, corpus);

    harness::RunJournal journal;
    if (bench_options.journal_enabled) {
        std::error_code ec;
        std::filesystem::create_directories(bench_options.cache_dir, ec);
        journal = harness::RunJournal(bench_options.cache_dir +
                                      "/serving.journal.jsonl");
    }

    std::vector<PhaseResult> phases;
    std::vector<std::vector<GroupRow>> summaries;

    // ---- phase 1: cache off (baseline) ----
    serve::ServeOptions nocache = serve_options;
    nocache.cache_bytes = 0;
    phases.push_back(run_phase("nocache", specs, corpus, nocache, 0));
    summaries.push_back(summarize(phases.back()));
    print_phase(phases.back(), summaries.back());
    journal_phase(journal, phases.back());

    // ---- phase 2: cache on, same jobs ----
    phases.push_back(run_phase("cache", specs, corpus, serve_options, 0));
    summaries.push_back(summarize(phases.back()));
    print_phase(phases.back(), summaries.back());
    journal_phase(journal, phases.back());

    // Bit-identity: the cache must not change a single output bit.
    std::uint64_t compared = 0, mismatched = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ServeJob& a = *phases[0].jobs[i];
        const ServeJob& b = *phases[1].jobs[i];
        if (a.current_state() != serve::JobState::kDone ||
            b.current_state() != serve::JobState::kDone)
            continue;
        ++compared;
        if (a.result_checksum != b.result_checksum)
            ++mismatched;
    }
    std::printf("\nbit-identity: %llu jobs compared cached vs uncached, "
                "%llu mismatched\n",
                static_cast<unsigned long long>(compared),
                static_cast<unsigned long long>(mismatched));

    const double speedup =
        phases[0].jobs_per_sec() > 0
            ? phases[1].jobs_per_sec() / phases[0].jobs_per_sec()
            : 0;
    std::printf("cache speedup: %.2fx (%.0f -> %.0f jobs/s)%s\n", speedup,
                phases[0].jobs_per_sec(), phases[1].jobs_per_sec(),
                min_speedup > 0 ? (speedup >= min_speedup ? "  [gate ok]"
                                                          : "  [gate FAILED]")
                                : "");

    // ---- phase 3: open-loop Poisson arrivals ----
    double rate = rate_env;
    if (rate < 0)
        rate = 0.6 * phases[1].jobs_per_sec();  // auto: stable territory
    if (rate > 0) {
        phases.push_back(
            run_phase("poisson", specs, corpus, serve_options, rate));
        summaries.push_back(summarize(phases.back()));
        std::printf("\npoisson arrivals at %.0f jobs/s (open loop)",
                    rate);
        print_phase(phases.back(), summaries.back());
        journal_phase(journal, phases.back());
    }

    if (const char* dir = std::getenv("PASTA_CSV_DIR")) {
        if (*dir) {
            std::error_code ec;
            std::filesystem::create_directories(dir, ec);
            export_csv(std::string(dir) + "/serving.csv", phases,
                       summaries);
        }
    }
    bench::maybe_export_trace("serving");

    bool bad = false;
    for (const PhaseResult& phase : phases) {
        if (phase.lost() != 0) {
            std::fprintf(stderr, "FAIL: phase %s lost %llu job(s)\n",
                         phase.variant.c_str(),
                         static_cast<unsigned long long>(phase.lost()));
            bad = true;
        }
    }
    if (mismatched != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu cached results differ from uncached\n",
                     static_cast<unsigned long long>(mismatched));
        bad = true;
    }
    if (min_speedup > 0 && speedup < min_speedup) {
        std::fprintf(stderr,
                     "FAIL: cache speedup %.2fx below required %.2fx\n",
                     speedup, min_speedup);
        bad = true;
    }
    return bad ? 1 : 0;
}
