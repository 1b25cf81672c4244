/// \file
/// serve_zipf: the serving engine under bench_serving's 30/30/30/10 job
/// mix (TTV-COO, TTV-HiCOO, MTTKRP-HiCOO, MTTKRP-COO) over a corpus of
/// small tensors whose popularity is Zipf(s) distributed, so the plan
/// cache sees both hits and LRU misses.
///
/// One iteration is phase A: load the corpus, fingerprint it, and flood
/// a fresh engine (cold cache) with the same `jobs` requests, closed
/// loop.  finish() runs phase B once: open-loop Poisson arrivals at the
/// fixed `rate` for `phase_b_s` seconds, each job timed from the moment
/// it was due, so a stalled generator shows up as latency; refused jobs
/// count as failures and as missing every latency limit.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "e2e.hpp"
#include "io/binary_io.hpp"
#include "serve/executor.hpp"
#include "serve/plan_cache.hpp"
#include "serve/scheduler.hpp"

namespace e2e {

namespace {

using namespace pasta;
using serve::ServeFormat;
using serve::ServeJob;
using serve::ServeKernel;

struct JobSpec {
    Size tensor = 0;
    ServeKernel kernel = ServeKernel::kTtv;
    ServeFormat format = ServeFormat::kCoo;
    Size mode = 0;
    std::uint64_t operand_seed = 0;
};

/// Keeps the engine's per-job spans out of a traced run: thousands of
/// jobs per phase would overflow the per-thread span rings.  Counters
/// stay armed; job timings come from the job timestamps instead.
class NoJobSpans {
  public:
    NoJobSpans() : prev_(obs::current_mode())
    {
        if (prev_ == obs::TraceMode::kFull)
            obs::set_mode(obs::TraceMode::kCounters);
        else if (prev_ == obs::TraceMode::kSpans)
            obs::set_mode(obs::TraceMode::kOff);
    }
    NoJobSpans(const NoJobSpans&) = delete;
    NoJobSpans& operator=(const NoJobSpans&) = delete;
    ~NoJobSpans() { obs::set_mode(prev_); }

  private:
    obs::TraceMode prev_;
};

/// Milliseconds from `from` to `to` (trace-clock nanoseconds).
double
ms(std::uint64_t from, std::uint64_t to)
{
    return (static_cast<double>(to) - static_cast<double>(from)) * 1e-6;
}

class ServeZipf : public Workload {
  public:
    explicit ServeZipf(const Options& opts)
        : opts_(opts),
          tensors_(static_cast<Size>(opts.num("tensors"))),
          nnz_(static_cast<Size>(opts.num("nnz"))),
          jobs_(static_cast<Size>(opts.num("jobs"))),
          rate_(opts.num("rate")),
          phase_b_s_(opts.num("phase_b_s")),
          zipf_s_(opts.num("zipf_s")),
          verify_every_(static_cast<Size>(opts.num("verify_every")))
    {
        options_.workers = static_cast<int>(opts.num("workers"));
        options_.cache_bytes =
            static_cast<std::uint64_t>(opts.num("cache_mb")) << 20;
        options_.job_threads = static_cast<int>(opts.num("job_threads"));
        options_.block_bits = static_cast<unsigned>(opts.num("block_bits"));
    }

    void setup(Recorder& rec) override
    {
        Rng rng(opts_.seed * 0x5eedc0deULL + 1);
        paths_.clear();
        double write_s = 0;
        for (Size t = 0; t < tensors_; ++t) {
            // Varied tiny 3-order shapes, as in bench_serving.
            const std::vector<Index> dims = {
                static_cast<Index>(48 + 16 * (t % 4)),
                static_cast<Index>(40 + 8 * (t % 3)),
                static_cast<Index>(32 + 8 * (t % 5))};
            const CooTensor x = CooTensor::random(dims, nnz_, rng);
            const std::string path =
                opts_.dir + "/serve_" + std::to_string(t) + ".pstb";
            const double t0 = now_s();
            write_binary_file(path, x);
            write_s += now_s() - t0;
            paths_.push_back(path);
        }
        rec.sample("io.write_s", write_s);

        // Zipf(s) popularity over a seed-shuffled tensor order.
        std::vector<Size> order(tensors_);
        for (Size t = 0; t < tensors_; ++t)
            order[t] = t;
        for (Size t = tensors_; t-- > 1;)
            std::swap(order[t], order[rng.next_below(t + 1)]);
        std::vector<double> cdf(tensors_);
        double total = 0;
        for (Size k = 0; k < tensors_; ++k)
            cdf[k] = total += 1.0 / std::pow(static_cast<double>(k + 1),
                                             zipf_s_);
        auto draw = [&](Size count, std::uint64_t seed_base) {
            std::vector<JobSpec> specs(count);
            for (Size i = 0; i < count; ++i) {
                JobSpec& s = specs[i];
                const double u = rng.next_double() * total;
                const Size k = static_cast<Size>(
                    std::lower_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
                s.tensor = order[std::min(k, tensors_ - 1)];
                const std::uint64_t pick = rng.next_below(10);
                s.kernel = pick < 6 ? ServeKernel::kTtv : ServeKernel::kMttkrp;
                s.format = pick < 3 || pick == 9 ? ServeFormat::kCoo
                                                 : ServeFormat::kHicoo;
                s.mode = rng.next_below(3);
                s.operand_seed = seed_base + i;
            }
            return specs;
        };
        specs_a_ = draw(jobs_, 0x700d0000ULL);
        const Size b_jobs =
            static_cast<Size>(std::ceil(rate_ * phase_b_s_));
        specs_b_ = draw(b_jobs, 0x800d0000ULL);
        gaps_ns_.clear();
        for (Size i = 0; i < b_jobs; ++i)
            gaps_ns_.push_back(static_cast<std::uint64_t>(
                -std::log(1.0 - rng.next_double()) / rate_ * 1e9));
    }

    void iterate(Recorder& rec, bool check) override
    {
        load_corpus(rec);
        std::vector<std::shared_ptr<ServeJob>> jobs = make_jobs(specs_a_);
        serve::Executor executor(options_);
        serve::Scheduler::Stats stats;
        const double wall = rec.timed("serve.phase_a", [&] {
            NoJobSpans no_job_spans;
            serve::Scheduler scheduler(options_, executor);
            for (auto& job : jobs)
                while (!scheduler.submit(job))
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            scheduler.drain();
            stats = scheduler.stats();
        });
        const serve::PlanCache::Stats cache = executor.cache()->stats();

        std::vector<double> exec, hit, miss;
        for (const auto& job : jobs) {
            const double e = ms(job->start_ns, job->done_ns);
            exec.push_back(e);
            (job->cache_hit ? hit : miss).push_back(e);
            rec.cells.add(std::string(serve::serve_kernel_name(job->kernel)) +
                              "/" + serve::serve_format_name(job->format),
                          serve::serve_kernel_name(job->kernel), 0,
                          job_cost(*job), e * 1e-3);
        }
        rec.sample("serve.jobs_per_s", static_cast<double>(jobs.size()) / wall);
        rec.sample("serve.exec_ms.p50", quantile(exec, 0.5));
        rec.sample("serve.exec_ms.p99", quantile(exec, 0.99));
        rec.sample("serve.exec_ms.hit_p50", quantile(hit, 0.5));
        rec.sample("serve.exec_ms.miss_p50", quantile(miss, 0.5));
        rec.sample("serve.cache_hit_ratio", cache.hit_rate());
        rec.sample("serve.cache_evictions",
                   static_cast<double>(cache.evictions));
        rec.sample("serve.cache_resident_mb",
                   static_cast<double>(cache.resident_bytes) / 1048576.0);

        rec.outcome.check(stats.submitted == jobs.size() &&
                              stats.submitted == stats.done + stats.failed &&
                              stats.failed == 0,
                          "phase A accounting: accepted " +
                              std::to_string(stats.submitted) + ", done " +
                              std::to_string(stats.done) + ", failed " +
                              std::to_string(stats.failed));
        if (check)
            rec.untimed([&] { verify(rec, jobs); });
    }

    void finish(Recorder& rec) override
    {
        std::vector<std::shared_ptr<ServeJob>> jobs = make_jobs(specs_b_);
        std::vector<std::uint64_t> due(jobs.size());
        std::vector<bool> accepted(jobs.size(), false);
        serve::Executor executor(options_);
        serve::Scheduler::Stats stats;
        {
            NoJobSpans no_job_spans;
            serve::Scheduler scheduler(options_, executor);
            const std::uint64_t t0 = obs::trace_now_ns();
            const auto clock0 = std::chrono::steady_clock::now();
            std::uint64_t offset = 0;
            for (Size i = 0; i < jobs.size(); ++i) {
                offset += gaps_ns_[i];
                due[i] = t0 + offset;
                std::this_thread::sleep_until(
                    clock0 + std::chrono::nanoseconds(offset));
                accepted[i] = scheduler.submit(jobs[i]);
            }
            scheduler.drain();
            stats = scheduler.stats();
        }

        // Latency from the due time; refused or failed jobs miss every
        // limit, so they enter the percentiles as +infinity.
        constexpr double kMissed = std::numeric_limits<double>::infinity();
        std::vector<double> latency, wait, lag;
        std::uint64_t first_submit = ~0ULL, last_submit = 0;
        Size ok = 0;
        for (Size i = 0; i < jobs.size(); ++i) {
            const ServeJob& job = *jobs[i];
            const bool done =
                accepted[i] && job.current_state() == serve::JobState::kDone;
            ok += done;
            if (accepted[i]) {
                first_submit = std::min(first_submit, job.submit_ns);
                last_submit = std::max(last_submit, job.submit_ns);
                lag.push_back(ms(due[i], job.submit_ns));
                wait.push_back(ms(job.submit_ns, job.start_ns));
            }
            latency.push_back(done ? ms(due[i], job.done_ns) : kMissed);
        }
        rec.outcome.attempted += jobs.size();
        rec.outcome.failed += jobs.size() - ok;
        if (ok != jobs.size())
            rec.outcome.errors.push_back(
                "phase B: " + std::to_string(jobs.size() - ok) + " of " +
                std::to_string(jobs.size()) + " jobs refused or failed");
        rec.metrics["serve.latency_ms.p50"] = quantile(latency, 0.5);
        rec.metrics["serve.latency_ms.p99"] = quantile(latency, 0.99);
        rec.metrics["serve.wait_ms.p50"] = quantile(wait, 0.5);
        rec.metrics["serve.wait_ms.p99"] = quantile(wait, 0.99);
        rec.metrics["serve.gen_lag_ms.p99"] = quantile(lag, 0.99);
        if (stats.submitted > 1)
            rec.metrics["serve.achieved_rate"] =
                static_cast<double>(stats.submitted - 1) /
                (static_cast<double>(last_submit - first_submit) * 1e-9);
        rec.metrics["serve.max_queue_depth"] =
            static_cast<double>(stats.max_queue_depth);
        rec.metrics["serve.steals"] = static_cast<double>(stats.stolen);
        rec.metrics["serve.shed"] = static_cast<double>(stats.shed);
    }

    double reserved_seconds() const override { return phase_b_s_ + 0.5; }

  private:
    void load_corpus(Recorder& rec)
    {
        corpus_.clear();
        double load_s = 0, bytes = 0;
        for (const std::string& path : paths_) {
            load_s += rec.timed("io.load", [&] {
                corpus_.push_back(
                    std::make_shared<const CooTensor>(read_binary_file(path)));
            });
            bytes += static_cast<double>(std::filesystem::file_size(path));
        }
        rec.sample("io.load_mb_per_s", bytes / 1048576.0 / load_s);
        rec.timed("serve.fingerprint", [&] {
            fingerprints_.clear();
            for (const auto& x : corpus_)
                fingerprints_.push_back(serve::tensor_fingerprint(*x));
        });
    }

    std::vector<std::shared_ptr<ServeJob>>
    make_jobs(const std::vector<JobSpec>& specs) const
    {
        std::vector<std::shared_ptr<ServeJob>> jobs;
        for (Size i = 0; i < specs.size(); ++i) {
            auto job = std::make_shared<ServeJob>();
            job->id = i;
            job->tensor = corpus_[specs[i].tensor];
            job->fingerprint = fingerprints_[specs[i].tensor];
            job->kernel = specs[i].kernel;
            job->format = specs[i].format;
            job->mode = specs[i].mode;
            job->operand_seed = specs[i].operand_seed;
            jobs.push_back(std::move(job));
        }
        return jobs;
    }

    /// Table I flops of one job (TTV 2M, MTTKRP NMR).
    static KernelCost job_cost(const ServeJob& job)
    {
        const double m = static_cast<double>(job.tensor->nnz());
        KernelCost cost;
        cost.flops = job.kernel == ServeKernel::kTtv
                         ? 2 * m
                         : 3 * m * static_cast<double>(job.rank);
        return cost;
    }

    /// Every job must be done; every verify_every-th job is re-run
    /// through a cache-off executor on one thread and must reproduce its
    /// checksum bit for bit.
    void verify(Recorder& rec,
                const std::vector<std::shared_ptr<ServeJob>>& jobs) const
    {
        serve::ServeOptions uncached = options_;
        uncached.cache_bytes = 0;
        serve::Executor reference(uncached);
        ThreadBudgetScope one_thread(1);
        for (Size i = 0; i < jobs.size(); ++i) {
            const ServeJob& job = *jobs[i];
            const bool done = job.current_state() == serve::JobState::kDone;
            if (i % verify_every_ != 0) {
                rec.outcome.check(done, "job " + std::to_string(i) +
                                            " failed: " + job.error);
                continue;
            }
            ServeJob again;
            again.tensor = job.tensor;
            again.fingerprint = job.fingerprint;
            again.kernel = job.kernel;
            again.format = job.format;
            again.mode = job.mode;
            again.rank = job.rank;
            again.operand_seed = job.operand_seed;
            const std::uint64_t checksum = reference.execute(again).checksum;
            rec.outcome.check(done && checksum == job.result_checksum,
                              "job " + std::to_string(i) +
                                  " differs from its uncached re-run");
        }
    }

    const Options& opts_;
    Size tensors_;
    Size nnz_;
    Size jobs_;
    double rate_;
    double phase_b_s_;
    double zipf_s_;
    Size verify_every_;
    serve::ServeOptions options_;
    std::vector<std::string> paths_;
    std::vector<JobSpec> specs_a_, specs_b_;
    std::vector<std::uint64_t> gaps_ns_;
    std::vector<std::shared_ptr<const CooTensor>> corpus_;
    std::vector<std::uint64_t> fingerprints_;
};

}  // namespace

std::unique_ptr<Workload>
make_serve_zipf(const Options& opts)
{
    return std::make_unique<ServeZipf>(opts);
}

}  // namespace e2e
