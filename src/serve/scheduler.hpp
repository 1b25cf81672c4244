/// \file
/// Work-stealing job scheduler for the multi-tenant serving engine.
///
/// Topology: a bounded global injection queue (submissions land here;
/// admission control sheds beyond ServeOptions::queue_bound) feeding
/// per-worker Chase–Lev deques on a persistent thread pool.  A worker
/// prefers its own deque (LIFO, cache-warm), then pulls a batch from
/// the injection queue (keeping one job, spilling the rest into its
/// deque for others to steal), then steals from a random victim (FIFO
/// — the oldest job, which is also the latency-fairest).  Idle workers
/// park on a condvar with a short timeout so transiently stealable work
/// is never missed.
///
/// Isolation: each job executes under a per-job thread budget
/// (ThreadBudgetScope) so intra-kernel parallel_for calls never
/// oversubscribe the machine when thousands of jobs run concurrently,
/// and under a catch-everything guard so an injected kernel fault
/// (PASTA_FAULT kernel.run — chaos testing) fails only its job, never
/// its worker.  membudget::HostOomError gets one retry through the
/// degrade lane (cache emptied, plan built uncached) before the job is
/// journaled as failed — the serving mirror of the PR 6 trial ladder.
///
/// Accounting invariant: every accepted job reaches exactly one
/// terminal state (kDone or kFailed) before drain() returns; shed jobs
/// are refused at submit() and never enter the engine.  test_serve's
/// chaos flood (SchedulerTest.InjectedKernelFaultsFailOnlyTheirJobs)
/// asserts this.
///
/// Telemetry: queue wait and execution time land in the serve.wait_us
/// and serve.exec_us histograms (always on), not in per-job spans, which
/// would overflow the per-thread span rings within one flood.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/deque.hpp"
#include "serve/executor.hpp"
#include "serve/job.hpp"

namespace pasta::serve {

class Scheduler {
  public:
    /// Starts the worker pool immediately.  `executor` must outlive the
    /// scheduler.
    Scheduler(const ServeOptions& options, Executor& executor);

    /// Stops and joins the workers (drains accepted jobs first).
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Admission control: accepts `job` unless the engine already holds
    /// queue_bound not-yet-running jobs, in which case the job is shed
    /// (returns false, job untouched, counter serve.shed).  An accepted
    /// job is retained by the scheduler until drain().
    bool submit(std::shared_ptr<ServeJob> job);

    /// Blocks until every accepted job is terminal.  Does not stop the
    /// workers; more jobs may be submitted afterwards.
    void drain();

    /// Drains, then stops and joins the worker pool.  Idempotent.
    void stop();

    int workers() const { return static_cast<int>(threads_.size()); }

    /// Monotonic totals since construction.
    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t shed = 0;
        std::uint64_t done = 0;
        std::uint64_t failed = 0;
        std::uint64_t stolen = 0;
        std::uint64_t oom_retries = 0;
        std::uint64_t max_queue_depth = 0;
    };
    Stats stats() const;

  private:
    void worker_loop(int worker);
    ServeJob* next_job(int worker, std::uint64_t& steal_state);
    void execute(ServeJob* job, int worker);
    void finish(ServeJob* job, JobState state);
    void note_depth();

    ServeOptions options_;
    Executor& executor_;

    std::vector<std::unique_ptr<StealDeque<ServeJob*>>> deques_;
    std::vector<std::thread> threads_;

    /// Injection queue + all scheduler bookkeeping.
    mutable std::mutex mutex_;
    std::condition_variable work_cv_;   ///< workers park here
    std::condition_variable drain_cv_;  ///< drain()/stop() park here
    std::deque<ServeJob*> injection_;
    /// Keeps accepted jobs alive independent of the submitter.
    std::vector<std::shared_ptr<ServeJob>> retained_;
    bool stopping_ = false;

    /// Jobs accepted but not yet executing (admission bound base).
    std::atomic<std::int64_t> queued_{0};
    /// Jobs accepted but not yet terminal (drain latch).
    std::atomic<std::int64_t> outstanding_{0};

    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> done_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> stolen_{0};
    std::atomic<std::uint64_t> oom_retries_{0};
    std::atomic<std::uint64_t> max_depth_{0};
};

}  // namespace pasta::serve
