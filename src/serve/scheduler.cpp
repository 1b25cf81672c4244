#include "serve/scheduler.hpp"

#include <chrono>
#include <exception>

#include "common/membudget.hpp"
#include "common/parallel.hpp"
#include "harness/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pasta::serve {

namespace {

/// Jobs pulled from the injection queue in one visit: one to run, the
/// rest spilled into the worker's own deque where thieves can reach
/// them.  Keeps the injection lock off the per-job fast path.
constexpr std::size_t kSpillBatch = 32;

std::uint64_t
xorshift64(std::uint64_t& state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/// Per-job telemetry handles, looked up once per process so no per-job
/// path takes the registry mutex.  Latencies, outcomes, sheds and the
/// queue high-water mark are live (always on); steals and OOM retries are
/// model counters, recorded only under PASTA_TRACE=counters|full.
struct ServeMetrics {
    obs::Histogram& wait_us = obs::histogram("serve.wait_us");
    obs::Histogram& exec_us = obs::histogram("serve.exec_us");
    obs::Counter& done = obs::counter("serve.done");
    obs::Counter& failed = obs::counter("serve.failed");
    obs::Counter& shed = obs::counter("serve.shed");
    obs::Counter& steal = obs::counter("serve.steal");
    obs::Counter& retry_oom = obs::counter("serve.retry_oom");
    obs::Gauge& queue_depth = obs::gauge("serve.queue_depth");
};

ServeMetrics&
metrics()
{
    static ServeMetrics m;
    return m;
}

}  // namespace

Scheduler::Scheduler(const ServeOptions& options, Executor& executor)
    : options_(options), executor_(executor)
{
    int workers = options_.workers > 0 ? options_.workers : num_threads();
    if (workers < 1)
        workers = 1;
    deques_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        deques_.push_back(
            std::make_unique<StealDeque<ServeJob*>>(1024));
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { worker_loop(i); });
}

Scheduler::~Scheduler()
{
    stop();
}

bool
Scheduler::submit(std::shared_ptr<ServeJob> job)
{
    if (queued_.load(std::memory_order_relaxed) >=
        static_cast<std::int64_t>(options_.queue_bound)) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        metrics().shed.add(1);
        return false;
    }
    job->submit_ns = obs::trace_now_ns();
    job->state.store(static_cast<int>(JobState::kQueued),
                     std::memory_order_release);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    queued_.fetch_add(1, std::memory_order_relaxed);
    note_depth();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        injection_.push_back(job.get());
        retained_.push_back(std::move(job));
    }
    work_cv_.notify_one();
    return true;
}

void
Scheduler::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drain_cv_.wait(lock, [this] {
        return outstanding_.load(std::memory_order_acquire) == 0;
    });
    retained_.clear();
}

void
Scheduler::stop()
{
    if (threads_.empty())
        return;
    drain();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_)
        t.join();
    threads_.clear();
}

Scheduler::Stats
Scheduler::stats() const
{
    Stats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.done = done_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.stolen = stolen_.load(std::memory_order_relaxed);
    s.oom_retries = oom_retries_.load(std::memory_order_relaxed);
    s.max_queue_depth = max_depth_.load(std::memory_order_relaxed);
    return s;
}

void
Scheduler::note_depth()
{
    const std::int64_t d = queued_.load(std::memory_order_relaxed);
    if (d <= 0)
        return;
    const std::uint64_t depth = static_cast<std::uint64_t>(d);
    std::uint64_t prev = max_depth_.load(std::memory_order_relaxed);
    while (prev < depth &&
           !max_depth_.compare_exchange_weak(prev, depth,
                                             std::memory_order_relaxed))
        ;
    metrics().queue_depth.max(static_cast<double>(depth));
}

void
Scheduler::worker_loop(int worker)
{
    std::uint64_t steal_state =
        0x9e3779b97f4a7c15ULL ^ (static_cast<std::uint64_t>(worker) + 1);
    for (;;) {
        if (ServeJob* job = next_job(worker, steal_state)) {
            execute(job, worker);
            continue;
        }
        std::unique_lock<std::mutex> lock(mutex_);
        if (stopping_ && injection_.empty())
            return;
        if (!injection_.empty())
            continue;  // raced with a submit; go pull it
        // Timed wait: a short timeout bounds how long stealable work in
        // another worker's deque (which cannot signal this condvar) can
        // sit unnoticed.
        work_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
}

ServeJob*
Scheduler::next_job(int worker, std::uint64_t& steal_state)
{
    StealDeque<ServeJob*>& own = *deques_[static_cast<std::size_t>(worker)];
    ServeJob* job = nullptr;
    if (own.pop_bottom(job))
        return job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!injection_.empty()) {
            job = injection_.front();
            injection_.pop_front();
            std::size_t spilled = 0;
            while (spilled < kSpillBatch && !injection_.empty()) {
                ServeJob* extra = injection_.front();
                if (!own.push_bottom(extra))
                    break;
                injection_.pop_front();
                ++spilled;
            }
            if (spilled > 0)
                work_cv_.notify_all();  // spilled jobs are stealable now
            return job;
        }
    }
    const std::size_t n = deques_.size();
    if (n < 2)
        return nullptr;
    const std::size_t start = static_cast<std::size_t>(
        xorshift64(steal_state) % n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t victim = (start + i) % n;
        if (victim == static_cast<std::size_t>(worker))
            continue;
        if (deques_[victim]->steal_top(job)) {
            stolen_.fetch_add(1, std::memory_order_relaxed);
            if (obs::counters_enabled())
                metrics().steal.add(1);
            return job;
        }
    }
    return nullptr;
}

void
Scheduler::execute(ServeJob* job, int worker)
{
    (void)worker;
    queued_.fetch_sub(1, std::memory_order_relaxed);
    job->state.store(static_cast<int>(JobState::kRunning),
                     std::memory_order_release);
    if (job->start_ns == 0) {
        job->start_ns = obs::trace_now_ns();
        metrics().wait_us.record((job->start_ns - job->submit_ns) / 1000);
    }
    ++job->attempts;
    // Intra-kernel parallel_for calls inside this job see the per-job
    // budget, so N workers never fan out into N * num_threads() threads.
    ThreadBudgetScope budget(options_.job_threads);
    try {
        // Chaos hook: PASTA_FAULT=kernel.run:... makes this job fail or
        // stall; the catch below keeps the blast radius to the job.
        harness::fault_point("kernel.run");
        const ExecResult r = executor_.execute(*job);
        job->result_checksum = r.checksum;
        job->cache_hit = r.cache_hit;
        finish(job, JobState::kDone);
    } catch (const membudget::HostOomError& e) {
        if (!job->degraded) {
            // Retry lane: one more attempt with the cache emptied and
            // the plan built uncached.  Front of the injection queue —
            // the job already waited its turn once.
            job->degraded = true;
            job->error = e.what();
            oom_retries_.fetch_add(1, std::memory_order_relaxed);
            if (obs::counters_enabled())
                metrics().retry_oom.add(1);
            job->state.store(static_cast<int>(JobState::kQueued),
                             std::memory_order_release);
            queued_.fetch_add(1, std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                injection_.push_front(job);
            }
            work_cv_.notify_one();
            return;
        }
        job->error = e.what();
        finish(job, JobState::kFailed);
    } catch (const std::exception& e) {
        job->error = e.what();
        finish(job, JobState::kFailed);
    } catch (...) {
        job->error = "unknown error";
        finish(job, JobState::kFailed);
    }
}

void
Scheduler::finish(ServeJob* job, JobState state)
{
    job->done_ns = obs::trace_now_ns();
    metrics().exec_us.record(job->done_ns > job->start_ns
                           ? (job->done_ns - job->start_ns) / 1000
                           : 0);
    if (state == JobState::kDone) {
        done_.fetch_add(1, std::memory_order_relaxed);
        metrics().done.add(1);
    } else {
        failed_.fetch_add(1, std::memory_order_relaxed);
        metrics().failed.add(1);
    }
    job->state.store(static_cast<int>(state), std::memory_order_release);
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        drain_cv_.notify_all();
    }
}

}  // namespace pasta::serve
