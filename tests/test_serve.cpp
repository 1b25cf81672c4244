// Tests for the multi-tenant serving engine (src/serve): work-stealing
// deque, plan cache (hit/miss/eviction/ref-count/single-flight),
// executor determinism, scheduler accounting, plan-cache hit/miss
// counts under a concurrent flood, chaos isolation, OOM retry lane,
// and exactly-once telemetry of the serving events.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "harness/fault.hpp"
#include "obs/counters.hpp"
#include "serve/deque.hpp"
#include "serve/executor.hpp"
#include "serve/plan_cache.hpp"
#include "serve/scheduler.hpp"

namespace pasta::serve {
namespace {

CooTensor
small_tensor(std::uint64_t seed = 5, Size nnz = 400)
{
    Rng rng(seed);
    return CooTensor::random({16, 12, 10}, nnz, rng);
}

std::shared_ptr<ServeJob>
make_job(std::shared_ptr<const CooTensor> tensor, std::uint64_t id,
         ServeKernel kernel = ServeKernel::kTtv,
         ServeFormat format = ServeFormat::kCoo, Size mode = 0)
{
    auto job = std::make_shared<ServeJob>();
    job->id = id;
    job->tensor = std::move(tensor);
    job->kernel = kernel;
    job->format = format;
    job->mode = mode;
    job->operand_seed = 1000 + id;
    return job;
}

TEST(StealDeque, OwnerLifoThiefFifo)
{
    StealDeque<long> deque(64);
    for (long i = 0; i < 10; ++i)
        EXPECT_TRUE(deque.push_bottom(i));
    long item = -1;
    EXPECT_TRUE(deque.pop_bottom(item));
    EXPECT_EQ(item, 9);  // owner pops newest
    EXPECT_TRUE(deque.steal_top(item));
    EXPECT_EQ(item, 0);  // thief takes oldest
    EXPECT_TRUE(deque.steal_top(item));
    EXPECT_EQ(item, 1);
    // Drain the rest through the owner.
    int drained = 0;
    while (deque.pop_bottom(item))
        ++drained;
    EXPECT_EQ(drained, 7);
    EXPECT_FALSE(deque.pop_bottom(item));
    EXPECT_FALSE(deque.steal_top(item));
}

TEST(StealDeque, RejectsPushWhenFull)
{
    StealDeque<long> deque(64);  // rounds to capacity 64
    EXPECT_EQ(deque.capacity(), 64u);
    for (long i = 0; i < 64; ++i)
        EXPECT_TRUE(deque.push_bottom(i));
    EXPECT_FALSE(deque.push_bottom(64));
    long item;
    EXPECT_TRUE(deque.steal_top(item));
    EXPECT_TRUE(deque.push_bottom(64));  // space again
}

TEST(StealDeque, ConcurrentStealsConsumeEachItemOnce)
{
    constexpr long kItems = 20000;
    StealDeque<long> deque(32768);
    std::vector<std::atomic<int>> seen(kItems);
    for (auto& s : seen)
        s.store(0);
    std::atomic<bool> done{false};
    std::atomic<long> consumed{0};

    auto consume = [&](long item) {
        seen[static_cast<std::size_t>(item)].fetch_add(1);
        consumed.fetch_add(1);
    };
    std::vector<std::thread> thieves;
    for (int t = 0; t < 3; ++t)
        thieves.emplace_back([&] {
            long item;
            while (!done.load() || consumed.load() < kItems) {
                if (deque.steal_top(item))
                    consume(item);
                else
                    std::this_thread::yield();
            }
        });
    // Owner: push everything, popping a few along the way.
    long item;
    for (long i = 0; i < kItems; ++i) {
        while (!deque.push_bottom(i))
            if (deque.pop_bottom(item))
                consume(item);
        if (i % 7 == 0 && deque.pop_bottom(item))
            consume(item);
    }
    while (deque.pop_bottom(item))
        consume(item);
    done.store(true);
    for (auto& t : thieves)
        t.join();

    EXPECT_EQ(consumed.load(), kItems);
    for (long i = 0; i < kItems; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1)
            << "item " << i;
}

TEST(PlanCacheTest, FingerprintMatchesContentOnly)
{
    const CooTensor a = small_tensor(5);
    const CooTensor b = small_tensor(5);
    CooTensor c = small_tensor(5);
    EXPECT_EQ(tensor_fingerprint(a), tensor_fingerprint(b));
    c.values()[0] += 1.0;
    EXPECT_NE(tensor_fingerprint(a), tensor_fingerprint(c));
    const CooTensor d = small_tensor(6);
    EXPECT_NE(tensor_fingerprint(a), tensor_fingerprint(d));
}

TEST(PlanCacheTest, HitReturnsSamePlan)
{
    const CooTensor x = small_tensor();
    PlanCache cache(8ULL << 20, 1);
    auto builder = [&] {
        return build_plan(x, ServeKernel::kTtv, ServeFormat::kCoo, 0, 7);
    };
    const std::string key = plan_key(tensor_fingerprint(x),
                                     ServeKernel::kTtv, ServeFormat::kCoo,
                                     0, 16, 7);
    bool hit = true;
    auto p1 = cache.get_or_build(key, builder, &hit);
    EXPECT_FALSE(hit);
    auto p2 = cache.get_or_build(key, builder, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(p1.get(), p2.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanCacheTest, LruEvictionUnderBytePressure)
{
    const CooTensor x = small_tensor();
    auto bytes_of = [&](Size mode) {
        return build_plan(x, ServeKernel::kTtv, ServeFormat::kCoo, mode, 7)
            ->bytes;
    };
    const std::uint64_t one = bytes_of(0);
    ASSERT_GT(one, 0u);
    // Room for two plans, not three (single shard: deterministic LRU).
    PlanCache cache(one * 5 / 2, 1);
    const std::uint64_t fp = tensor_fingerprint(x);
    auto get = [&](Size mode) {
        return cache.get_or_build(
            plan_key(fp, ServeKernel::kTtv, ServeFormat::kCoo, mode, 16,
                     7),
            [&] {
                return build_plan(x, ServeKernel::kTtv, ServeFormat::kCoo,
                                  mode, 7);
            });
    };
    get(0);
    get(1);
    get(2);  // evicts mode 0 (LRU)
    PlanCache::Stats stats = cache.stats();
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_LE(stats.resident_bytes, cache.byte_budget());
    bool hit = true;
    cache.get_or_build(
        plan_key(fp, ServeKernel::kTtv, ServeFormat::kCoo, 0, 16, 7),
        [&] {
            return build_plan(x, ServeKernel::kTtv, ServeFormat::kCoo, 0,
                              7);
        },
        &hit);
    EXPECT_FALSE(hit);  // mode 0 was evicted
}

TEST(PlanCacheTest, EvictedPlanStaysAliveAndAccountedWhileReferenced)
{
    auto& governor = membudget::MemGovernor::instance();
    const CooTensor x = small_tensor();
    const std::uint64_t base = governor.reserved();
    PlanCache cache(8ULL << 20, 1);
    std::shared_ptr<const Plan> held = cache.get_or_build(
        plan_key(tensor_fingerprint(x), ServeKernel::kTtv,
                 ServeFormat::kCoo, 0, 16, 7),
        [&] {
            return build_plan(x, ServeKernel::kTtv, ServeFormat::kCoo, 0,
                              7);
        });
    const std::uint64_t bytes = held->bytes;
    ASSERT_GT(bytes, 0u);
    EXPECT_EQ(governor.reserved(), base + bytes);

    cache.trim(0);  // evict everything; `held` keeps the last reference
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(governor.reserved(), base + bytes)
        << "reservation must outlive eviction while the plan is in use";
    EXPECT_NO_THROW(held->ttv_coo->out_pattern.nnz());

    held.reset();  // last reference: deleter returns the bytes
    EXPECT_EQ(governor.reserved(), base);
}

TEST(PlanCacheTest, ConcurrentMissesBuildOnce)
{
    const CooTensor x = small_tensor();
    PlanCache cache(8ULL << 20);
    const std::string key = plan_key(tensor_fingerprint(x),
                                     ServeKernel::kTtv, ServeFormat::kCoo,
                                     0, 16, 7);
    std::atomic<int> builds{0};
    auto builder = [&] {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return build_plan(x, ServeKernel::kTtv, ServeFormat::kCoo, 0, 7);
    };
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const Plan>> got(8);
    for (int t = 0; t < 8; ++t)
        threads.emplace_back(
            [&, t] { got[t] = cache.get_or_build(key, builder); });
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1) << "single-flight build per key";
    for (const auto& p : got) {
        ASSERT_TRUE(p);
        EXPECT_EQ(p.get(), got[0].get());
    }
}

TEST(ExecutorTest, CachedResultsAreBitIdenticalToUncached)
{
    auto tensor = std::make_shared<const CooTensor>(small_tensor());
    const std::vector<std::pair<ServeKernel, ServeFormat>> combos = {
        {ServeKernel::kTtv, ServeFormat::kCoo},
        {ServeKernel::kTtv, ServeFormat::kHicoo},
        {ServeKernel::kMttkrp, ServeFormat::kCoo},
        {ServeKernel::kMttkrp, ServeFormat::kHicoo},
    };
    ServeOptions cached_options;  // default cache on, job_threads 1
    ServeOptions uncached_options;
    uncached_options.cache_bytes = 0;
    Executor cached(cached_options);
    Executor uncached(uncached_options);
    std::uint64_t id = 0;
    for (const auto& [kernel, format] : combos) {
        auto j1 = make_job(tensor, id, kernel, format, 1);
        auto j2 = make_job(tensor, id, kernel, format, 1);
        auto j3 = make_job(tensor, id, kernel, format, 1);
        const ExecResult cold = cached.execute(*j1);   // build + cache
        const ExecResult warm = cached.execute(*j2);   // cache hit
        const ExecResult plain = uncached.execute(*j3);
        EXPECT_NE(cold.checksum, 0u);
        EXPECT_EQ(cold.checksum, warm.checksum)
            << serve_kernel_name(kernel) << "/"
            << serve_format_name(format);
        EXPECT_EQ(cold.checksum, plain.checksum)
            << serve_kernel_name(kernel) << "/"
            << serve_format_name(format);
        if (kernel != ServeKernel::kMttkrp || format != ServeFormat::kCoo)
            EXPECT_TRUE(warm.cache_hit);
        ++id;
    }
}

TEST(SchedulerTest, RunsEveryJobExactlyOnce)
{
    auto tensor = std::make_shared<const CooTensor>(small_tensor());
    ServeOptions options;
    options.workers = 4;
    Executor executor(options);
    Scheduler scheduler(options, executor);
    constexpr std::uint64_t kJobs = 300;
    std::vector<std::shared_ptr<ServeJob>> jobs;
    for (std::uint64_t i = 0; i < kJobs; ++i) {
        auto job = make_job(
            tensor, i,
            i % 2 ? ServeKernel::kMttkrp : ServeKernel::kTtv,
            i % 3 ? ServeFormat::kHicoo : ServeFormat::kCoo, i % 3);
        ASSERT_TRUE(scheduler.submit(job));
        jobs.push_back(std::move(job));
    }
    scheduler.drain();
    const Scheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, kJobs);
    EXPECT_EQ(stats.done, kJobs);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.shed, 0u);
    for (const auto& job : jobs) {
        EXPECT_EQ(job->current_state(), JobState::kDone);
        EXPECT_EQ(job->attempts, 1);
        EXPECT_NE(job->result_checksum, 0u);
        EXPECT_GE(job->done_ns, job->start_ns);
        EXPECT_GE(job->start_ns, job->submit_ns);
    }
}

TEST(SchedulerTest, CachedFloodMissesOncePerPlanKeyAndMatchesUncached)
{
    // Several tensors x all four (kernel, format) pairs x every mode,
    // each combination repeated: the cache must build each plan key
    // exactly once (single flight, no eviction at the default budget),
    // serve every other plannable job from the cache, and change no
    // output bit.  The counts hold at any interleaving of the workers.
    std::vector<std::shared_ptr<const CooTensor>> tensors;
    for (std::uint64_t seed : {5, 6, 7})
        tensors.push_back(
            std::make_shared<const CooTensor>(small_tensor(seed)));
    const std::pair<ServeKernel, ServeFormat> pairs[] = {
        {ServeKernel::kTtv, ServeFormat::kCoo},
        {ServeKernel::kTtv, ServeFormat::kHicoo},
        {ServeKernel::kMttkrp, ServeFormat::kCoo},
        {ServeKernel::kMttkrp, ServeFormat::kHicoo},
    };
    constexpr int kRepeats = 4;
    auto job_list = [&] {
        std::vector<std::shared_ptr<ServeJob>> jobs;
        for (int r = 0; r < kRepeats; ++r)
            for (const auto& tensor : tensors)
                for (const auto& [kernel, format] : pairs)
                    for (Size mode = 0; mode < tensor->order(); ++mode)
                        jobs.push_back(make_job(tensor, jobs.size(),
                                                kernel, format, mode));
        return jobs;
    };
    auto flood = [](const ServeOptions& options, Executor& executor,
                    const std::vector<std::shared_ptr<ServeJob>>& jobs) {
        Scheduler scheduler(options, executor);
        for (const auto& job : jobs)
            EXPECT_TRUE(scheduler.submit(job));
        scheduler.drain();
        EXPECT_EQ(scheduler.stats().done, jobs.size());
    };

    ServeOptions cached_options;
    cached_options.workers = 4;
    Executor cached(cached_options);
    ASSERT_NE(cached.cache(), nullptr);
    const auto cached_jobs = job_list();
    flood(cached_options, cached, cached_jobs);

    ServeOptions uncached_options = cached_options;
    uncached_options.cache_bytes = 0;
    Executor uncached(uncached_options);
    ASSERT_EQ(uncached.cache(), nullptr);
    const auto uncached_jobs = job_list();
    flood(uncached_options, uncached, uncached_jobs);

    std::set<std::string> keys;
    std::uint64_t plannable = 0;
    for (const auto& job : cached_jobs) {
        if (job->kernel == ServeKernel::kMttkrp &&
            job->format == ServeFormat::kCoo)
            continue;  // MTTKRP-COO builds no plan
        ++plannable;
        keys.insert(plan_key(tensor_fingerprint(*job->tensor), job->kernel,
                             job->format, job->mode, job->rank,
                             cached_options.block_bits));
    }
    const PlanCache::Stats stats = cached.cache()->stats();
    // Three plannable (kernel, format) pairs x three modes per tensor.
    EXPECT_EQ(keys.size(), tensors.size() * 3 * 3);
    EXPECT_EQ(stats.misses, keys.size());
    EXPECT_EQ(stats.hits, plannable - keys.size());
    EXPECT_EQ(stats.evictions, 0u);

    ASSERT_EQ(cached_jobs.size(), uncached_jobs.size());
    for (std::size_t i = 0; i < cached_jobs.size(); ++i) {
        ASSERT_EQ(cached_jobs[i]->current_state(), JobState::kDone);
        EXPECT_NE(cached_jobs[i]->result_checksum, 0u);
        EXPECT_EQ(cached_jobs[i]->result_checksum,
                  uncached_jobs[i]->result_checksum)
            << "job " << i << " "
            << serve_kernel_name(cached_jobs[i]->kernel) << "/"
            << serve_format_name(cached_jobs[i]->format);
    }
}

TEST(SchedulerTest, ServeEventsAreRecordedExactlyOnceWithCountersArmed)
{
    // Armed model counters and the live serving counters share one
    // registry, so each job's completion and cache outcome must appear
    // in the snapshot exactly once.
    obs::set_mode(obs::TraceMode::kCounters);
    obs::reset_metrics();
    auto tensor = std::make_shared<const CooTensor>(small_tensor());
    ServeOptions options;
    options.workers = 2;
    Executor executor(options);
    ASSERT_NE(executor.cache(), nullptr);
    Scheduler scheduler(options, executor);
    constexpr std::uint64_t kJobs = 40;
    for (std::uint64_t i = 0; i < kJobs; ++i)
        ASSERT_TRUE(scheduler.submit(
            make_job(tensor, i, ServeKernel::kTtv,
                     i % 2 ? ServeFormat::kHicoo : ServeFormat::kCoo,
                     i % 3)));
    scheduler.drain();
    const obs::MetricsSnapshot snap = obs::snapshot_counters();
    obs::set_mode(obs::TraceMode::kOff);

    const Scheduler::Stats stats = scheduler.stats();
    const PlanCache::Stats cache = executor.cache()->stats();
    EXPECT_EQ(stats.done, kJobs);
    EXPECT_GT(cache.hits, 0u);
    EXPECT_GT(cache.misses, 0u);
    EXPECT_EQ(snap.counter("serve.done"), stats.done);
    EXPECT_EQ(snap.counter("serve.failed"), stats.failed);
    EXPECT_EQ(snap.counter("serve.cache_hit"), cache.hits);
    EXPECT_EQ(snap.counter("serve.cache_miss"), cache.misses);
    const obs::HistSample* exec = snap.hist("serve.exec_us");
    ASSERT_NE(exec, nullptr);
    EXPECT_EQ(exec->count, kJobs);
}

TEST(SchedulerTest, InjectedKernelFaultsFailOnlyTheirJobs)
{
    auto& injector = harness::FaultInjector::instance();
    injector.configure(harness::parse_fault_spec("kernel.run:throw:0.5"),
                       7);
    auto tensor = std::make_shared<const CooTensor>(small_tensor());
    ServeOptions options;
    options.workers = 4;
    Executor executor(options);
    Scheduler scheduler(options, executor);
    constexpr std::uint64_t kJobs = 200;
    std::vector<std::shared_ptr<ServeJob>> jobs;
    for (std::uint64_t i = 0; i < kJobs; ++i) {
        auto job = make_job(tensor, i);
        ASSERT_TRUE(scheduler.submit(job));
        jobs.push_back(std::move(job));
    }
    scheduler.drain();
    Scheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.done + stats.failed, kJobs) << "no job lost";
    EXPECT_GT(stats.failed, 0u);
    EXPECT_GT(stats.done, 0u);
    for (const auto& job : jobs) {
        ASSERT_TRUE(job->terminal());
        if (job->current_state() == JobState::kFailed)
            EXPECT_FALSE(job->error.empty());
    }
    injector.clear();

    // The workers survived the faults: a clean batch completes fully.
    for (std::uint64_t i = 0; i < 50; ++i) {
        auto job = make_job(tensor, kJobs + i);
        ASSERT_TRUE(scheduler.submit(job));
    }
    scheduler.drain();
    stats = scheduler.stats();
    EXPECT_EQ(stats.done + stats.failed, kJobs + 50);
    EXPECT_EQ(stats.done, kJobs + 50 - stats.failed);
}

TEST(SchedulerTest, AdmissionControlShedsBeyondQueueBound)
{
    auto& injector = harness::FaultInjector::instance();
    // First job hangs ~0.4 s so the single worker stays busy while the
    // queue fills.
    harness::FaultSpec spec;
    harness::FaultRule rule;
    rule.point = "kernel.run";
    rule.action = harness::FaultAction::kHang;
    rule.at = 1;
    rule.hang_seconds = 0.4;
    spec.rules.push_back(rule);
    injector.configure(spec, 1);

    auto tensor = std::make_shared<const CooTensor>(small_tensor());
    ServeOptions options;
    options.workers = 1;
    options.queue_bound = 1;
    Executor executor(options);
    Scheduler scheduler(options, executor);
    std::vector<bool> accepted;
    accepted.push_back(scheduler.submit(make_job(tensor, 0)));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (std::uint64_t i = 1; i < 6; ++i)
        accepted.push_back(scheduler.submit(make_job(tensor, i)));
    scheduler.drain();
    injector.clear();

    const Scheduler::Stats stats = scheduler.stats();
    EXPECT_GT(stats.shed, 0u) << "overload must shed";
    std::uint64_t taken = 0;
    for (const bool a : accepted)
        taken += a;
    EXPECT_EQ(stats.submitted, taken);
    EXPECT_EQ(stats.done + stats.failed, taken) << "accepted == terminal";
}

TEST(SchedulerTest, OomRetryLaneDegradesAndSucceeds)
{
    auto& governor = membudget::MemGovernor::instance();
    ASSERT_EQ(governor.budget(), 0u) << "test assumes no armed budget";
    auto tensor = std::make_shared<const CooTensor>(small_tensor());

    // Measure (tracking works with no budget armed): the build peak of
    // job B's plan and the resident bytes of job A's.
    governor.reset_peak();
    const std::uint64_t base = governor.reserved();
    std::uint64_t peak_b = 0;
    {
        auto pb = build_plan(*tensor, ServeKernel::kTtv, ServeFormat::kCoo,
                             1, 7);
        peak_b = governor.peak() - base;
    }
    std::uint64_t bytes_a = 0;
    {
        bytes_a = build_plan(*tensor, ServeKernel::kTtv,
                             ServeFormat::kCoo, 0, 7)
                      ->bytes;
    }
    ASSERT_GT(bytes_a, 0u);
    ASSERT_GE(peak_b, bytes_a / 2);

    // Budget admits one cached plan OR one build — not both at once:
    // job B OOMs while A sits in the cache, then succeeds once the
    // retry lane empties the cache.
    governor.configure(base + peak_b + bytes_a / 2);

    ServeOptions options;
    options.workers = 1;
    Executor executor(options);
    Scheduler scheduler(options, executor);
    auto job_a = make_job(tensor, 0, ServeKernel::kTtv, ServeFormat::kCoo,
                          0);
    ASSERT_TRUE(scheduler.submit(job_a));
    scheduler.drain();
    ASSERT_EQ(job_a->current_state(), JobState::kDone);

    auto job_b = make_job(tensor, 1, ServeKernel::kTtv, ServeFormat::kCoo,
                          1);
    ASSERT_TRUE(scheduler.submit(job_b));
    scheduler.drain();
    governor.configure(0);

    EXPECT_EQ(job_b->current_state(), JobState::kDone)
        << "retry lane should succeed after trimming the cache: "
        << job_b->error;
    EXPECT_TRUE(job_b->degraded);
    EXPECT_EQ(job_b->attempts, 2);
    EXPECT_EQ(scheduler.stats().oom_retries, 1u);
    EXPECT_NE(job_b->result_checksum, 0u);
}

}  // namespace
}  // namespace pasta::serve
