#include "serve/plan_cache.hpp"

#include <sstream>

#include "common/membudget.hpp"
#include "core/convert.hpp"
#include "io/binary_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pasta::serve {

namespace {

/// Cache telemetry handles (always on), looked up once per process so no
/// per-job path takes the registry mutex.
struct CacheMetrics {
    obs::Counter& hit = obs::counter("serve.cache_hit");
    obs::Counter& miss = obs::counter("serve.cache_miss");
    obs::Counter& evict = obs::counter("serve.cache_evict");
    obs::Gauge& bytes = obs::gauge("serve.cache_bytes");
};

CacheMetrics&
metrics()
{
    static CacheMetrics m;
    return m;
}

}  // namespace

const char*
serve_kernel_name(ServeKernel kernel)
{
    switch (kernel) {
      case ServeKernel::kTtv: return "TTV";
      case ServeKernel::kMttkrp: return "MTTKRP";
    }
    return "?";
}

const char*
serve_format_name(ServeFormat format)
{
    switch (format) {
      case ServeFormat::kCoo: return "COO";
      case ServeFormat::kHicoo: return "HiCOO";
    }
    return "?";
}

std::uint64_t
tensor_fingerprint(const CooTensor& x)
{
    const Size order = x.order();
    std::uint64_t h = fnv1a64(&order, sizeof(order));
    h = fnv1a64(x.dims().data(), x.dims().size() * sizeof(Index), h);
    const Size nnz = x.nnz();
    h = fnv1a64(&nnz, sizeof(nnz), h);
    for (Size m = 0; m < order; ++m)
        h = fnv1a64(x.mode_indices(m).data(), nnz * sizeof(Index), h);
    h = fnv1a64(x.values().data(), nnz * sizeof(Value), h);
    return h;
}

std::string
plan_key(std::uint64_t fingerprint, ServeKernel kernel, ServeFormat format,
         Size mode, Size rank, unsigned block_bits)
{
    std::ostringstream oss;
    oss << std::hex << fingerprint << '/' << serve_kernel_name(kernel)
        << '/' << serve_format_name(format) << "/m" << std::dec << mode
        << "/r" << rank << "/b" << block_bits;
    return oss.str();
}

namespace {

/// Wraps a built plan so its governor reservation lives exactly as long
/// as the last reference: a job holding the plan across an eviction
/// keeps the bytes accounted; dropping the final shared_ptr returns
/// them.
std::shared_ptr<const Plan>
with_reservation(std::unique_ptr<Plan> plan, std::uint64_t bytes)
{
    plan->bytes = bytes;
    if (bytes == 0)
        return std::shared_ptr<const Plan>(plan.release());
    membudget::reserve(bytes, "serve.plan");
    return std::shared_ptr<const Plan>(plan.release(), [bytes](Plan* p) {
        membudget::release(bytes);
        delete p;
    });
}

std::uint64_t
ttv_coo_plan_bytes(const CooTtvPlan& plan)
{
    return plan.sorted.storage_bytes() + plan.out_pattern.storage_bytes() +
           plan.fibers.fptr.size() * sizeof(Size);
}

std::uint64_t
ttv_hicoo_plan_bytes(const HicooTtvPlan& plan)
{
    return plan.input.storage_bytes() + plan.out_pattern.storage_bytes() +
           plan.fptr.size() * sizeof(Size);
}

}  // namespace

std::shared_ptr<const Plan>
build_plan(const CooTensor& tensor, ServeKernel kernel, ServeFormat format,
           Size mode, unsigned block_bits)
{
    PASTA_SPAN("serve.plan_build");
    auto plan = std::make_unique<Plan>();
    plan->kernel = kernel;
    plan->format = format;
    std::uint64_t bytes = 0;
    switch (kernel) {
      case ServeKernel::kTtv:
        if (format == ServeFormat::kCoo) {
            auto p = std::make_shared<CooTtvPlan>(
                ttv_plan_coo(tensor, mode));
            bytes = ttv_coo_plan_bytes(*p);
            plan->ttv_coo = std::move(p);
        } else {
            auto p = std::make_shared<HicooTtvPlan>(
                ttv_plan_hicoo(tensor, mode, block_bits));
            bytes = ttv_hicoo_plan_bytes(*p);
            plan->ttv_hicoo = std::move(p);
        }
        break;
      case ServeKernel::kMttkrp:
        if (format == ServeFormat::kHicoo) {
            auto h = std::make_shared<HiCooTensor>(
                coo_to_hicoo(tensor, block_bits));
            // Materialize the owner schedules now (conversion-time work
            // the kernel would otherwise pay lazily on first use).
            for (Size m = 0; m < tensor.order(); ++m)
                (void)h->owner_schedule(m);
            bytes = h->storage_bytes();
            plan->mttkrp_hicoo = std::move(h);
        }
        // MTTKRP/COO runs straight off the request tensor: no plan.
        break;
    }
    return with_reservation(std::move(plan), bytes);
}

PlanCache::PlanCache(std::uint64_t byte_budget, int shards)
    : byte_budget_(byte_budget)
{
    if (shards < 1)
        shards = 1;
    shard_budget_ = byte_budget / static_cast<std::uint64_t>(shards);
    if (byte_budget != 0 && shard_budget_ == 0)
        shard_budget_ = 1;
    shards_.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

PlanCache::Shard&
PlanCache::shard_for(const std::string& key)
{
    const std::size_t h = std::hash<std::string>{}(key);
    return *shards_[h % shards_.size()];
}

void
PlanCache::evict_locked(Shard& shard, std::uint64_t target)
{
    while (shard.bytes > target && !shard.lru.empty()) {
        const std::string& victim = shard.lru.back();
        auto it = shard.map.find(victim);
        if (it != shard.map.end()) {
            shard.bytes -= it->second.bytes;
            resident_.fetch_sub(it->second.bytes,
                                std::memory_order_relaxed);
            shard.map.erase(it);
        }
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
        metrics().evict.add(1);
    }
}

std::shared_ptr<const Plan>
PlanCache::get_or_build(
    const std::string& key,
    const std::function<std::shared_ptr<const Plan>()>& builder,
    bool* was_hit)
{
    if (was_hit)
        *was_hit = false;
    if (!enabled()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        metrics().miss.add(1);
        return builder();
    }
    Shard& shard = shard_for(key);
    std::shared_ptr<std::mutex> build_mutex;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             it->second.lru_it);
            hits_.fetch_add(1, std::memory_order_relaxed);
            metrics().hit.add(1);
            if (was_hit)
                *was_hit = true;
            return it->second.plan;
        }
        auto& slot = shard.building[key];
        if (!slot)
            slot = std::make_shared<std::mutex>();
        build_mutex = slot;
    }
    // Single flight: first arrival builds, the rest block here and find
    // the entry on re-check.  The shard lock is NOT held during the
    // build, so hits on other keys proceed.
    std::lock_guard<std::mutex> build_lock(*build_mutex);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             it->second.lru_it);
            hits_.fetch_add(1, std::memory_order_relaxed);
            metrics().hit.add(1);
            if (was_hit)
                *was_hit = true;
            return it->second.plan;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    metrics().miss.add(1);
    std::shared_ptr<const Plan> plan;
    try {
        plan = builder();
    } catch (...) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.building.erase(key);
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.building.erase(key);
        auto it = shard.map.find(key);
        if (it == shard.map.end() && plan->bytes <= shard_budget_) {
            shard.lru.push_front(key);
            shard.map.emplace(key,
                              Entry{plan, plan->bytes, shard.lru.begin()});
            shard.bytes += plan->bytes;
            resident_.fetch_add(plan->bytes, std::memory_order_relaxed);
            evict_locked(shard, shard_budget_);
            metrics().bytes.set(static_cast<double>(
                resident_.load(std::memory_order_relaxed)));
        }
    }
    return plan;
}

void
PlanCache::trim(std::uint64_t target_bytes)
{
    for (auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        evict_locked(*shard, target_bytes);
    }
    metrics().bytes.set(
        static_cast<double>(resident_.load(std::memory_order_relaxed)));
}

PlanCache::Stats
PlanCache::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        s.resident_bytes += shard->bytes;
        s.entries += shard->map.size();
    }
    return s;
}

}  // namespace pasta::serve
