/// \file
/// Sharded, ref-counted plan/conversion cache for the serving engine.
///
/// Repeated requests on the same tensor are the serving workload's
/// defining property (per-user embeddings hit the same per-user tensor
/// over and over), and plan build — sort, fiber discovery, HiCOO
/// conversion — dwarfs the tiny-kernel execution it precedes.  This
/// cache memoizes the format-dependent, operand-independent half of a
/// job: a TTV plan (sorted copy + fibers + output pattern) or a HiCOO
/// conversion, keyed on (tensor fingerprint, kernel, format, mode,
/// rank, block bits).  The fingerprint is FNV-1a over dims, nnz, every
/// index array, and the value bytes — the same checksum discipline the
/// PSTB disk cache uses, so two tensors collide only if their content
/// is byte-identical, in which case sharing the plan is correct.
///
/// Concurrency.  The map is sharded (key-hash → shard, one mutex each)
/// so the hit path never funnels thousands of jobs through one lock.
/// Misses are single-flighted per key: the first job builds under a
/// per-key build mutex while the shard lock is *released*, later
/// arrivals for the same key block on the build mutex and find the
/// entry on re-check — the same tensor is never converted twice
/// concurrently.
///
/// Memory.  Plans reserve their bytes from the membudget governor (see
/// Plan::own_reservation), so cached conversions count against
/// PASTA_MEM_BYTES like any other working set; the reservation is
/// released by the Plan's deleter when the *last* reference drops, not
/// at eviction — a job that holds a plan across an eviction keeps both
/// the plan and its accounting alive (ref-count correctness).  The
/// cache's own budget (ServeOptions::cache_bytes) is enforced per shard
/// with LRU eviction; an entry bigger than a shard's budget is evicted
/// immediately, degrading that key to build-per-job.
///
/// Counters (PASTA_TRACE=counters/full): serve.cache_hit,
/// serve.cache_miss, serve.cache_evict; the same figures are also kept
/// in plain atomics (stats()) so callers read hit rates with tracing
/// off.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hicoo_tensor.hpp"
#include "kernels/ttv.hpp"
#include "serve/job.hpp"

namespace pasta::serve {

/// Content fingerprint of a tensor: FNV-1a over dims, nnz, all index
/// arrays, and values.  O(nnz) — computed once per corpus tensor, not
/// per request.
std::uint64_t tensor_fingerprint(const CooTensor& x);

/// One cached, immutable plan.  Exactly one of the pointers below is
/// set, matching (kernel, format).  `bytes` is the governor-metered
/// estimate; the factory ties its release to the Plan's lifetime.
struct Plan {
    ServeKernel kernel = ServeKernel::kTtv;
    ServeFormat format = ServeFormat::kCoo;
    std::uint64_t bytes = 0;

    std::shared_ptr<const CooTtvPlan> ttv_coo;
    std::shared_ptr<const HicooTtvPlan> ttv_hicoo;
    std::shared_ptr<const HiCooTensor> mttkrp_hicoo;
};

/// Builds the plan for one (tensor, kernel, format, mode) combination,
/// reserving its bytes from the membudget governor ("serve.plan"); the
/// returned shared_ptr's deleter releases the reservation when the last
/// reference — cache entry or in-flight job — drops.  MTTKRP/COO needs
/// no plan and returns an empty Plan (bytes 0, nothing reserved).
std::shared_ptr<const Plan> build_plan(const CooTensor& tensor,
                                       ServeKernel kernel,
                                       ServeFormat format, Size mode,
                                       unsigned block_bits);

/// Cache key over everything that determines a plan's content.
std::string plan_key(std::uint64_t fingerprint, ServeKernel kernel,
                     ServeFormat format, Size mode, Size rank,
                     unsigned block_bits);

/// Sharded LRU plan cache.  byte_budget 0 disables caching entirely
/// (get_or_build degenerates to build).
class PlanCache {
  public:
    explicit PlanCache(std::uint64_t byte_budget, int shards = 8);

    /// Point-in-time usage/effectiveness figures.
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t resident_bytes = 0;
        std::uint64_t entries = 0;

        double hit_rate() const
        {
            const std::uint64_t total = hits + misses;
            return total ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
        }
    };

    /// The plan for `key`, building it with `builder` on a miss
    /// (single-flighted: concurrent misses on one key build once).
    /// Never returns nullptr; builder exceptions propagate to exactly
    /// the caller that ran that build.  `was_hit` (optional) reports
    /// whether this call was served from the cache.
    std::shared_ptr<const Plan> get_or_build(
        const std::string& key,
        const std::function<std::shared_ptr<const Plan>()>& builder,
        bool* was_hit = nullptr);

    /// Evicts LRU entries until every shard holds at most
    /// `target_bytes` total (0 = evict everything).  The OOM retry
    /// lane's degrade step.
    void trim(std::uint64_t target_bytes);

    std::uint64_t byte_budget() const { return byte_budget_; }
    bool enabled() const { return byte_budget_ != 0; }
    Stats stats() const;

  private:
    struct Entry {
        std::shared_ptr<const Plan> plan;
        std::uint64_t bytes = 0;
        std::list<std::string>::iterator lru_it;
    };

    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<std::string, Entry> map;
        /// Front = most recently used.
        std::list<std::string> lru;
        std::uint64_t bytes = 0;
        /// Per-key single-flight build locks (erased after the build).
        std::unordered_map<std::string, std::shared_ptr<std::mutex>>
            building;
    };

    Shard& shard_for(const std::string& key);
    /// Evicts from `shard` (mutex held) until it holds <= target bytes.
    void evict_locked(Shard& shard, std::uint64_t target);

    std::uint64_t byte_budget_;
    std::uint64_t shard_budget_;
    std::vector<std::unique_ptr<Shard>> shards_;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    /// Cache-wide resident bytes mirrored outside the shard locks so the
    /// metrics heartbeat reads byte pressure without touching shards.
    std::atomic<std::uint64_t> resident_{0};
};

}  // namespace pasta::serve
