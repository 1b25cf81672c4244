/// \file
/// Executes one serving job: plan lookup/build through the shared
/// cache, deterministic operand synthesis, kernel run, result
/// checksum.
///
/// Determinism contract: with the default per-job thread budget of 1,
/// a job's result bytes are a pure function of (tensor, kernel,
/// format, mode, rank, operand_seed) — the plan cache can therefore be
/// switched on or off without changing a single output bit, which
/// test_serve's cached-vs-uncached floods and serve_zipf's
/// cached-vs-uncached checksum comparison assert.  The kernels used are
/// the suite's deterministic schedules (fiber-parallel TTV, privatized
/// COO MTTKRP, owner-partitioned HiCOO MTTKRP); the atomic fallbacks
/// only ever run serially under the job's thread budget, where their
/// update order is fixed too.
#pragma once

#include <memory>

#include "serve/job.hpp"
#include "serve/plan_cache.hpp"

namespace pasta::serve {

/// Outcome of one executed job body.
struct ExecResult {
    std::uint64_t checksum = 0;  ///< FNV-1a over output value bytes
    bool cache_hit = false;      ///< plan came from the cache
};

/// Stateless-per-job executor owning the shared plan cache.  Safe to
/// call from any number of scheduler workers concurrently.
class Executor {
  public:
    explicit Executor(const ServeOptions& options);

    /// Runs `job`'s kernel and returns its checksum.  Throws on kernel
    /// or plan failure (including membudget::HostOomError, which the
    /// scheduler's retry lane handles).  When `job.degraded` is set
    /// (the OOM retry), the cache is emptied first and the plan is
    /// built without caching, so the retry runs with the smallest
    /// possible footprint.
    ExecResult execute(ServeJob& job);

    /// The shared cache; nullptr when options.cache_bytes is 0.
    PlanCache* cache() { return cache_.get(); }
    const ServeOptions& options() const { return options_; }

  private:
    std::shared_ptr<const Plan> plan_for(ServeJob& job);

    ServeOptions options_;
    std::unique_ptr<PlanCache> cache_;
};

}  // namespace pasta::serve
