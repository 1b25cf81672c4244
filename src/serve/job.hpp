/// \file
/// Multi-tenant serving: job and configuration types.
///
/// The ROADMAP's north-star traffic shape is millions of concurrent
/// *small* requests — per-user recommender embeddings doing TTV/MTTKRP
/// on tiny tensors — not one big closed-loop trial.  A ServeJob is one
/// such request: (tensor, kernel, format, mode, rank) plus a seed that
/// derives the dense operands deterministically, so a job's result is a
/// pure function of the job and the executing configuration.  Jobs are
/// submitted to the work-stealing Scheduler, executed through the
/// Executor's shared plan/conversion cache, and carry their lifecycle
/// timestamps (submit/start/done on the obs trace clock) out to the
/// latency reporting in bench_serving.
///
/// Configuration comes from PASTA_SERVE_* with the suite's strict env
/// validation: malformed values throw PastaError up front instead of
/// silently serving with a default.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "core/coo_tensor.hpp"

namespace pasta::serve {

/// Kernels the serving engine executes.
enum class ServeKernel { kTtv, kMttkrp };

/// Input formats a job may request; conversions are cached.
enum class ServeFormat { kCoo, kHicoo };

/// Stable names for reports/CSVs ("TTV", "MTTKRP"; "COO", "HiCOO").
const char* serve_kernel_name(ServeKernel kernel);
const char* serve_format_name(ServeFormat format);

/// Serving-engine configuration; from_env() reads the PASTA_SERVE_*
/// knobs (src/common/config).  job_threads defaults to 1: tiny tensors
/// get throughput from inter-job parallelism.
struct ServeOptions {
    int workers = 0;                   ///< 0 = pasta::num_threads()
    Size queue_bound = 4096;
    std::uint64_t cache_bytes = 64ULL << 20;
    int job_threads = 1;
    unsigned block_bits = 7;           ///< HiCOO B = 128 (paper §V-A2)

    /// Reads the PASTA_SERVE_* knobs; malformed values throw PastaError.
    static ServeOptions from_env();
};

/// Terminal and transient states of one job.
enum class JobState : int {
    kQueued = 0,   ///< accepted, waiting in a queue/deque
    kRunning = 1,  ///< picked up by a worker
    kDone = 2,     ///< executed, result checksum recorded
    kFailed = 3,   ///< executed, kernel/plan raised; error recorded
};

/// One serving request plus its outcome.  Created by the submitter,
/// mutated only by the worker that executes it, read back after
/// Scheduler::drain(); shared_ptr-held so an abandoned submitter can
/// never dangle a queued job.
struct ServeJob {
    std::uint64_t id = 0;
    std::shared_ptr<const CooTensor> tensor;
    /// Tensor content fingerprint (tensor_fingerprint); 0 = computed
    /// lazily by the executor on first use.  Precomputing it once per
    /// corpus tensor keeps the hash off the request hot path.
    std::uint64_t fingerprint = 0;
    ServeKernel kernel = ServeKernel::kTtv;
    ServeFormat format = ServeFormat::kCoo;
    Size mode = 0;
    Size rank = 16;
    /// Seed deriving the dense operands (vector / factor matrices);
    /// identical seeds give bit-identical operands.
    std::uint64_t operand_seed = 1;

    std::atomic<int> state{static_cast<int>(JobState::kQueued)};
    int attempts = 0;          ///< execution attempts (2 = OOM retry ran)
    bool degraded = false;     ///< retry lane armed cache-bypass
    bool cache_hit = false;    ///< plan came from the cache
    std::string error;         ///< failure message when kFailed
    /// FNV-1a over the output value bytes: the bit-identity witness
    /// bench_serving compares between cached and uncached phases.
    std::uint64_t result_checksum = 0;

    /// Lifecycle timestamps on the obs trace clock (trace_now_ns).
    std::uint64_t submit_ns = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t done_ns = 0;

    JobState current_state() const
    {
        return static_cast<JobState>(state.load(std::memory_order_acquire));
    }
    bool terminal() const
    {
        const JobState s = current_state();
        return s == JobState::kDone || s == JobState::kFailed;
    }
    double wait_seconds() const
    {
        return static_cast<double>(start_ns - submit_ns) * 1e-9;
    }
    double exec_seconds() const
    {
        return static_cast<double>(done_ns - start_ns) * 1e-9;
    }
    double total_seconds() const
    {
        return static_cast<double>(done_ns - submit_ns) * 1e-9;
    }
};

}  // namespace pasta::serve
