/// \file
/// Shared machinery for the table/figure benchmark binaries.
///
/// Every figure binary (Figs. 4-7) runs the same protocol the paper
/// describes in §V-A2: each kernel run PASTA_RUNS times (default 3; the
/// paper's 5 is a setting), the mean taken, and TTV/TTM/MTTKRP
/// additionally averaged across all tensor modes; TEW uses addition and
/// TS multiplication as representatives, R = 16, HiCOO block size 128.
/// The CPU and simulated-GPU suites share one driver; only how an
/// invocation becomes seconds differs.
///
/// A full campaign is hundreds of trials per binary, so the suites run
/// through the src/harness robustness layer: every (tensor, kernel,
/// format) trial executes inline under a retry guard
/// (harness::run_guarded_trial), failures are collected instead of
/// propagated, and completed trials are checkpointed to a JSONL journal
/// under the cache dir so a killed (or hung, then stopped) run resumes
/// where it left off.
#pragma once

#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "analysis/efficiency.hpp"
#include "gen/datasets.hpp"
#include "gpusim/timing_model.hpp"
#include "harness/trial.hpp"
#include "roofline/machine.hpp"

namespace pasta::bench {

/// Global options.  options_from_env() fills them from the PASTA_*
/// knobs in src/common/config (README.md, "Environment knobs").
struct BenchOptions {
    double scale = 5e-4;
    std::size_t runs = 3;
    Size rank = 16;                  ///< paper §V-A2
    unsigned block_bits = 7;         ///< HiCOO B = 128
    std::string cache_dir = ".pasta_cache";
    std::string journal_stem;        ///< figure binaries set this; empty
                                     ///< disables journaling
    bool journal_enabled = true;     ///< PASTA_JOURNAL
    harness::TrialPolicy trial_policy;
};

/// Reads BenchOptions from the environment after rejecting unknown
/// PASTA_* names and malformed values, applies $PASTA_LOG, and arms
/// fault injection, the memory governor and the metrics heartbeat.
BenchOptions options_from_env();

/// One trial (or whole tensor, kernel "*") that failed or was skipped.
struct TrialFailure {
    std::string tensor_id;
    std::string kernel;   ///< kernel_name() or "*" for a whole tensor
    std::string format;   ///< format_name() or "*"
    std::string error;
    int attempts = 0;
    std::string failure_class;  ///< harness::failure_class: "validation",
                                ///< "oom", or "error"
};

/// Partial results of a suite: successful measurements plus a failure
/// summary; skipped trials never abort the campaign.
struct SuiteResult {
    std::vector<MeasuredRun> runs;
    std::vector<TrialFailure> failures;
    std::size_t resumed = 0;  ///< trials restored from the journal

    bool complete() const { return failures.empty(); }
};

/// Loads (generating + caching as needed) the full 30-tensor Table II
/// suite at the configured scale.  Unloadable tensors are skipped with
/// a warning after retries rather than aborting the suite.
std::vector<NamedTensor> load_suite(const BenchOptions& options);

/// Measures all five kernels x {COO, HiCOO} on the host CPU for every
/// tensor; one MeasuredRun per (tensor, kernel, format), times averaged
/// over runs and modes.  Failed trials land in `failures`.
SuiteResult run_cpu_suite(const std::vector<NamedTensor>& suite,
                          const BenchOptions& options);

/// Same protocol on the simulated GPU: kernels execute through the SIMT
/// simulator and seconds come from the analytical device timing model.
SuiteResult run_gpu_suite(const std::vector<NamedTensor>& suite,
                          const gpusim::DeviceSpec& device,
                          const BenchOptions& options);

/// Prints one paper-figure block: per kernel, the GFLOPS series over all
/// tensors for COO and HiCOO plus the red "Roofline performance" line.
/// Missing series cells (skipped trials) render as "skip".
void print_figure(const std::string& title,
                  const std::vector<MeasuredRun>& runs,
                  const MachineSpec& platform);

/// Prints the Observation 1/3-style per-kernel averages.
void print_averages(const std::vector<MeasuredRun>& runs,
                    const MachineSpec& platform);

/// Prints resumed-trial count and the skipped/failed-trial table; "all
/// trials completed" when the suite is complete.
void print_failure_summary(const SuiteResult& result);

/// Writes the full run series as CSV (tensor, kernel, format, seconds,
/// gflops, roofline_gflops, efficiency, variant, obs_flops, obs_bytes,
/// obs_ai, roofline_pct, mem_peak) for external plotting.  The last five columns
/// come from the PASTA_TRACE counter registry and are ""/0 when the
/// trial ran with counters off; roofline_pct then falls back to the
/// Table I model's OI.  Figure binaries call this automatically when
/// PASTA_CSV_DIR is set.
void export_csv(const std::string& path,
                const std::vector<MeasuredRun>& runs,
                const MachineSpec& platform);

/// Writes the failure summary as CSV (tensor, kernel, format, class,
/// attempts, error), where class is harness::failure_class: "validation",
/// "oom", or "error".
void export_failures_csv(const std::string& path,
                         const std::vector<TrialFailure>& failures);

/// Exports to $PASTA_CSV_DIR/<stem>.csv when the variable is set.
void maybe_export_csv(const std::string& stem,
                      const std::vector<MeasuredRun>& runs,
                      const MachineSpec& platform);

/// SuiteResult convenience: <stem>.csv for successful trials and (when
/// any exist) <stem>_failures.csv for the failure summary.
void maybe_export_csv(const std::string& stem, const SuiteResult& result,
                      const MachineSpec& platform);

/// When PASTA_TRACE arms spans, writes <stem>.trace.json (Chrome
/// trace-event JSON, Perfetto-loadable) into $PASTA_TRACE_DIR (falling back to $PASTA_CSV_DIR, then ".").  The
/// suite runners call this after each campaign; no-op with spans off.
void maybe_export_trace(const std::string& stem);

}  // namespace pasta::bench
