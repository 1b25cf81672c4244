/// \file
/// Guarded trial execution: one (tensor, kernel, format, mode) benchmark
/// trial runs inline on the calling thread under a capped-backoff retry
/// loop, and failure comes back as data instead of unwinding the whole
/// suite.
///
/// Contract for the trial body: it returns the measured seconds for the
/// trial and may throw PastaError / std::bad_alloc (both treated as
/// transient and retried) or any std::exception (reported, retried).
/// A body that never returns stalls the run; nothing here can stop it,
/// so the remedy is to stop the process and resume from the journal.
#pragma once

#include <functional>
#include <string>

namespace pasta::harness {

/// Retry policy for guarded trials.
struct TrialPolicy {
    int max_attempts = 3;
    double backoff_initial_s = 0.05;  ///< sleep before the 2nd attempt
    double backoff_max_s = 2.0;       ///< exponential backoff cap
};

/// Structured outcome of one guarded trial.
struct TrialResult {
    bool ok = false;        ///< trial produced a measurement
    bool validation = false; ///< failed a structural/differential check
    bool oom = false;       ///< last failure was a membudget::HostOomError
    std::string error;      ///< last failure message when !ok
    int attempts = 0;       ///< attempts actually made
    double seconds = 0.0;   ///< trial body's return value when ok
};

/// Runs `body` under `policy`.  Never throws for trial failures; the
/// returned TrialResult carries success or the last error.  A
/// validate::ValidationError is terminal (deterministic: the same wrong
/// answer would come back on every retry); other thrown errors are
/// retried with capped exponential backoff.
///
/// membudget::HostOomError is *degradable*: before the retry the governor
/// is switched to degraded mode, so budget-aware paths (the stream
/// kernels' *_budgeted entry points) pick streaming/smaller chunks on the
/// next attempt instead of re-running the in-memory route into the same
/// wall.  Degraded mode is reset at every trial entry.
TrialResult run_guarded_trial(const std::string& label,
                              const std::function<double()>& body,
                              const TrialPolicy& policy);

/// Failure class recorded in the journal and failure CSVs: "" (ok),
/// "validation" (structural/differential check failed), "oom" (memory
/// budget exhausted even after the degrade retry), or "error" (any other
/// trial error).
std::string failure_class(const TrialResult& trial);

}  // namespace pasta::harness
