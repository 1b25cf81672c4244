/// \file
/// Guarded trial execution: one (tensor, kernel, format, mode) benchmark
/// trial runs under a monotonic watchdog timeout and a capped-backoff
/// retry loop, and failure comes back as data instead of unwinding the
/// whole suite.
///
/// Contract for the trial body: it returns the measured seconds for the
/// trial and may throw PastaError / std::bad_alloc (both treated as
/// transient and retried) or any std::exception (reported, retried).
/// When a watchdog is armed the body runs on a worker thread; if the
/// deadline passes, the attempt is abandoned — the worker is detached
/// and may still be running — so the body must only touch state it owns
/// or shares via shared_ptr, never references to the caller's stack.
#pragma once

#include <functional>
#include <string>

namespace pasta::harness {

/// Retry/timeout policy for guarded trials.
struct TrialPolicy {
    double timeout_seconds = 0.0;  ///< 0 = no watchdog, run inline
    int max_attempts = 3;
    double backoff_initial_s = 0.05;  ///< sleep before the 2nd attempt
    double backoff_max_s = 2.0;       ///< exponential backoff cap

    /// Policy from PASTA_TRIAL_TIMEOUT / PASTA_TRIAL_RETRIES; malformed
    /// values throw PastaError.
    static TrialPolicy from_env();
};

/// Structured outcome of one guarded trial.
struct TrialResult {
    bool ok = false;        ///< trial produced a measurement
    bool skipped = false;   ///< abandoned: timed out or retries exhausted
    bool timed_out = false; ///< skipped specifically by the watchdog
    bool validation = false; ///< failed a structural/differential check
    bool oom = false;       ///< last failure was a membudget::HostOomError
    std::string error;      ///< last failure message when !ok
    int attempts = 0;       ///< attempts actually made
    double seconds = 0.0;   ///< trial body's return value when ok
};

/// Runs `body` under `policy`.  Never throws for trial failures; the
/// returned TrialResult carries success or the last error.  A watchdog
/// timeout is terminal (no retry — a hung kernel will hang again), and so
/// is a validate::ValidationError (deterministic: the same wrong answer
/// would come back on every retry); other thrown errors are retried with
/// capped exponential backoff.
///
/// membudget::HostOomError is *degradable*: before the retry the governor
/// is switched to degraded mode, so budget-aware paths (the stream
/// kernels' *_budgeted entry points) pick streaming/smaller chunks on the
/// next attempt instead of re-running the in-memory route into the same
/// wall.  Degraded mode is reset at every trial entry.
TrialResult run_guarded_trial(const std::string& label,
                              const std::function<double()>& body,
                              const TrialPolicy& policy);

}  // namespace pasta::harness
