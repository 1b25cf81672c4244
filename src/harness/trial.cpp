#include "harness/trial.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <thread>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "validate/validate.hpp"

namespace pasta::harness {

namespace {

/// Shared between the watchdog owner and a (possibly abandoned) worker.
struct AttemptState {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    bool validation = false;
    bool oom = false;
    double seconds = 0.0;
    std::string error;

    void finish(bool is_ok, double secs, std::string err,
                bool is_validation = false, bool is_oom = false)
    {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
        ok = is_ok;
        validation = is_validation;
        oom = is_oom;
        seconds = secs;
        error = std::move(err);
        cv.notify_all();
    }

    bool wait_for(double timeout_seconds)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return cv.wait_for(lock,
                           std::chrono::duration<double>(timeout_seconds),
                           [this] { return done; });
    }
};

/// One attempt of the body, inline or under a watchdog thread.
/// Returns false when the watchdog abandoned the attempt.
/// HostOomError must be caught before PastaError (it derives from it) in
/// both attempt paths, or the degradable class would be misfiled as a
/// plain error and the retry would never arm degraded mode.
bool
run_attempt(const std::function<double()>& body, double timeout_seconds,
            bool& ok, bool& validation, bool& oom, double& seconds,
            std::string& error)
{
    if (timeout_seconds <= 0) {
        try {
            seconds = body();
            ok = true;
        } catch (const validate::ValidationError& e) {
            ok = false;
            validation = true;
            error = e.what();
        } catch (const membudget::HostOomError& e) {
            ok = false;
            oom = true;
            error = e.what();
        } catch (const PastaError& e) {
            ok = false;
            error = e.what();
        } catch (const std::bad_alloc&) {
            ok = false;
            oom = true;
            error = "out of memory (std::bad_alloc)";
        } catch (const std::exception& e) {
            ok = false;
            error = e.what();
        }
        return true;
    }

    auto state = std::make_shared<AttemptState>();
    std::thread worker([state, body] {
        try {
            const double s = body();
            state->finish(true, s, {});
        } catch (const validate::ValidationError& e) {
            state->finish(false, 0, e.what(), true);
        } catch (const membudget::HostOomError& e) {
            state->finish(false, 0, e.what(), false, true);
        } catch (const PastaError& e) {
            state->finish(false, 0, e.what());
        } catch (const std::bad_alloc&) {
            state->finish(false, 0, "out of memory (std::bad_alloc)",
                          false, true);
        } catch (const std::exception& e) {
            state->finish(false, 0, e.what());
        } catch (...) {
            state->finish(false, 0, "unknown exception");
        }
    });
    if (!state->wait_for(timeout_seconds)) {
        // Abandon: the worker keeps `state` (and the body's captures)
        // alive via shared_ptr; nothing here is touched again.
        worker.detach();
        return false;
    }
    worker.join();
    std::lock_guard<std::mutex> lock(state->mutex);
    ok = state->ok;
    validation = state->validation;
    oom = state->oom;
    seconds = state->seconds;
    error = state->error;
    return true;
}

}  // namespace

TrialPolicy
TrialPolicy::from_env()
{
    TrialPolicy policy;
    policy.timeout_seconds = config::real("PASTA_TRIAL_TIMEOUT");
    policy.max_attempts =
        static_cast<int>(config::integer("PASTA_TRIAL_RETRIES"));
    return policy;
}

TrialResult
run_guarded_trial(const std::string& label,
                  const std::function<double()>& body,
                  const TrialPolicy& policy)
{
    TrialResult result;
    const int max_attempts = policy.max_attempts < 1 ? 1
                                                     : policy.max_attempts;
    double backoff = policy.backoff_initial_s;
    // Each trial decides its own memory routing afresh; a previous
    // trial's OOM degradation must not leak into this one.
    membudget::MemGovernor::instance().set_degraded(false);
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        // One span per attempt, named by the trial: the trace's top-level
        // structure mirrors the journal's (tensor, kernel, format) rows.
        obs::SpanScope span(label);
        result.attempts = attempt;
        bool ok = false;
        bool validation = false;
        bool oom = false;
        double seconds = 0;
        std::string error;
        if (!run_attempt(body, policy.timeout_seconds, ok, validation, oom,
                         seconds, error)) {
            std::ostringstream oss;
            oss << "watchdog timeout after " << policy.timeout_seconds
                << " s";
            result.error = oss.str();
            result.skipped = true;
            result.timed_out = true;
            obs::counter("trial.failed").add(1);
            PASTA_LOG_WARN << label << ": " << result.error
                           << "; trial skipped";
            return result;
        }
        if (ok) {
            result.ok = true;
            result.oom = false;
            result.seconds = seconds;
            result.error.clear();
            obs::counter("trial.ok").add(1);
            obs::histogram("trial.ms").record(
                static_cast<std::uint64_t>(seconds * 1e3));
            return result;
        }
        result.error = error;
        result.oom = oom;
        if (oom && attempt < max_attempts) {
            // Degradable failure: arm degraded mode so the retry's
            // budget-aware paths pick streaming/smaller chunks instead of
            // walking into the same budget wall.
            membudget::MemGovernor::instance().set_degraded(true);
            PASTA_LOG_WARN << label << ": memory budget exceeded ("
                           << error
                           << "); retrying with streaming/smaller chunks";
        }
        if (validation) {
            // Deterministic wrong answer: retrying re-runs the same
            // kernel on the same data and fails the same check.
            result.skipped = true;
            result.validation = true;
            obs::counter("trial.failed").add(1);
            PASTA_LOG_WARN << label << ": validation failure (" << error
                           << "); trial skipped";
            return result;
        }
        if (attempt < max_attempts) {
            PASTA_LOG_WARN << label << ": attempt " << attempt << "/"
                           << max_attempts << " failed (" << error
                           << "); retrying in " << backoff << " s";
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
            backoff = std::min(backoff * 2, policy.backoff_max_s);
        }
    }
    result.skipped = true;
    obs::counter("trial.failed").add(1);
    PASTA_LOG_WARN << label << ": giving up after " << result.attempts
                   << " attempts (" << result.error << ")";
    return result;
}

}  // namespace pasta::harness
