#include "harness/trial.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "validate/validate.hpp"

namespace pasta::harness {

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
        result.validation = false;
        result.oom = false;
        // HostOomError must be caught before PastaError (it derives from
        // it), or the degradable class would be misfiled as a plain
        // error and the retry would never arm degraded mode.
        try {
            result.seconds = body();
            result.ok = true;
            result.error.clear();
            obs::counter("trial.ok").add(1);
            obs::histogram("trial.ms").record(
                static_cast<std::uint64_t>(result.seconds * 1e3));
            return result;
        } catch (const validate::ValidationError& e) {
            result.validation = true;
            result.error = e.what();
        } catch (const membudget::HostOomError& e) {
            result.oom = true;
            result.error = e.what();
        } catch (const PastaError& e) {
            result.error = e.what();
        } catch (const std::bad_alloc&) {
            result.oom = true;
            result.error = "out of memory (std::bad_alloc)";
        } catch (const std::exception& e) {
            result.error = e.what();
        }
        if (result.oom && attempt < max_attempts) {
            // Degradable failure: arm degraded mode so the retry's
            // budget-aware paths pick streaming/smaller chunks instead of
            // walking into the same budget wall.
            membudget::MemGovernor::instance().set_degraded(true);
            PASTA_LOG_WARN << label << ": memory budget exceeded ("
                           << result.error
                           << "); retrying with streaming/smaller chunks";
        }
        if (result.validation) {
            // Deterministic wrong answer: retrying re-runs the same
            // kernel on the same data and fails the same check.
            obs::counter("trial.failed").add(1);
            PASTA_LOG_WARN << label << ": validation failure ("
                           << result.error << "); trial skipped";
            return result;
        }
        if (attempt < max_attempts) {
            PASTA_LOG_WARN << label << ": attempt " << attempt << "/"
                           << max_attempts << " failed (" << result.error
                           << "); retrying in " << backoff << " s";
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
            backoff = std::min(backoff * 2, policy.backoff_max_s);
        }
    }
    obs::counter("trial.failed").add(1);
    PASTA_LOG_WARN << label << ": giving up after " << result.attempts
                   << " attempts (" << result.error << ")";
    return result;
}

std::string
failure_class(const TrialResult& trial)
{
    if (trial.ok)
        return "";
    if (trial.validation)
        return "validation";
    if (trial.oom)
        return "oom";
    return "error";
}

}  // namespace pasta::harness
