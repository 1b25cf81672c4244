/// \file
/// Wall-clock timing utilities used by the benchmark harness.
///
/// The paper runs every kernel five times and reports the average runtime
/// (§V-A2); TimedRuns encapsulates that protocol so every bench binary uses
/// the same measurement discipline.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>

namespace pasta {

/// Simple wall-clock stopwatch.
class Timer {
  public:
    /// Starts (or restarts) the stopwatch.
    void start() { begin_ = Clock::now(); }

    /// Returns seconds elapsed since the last start().
    double elapsed_seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - begin_).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point begin_{Clock::now()};
};

/// Monotonic deadline built on the same steady clock as Timer;
/// fault-injection hangs use it so wall-clock adjustments can never
/// extend (or cut short) a stall.
class Deadline {
  public:
    /// A deadline `seconds` from now; non-positive means already expired.
    explicit Deadline(double seconds)
        : end_(std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds < 0 ? 0 : seconds)))
    {
    }

    bool expired() const { return std::chrono::steady_clock::now() >= end_; }

    /// Seconds left; never negative.
    double remaining_seconds() const
    {
        const auto left = end_ - std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(left).count();
        return s > 0 ? s : 0.0;
    }

  private:
    std::chrono::steady_clock::time_point end_;
};

/// Aggregated timing statistics over repeated runs.
struct RunStats {
    double mean_seconds = 0.0;
    double min_seconds = 0.0;
    double max_seconds = 0.0;
    std::size_t runs = 0;
};

/// Runs `fn` `runs` times (after `warmups` untimed warm-up runs) and
/// returns the per-run timing statistics.  This matches the paper's
/// measurement protocol of averaging five timed executions.  Template so
/// the measured callable is invoked directly, without a type-erased
/// dispatch inside the timed window.
template <typename Fn>
RunStats
timed_runs(Fn fn, std::size_t runs = 5, std::size_t warmups = 1)
{
    for (std::size_t i = 0; i < warmups; ++i)
        fn();

    RunStats stats;
    stats.runs = runs;
    stats.min_seconds = std::numeric_limits<double>::infinity();
    stats.max_seconds = 0.0;
    double total = 0.0;
    Timer timer;
    for (std::size_t i = 0; i < runs; ++i) {
        timer.start();
        fn();
        double t = timer.elapsed_seconds();
        total += t;
        stats.min_seconds = std::min(stats.min_seconds, t);
        stats.max_seconds = std::max(stats.max_seconds, t);
    }
    stats.mean_seconds = runs > 0 ? total / static_cast<double>(runs) : 0.0;
    return stats;
}

}  // namespace pasta
