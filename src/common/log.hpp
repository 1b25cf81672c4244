/// \file
/// Minimal leveled logging used by drivers, generators, and the bench
/// harness.  Kernels themselves never log (they are timed).
#pragma once

#include <atomic>
#include <sstream>
#include <string>

namespace pasta {

/// Severity levels, lowest to highest.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

namespace detail {

/// The global threshold.  An inline atomic so the PASTA_LOG level check
/// is a single relaxed load at every call site.
inline std::atomic<LogLevel> g_log_threshold{LogLevel::kInfo};

}  // namespace detail

/// Returns the global threshold; messages below it are dropped.
/// Thread-safe (relaxed atomic load).
inline LogLevel
log_threshold()
{
    return detail::g_log_threshold.load(std::memory_order_relaxed);
}

/// Sets the global threshold.  Thread-safe: callable from any thread at
/// any time; concurrent loggers observe the new level on their next
/// message.
inline void
set_log_threshold(LogLevel level)
{
    detail::g_log_threshold.store(level, std::memory_order_relaxed);
}

/// Applies $PASTA_LOG ("debug"/"info"/"warn"/"error", default "info")
/// to the global threshold; other values throw PastaError.  Drivers
/// call this once at startup so long suite runs can be quieted.
void set_log_threshold_from_env();

/// Emits one line to stderr with a level prefix.  Thread-safe.
void log_message(LogLevel level, const std::string& message);

namespace detail {

/// Builds one log line and emits it on destruction.
class LogLine {
  public:
    explicit LogLine(LogLevel level) : level_(level) {}
    LogLine(const LogLine&) = delete;
    LogLine& operator=(const LogLine&) = delete;
    ~LogLine() { log_message(level_, stream_.str()); }

    template <typename T>
    LogLine& operator<<(const T& v)
    {
        stream_ << v;
        return *this;
    }

  private:
    LogLevel level_;
    std::ostringstream stream_;
};

}  // namespace detail

// Statement form: `PASTA_LOG_INFO << "...";`.  The empty-braces true
// branch swallows the whole statement (message operands are never
// evaluated) when the level is below the threshold.
#define PASTA_LOG(level)                                                     \
    if (::pasta::LogLevel::level < ::pasta::log_threshold()) {               \
    } else                                                                   \
        ::pasta::detail::LogLine(::pasta::LogLevel::level)

#define PASTA_LOG_DEBUG PASTA_LOG(kDebug)
#define PASTA_LOG_INFO PASTA_LOG(kInfo)
#define PASTA_LOG_WARN PASTA_LOG(kWarn)
#define PASTA_LOG_ERROR PASTA_LOG(kError)

}  // namespace pasta
