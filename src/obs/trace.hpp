/// \file
/// Phase-scoped tracing: zero-overhead-when-off spans recorded lock-free
/// into per-thread ring buffers, exportable as Chrome-trace JSON.
///
/// The suite's performance story (paper §V, Observations 1-4) is told in
/// phases — sort, convert, plan, kernel — and the PASTA suite paper
/// stresses that a benchmark must expose *where* the time goes, not just
/// the total.  This layer provides `PASTA_SPAN("convert.hicoo")`: an RAII
/// scope that records {name, thread, nesting depth, steady-clock begin,
/// duration} when tracing is armed and compiles down to one relaxed
/// atomic load and a predicted branch when it is not — the same
/// discipline as PASTA_LOG, so instrumented kernels stay on their timing
/// baselines with tracing off.
///
/// Arming comes from the PASTA_TRACE environment variable:
///   off       nothing recorded (default; the timing path is untouched)
///   counters  model counters armed (see counters.hpp), spans off
///   spans     spans armed, counters off
///   full      both
///
/// Recording is lock-free after a thread's first span: each thread owns a
/// fixed-capacity ring buffer registered once under a mutex; a span is a
/// bounded memcpy plus a release store of the count.  When a buffer
/// fills, further spans on that thread are dropped and counted (earliest
/// phases — the interesting suite structure — are kept).  Collection and
/// export are host-side operations meant to run outside parallel regions.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pasta::obs {

/// Runtime instrumentation mode (PASTA_TRACE).
enum class TraceMode { kOff = 0, kCounters = 1, kSpans = 2, kFull = 3 };

/// Reads PASTA_TRACE, whose words name the enumerators in order (unset
/// means kOff); anything else throws PastaError.
TraceMode mode_from_env();

/// Overrides the cached mode (tests and drivers).
void set_mode(TraceMode mode);

/// Human-readable mode name ("off", "counters", "spans", "full").
const char* mode_name(TraceMode mode);

namespace detail {

/// Cached mode as an int; -1 = not yet read from the environment.
extern std::atomic<int> g_mode;

/// Reads PASTA_TRACE, caches it, and returns the mode as an int.
int mode_slow();

}  // namespace detail

/// The cached process-wide mode (reads the environment on first call).
inline TraceMode
current_mode()
{
    int m = detail::g_mode.load(std::memory_order_relaxed);
    if (m < 0)
        m = detail::mode_slow();
    return static_cast<TraceMode>(m);
}

/// True when PASTA_SPAN scopes record events (spans or full).
inline bool
spans_enabled()
{
    const TraceMode m = current_mode();
    return m == TraceMode::kSpans || m == TraceMode::kFull;
}

/// True when the model counters record (counters or full).
inline bool
counters_enabled()
{
    const TraceMode m = current_mode();
    return m == TraceMode::kCounters || m == TraceMode::kFull;
}

/// Span names are stored inline in the ring buffer (no allocation on the
/// record path); longer names are truncated.
inline constexpr std::size_t kSpanNameCapacity = 48;

/// RAII phase scope.  Construction snapshots the steady clock and the
/// thread's nesting depth; destruction records one completed event into
/// the calling thread's ring buffer.  Does nothing (beyond one mode
/// check) when spans are disarmed.
class SpanScope {
  public:
    explicit SpanScope(const char* name);
    explicit SpanScope(const std::string& name);
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    ~SpanScope();

  private:
    void open(const char* name);

    bool armed_ = false;
    int depth_ = 0;
    std::uint64_t begin_ns_ = 0;
    char name_[kSpanNameCapacity];
};

/// Nanoseconds since the process trace epoch on the span clock (the
/// epoch is pinned at first use).  Cheap enough to call with tracing
/// off; the serving scheduler stamps job lifecycle times with it and
/// derives its wait/exec latency histograms from those stamps.
std::uint64_t trace_now_ns();

/// One collected span, resolved for export/analysis.
struct SpanRecord {
    std::string name;
    int tid = 0;    ///< registration-order thread id, stable per thread
    int depth = 0;  ///< nesting depth at entry (0 = top level)
    double ts_us = 0;   ///< begin, microseconds since the trace epoch
    double dur_us = 0;  ///< duration, microseconds
};

/// Snapshot of every thread's recorded spans (call outside parallel
/// regions; recording threads must be quiescent for an exact snapshot).
std::vector<SpanRecord> collect_spans();

/// Spans dropped because a thread's ring buffer filled.
std::uint64_t spans_dropped();

/// Clears all recorded spans (buffers and thread ids stay registered).
void reset_spans();

/// Microseconds to ADD to a span's ts_us (trace-epoch microseconds) to
/// land on the unix epoch, captured at call time.  Every export stamps
/// this into its metadata block, which is the clock-alignment contract:
/// two traces from different processes (different steady-clock epochs)
/// merge onto one timeline by shifting each trace by its own offset.
std::int64_t trace_wall_offset_us();

/// Writes the collected spans as Chrome trace-event JSON ("X" complete
/// events, ts/dur in microseconds) loadable in Perfetto or
/// chrome://tracing.  A top-level "pastaMeta" block carries the writer's
/// pid, trace_wall_offset_us(), and spans_dropped() (viewers ignore
/// unknown top-level keys); a one-shot warning is logged when spans were
/// dropped, so ring overflow can't masquerade as a quiet phase.
/// Returns false (logging a warning) when the file cannot be written.
bool write_chrome_trace(const std::string& path);

/// Writes the collected spans as JSONL: one "pastaMeta" header line
/// (pid, clock offset, dropped count), then one flat object per span:
///   {"name":"convert.hicoo","tid":0,"depth":1,"ts_us":12.5,"dur_us":3.1}
bool write_spans_jsonl(const std::string& path);

#define PASTA_OBS_CONCAT2(a, b) a##b
#define PASTA_OBS_CONCAT(a, b) PASTA_OBS_CONCAT2(a, b)

/// Statement form: `PASTA_SPAN("convert.hicoo");` opens a span covering
/// the rest of the enclosing scope.
#define PASTA_SPAN(name)                                                     \
    ::pasta::obs::SpanScope PASTA_OBS_CONCAT(pasta_span_, __LINE__)(name)

}  // namespace pasta::obs
