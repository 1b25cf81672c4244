#include "obs/trace.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace pasta::obs {

namespace detail {

std::atomic<int> g_mode{-1};

int
mode_slow()
{
    const int env = static_cast<int>(mode_from_env());
    g_mode.store(env, std::memory_order_relaxed);
    return env;
}

}  // namespace detail

TraceMode
mode_from_env()
{
    return static_cast<TraceMode>(config::choice("PASTA_TRACE"));
}

void
set_mode(TraceMode mode)
{
    detail::g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

const char*
mode_name(TraceMode mode)
{
    switch (mode) {
      case TraceMode::kOff: return "off";
      case TraceMode::kCounters: return "counters";
      case TraceMode::kSpans: return "spans";
      case TraceMode::kFull: return "full";
    }
    return "?";
}

namespace {

/// Per-thread ring capacity.  16384 events x 72 bytes ≈ 1.2 MB, allocated
/// lazily on a thread's first recorded span (never with tracing off).
constexpr std::size_t kSpanCapacity = 16384;

/// One completed span as stored in a ring buffer: fixed-size, no heap.
struct SpanEvent {
    char name[kSpanNameCapacity];
    std::uint64_t begin_ns;
    std::uint64_t dur_ns;
    std::int32_t depth;
};

/// Per-thread buffer.  `count` is written with release order after the
/// event slot is filled so a host-side collector never reads a torn
/// event; everything else is owned by the recording thread.
struct ThreadBuffer {
    int tid = 0;
    int depth = 0;
    std::atomic<std::size_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
    std::vector<SpanEvent> events;
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>&
registry()
{
    static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    return buffers;
}

/// The calling thread's buffer; registered (under the registry mutex) on
/// first use, lock-free afterwards.  The registry owns the buffer so
/// collected spans survive thread exit.
ThreadBuffer&
local_buffer()
{
    thread_local ThreadBuffer* buf = nullptr;
    if (!buf) {
        auto owned = std::make_unique<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(g_registry_mutex);
        owned->tid = static_cast<int>(registry().size());
        registry().push_back(std::move(owned));
        buf = registry().back().get();
    }
    return *buf;
}

/// Nanoseconds since the process trace epoch (first call), on the same
/// steady clock as Timer.
std::uint64_t
now_ns()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

/// Appends one completed span to the calling thread's ring, or counts it
/// dropped when the ring is full.  The release store of `count` publishes
/// the filled slot to collectors.
void
append_event(ThreadBuffer& buf, const char* name, std::uint64_t begin_ns,
             std::uint64_t dur_ns, int depth)
{
    const std::size_t n = buf.count.load(std::memory_order_relaxed);
    if (n >= kSpanCapacity) {
        buf.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (buf.events.empty())
        buf.events.resize(kSpanCapacity);
    SpanEvent& ev = buf.events[n];
    std::strncpy(ev.name, name, kSpanNameCapacity - 1);
    ev.name[kSpanNameCapacity - 1] = '\0';
    ev.begin_ns = begin_ns;
    ev.dur_ns = dur_ns;
    ev.depth = depth;
    buf.count.store(n + 1, std::memory_order_release);
}

/// Writes `text` to `path`, truncating; false when it cannot.
bool
write_text(const std::string& path, const std::string& text)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && written;
}

/// Opens the writer-identity block every export carries: this process's
/// pid, its clock offset (monotonic to wall clock) and the dropped
/// span count.  The caller closes the object.
json::Writer&
begin_meta(json::Writer& w, std::uint64_t dropped)
{
    return w.begin_object()
        .key("pid").i64(::getpid())
        .key("monoToEpochUs").i64(trace_wall_offset_us())
        .key("spansDropped").u64(dropped);
}

/// One warning per process the first time an export sees dropped spans;
/// the per-export metadata block still carries the exact count.
void
warn_dropped_once(std::uint64_t dropped, const std::string& path)
{
    static std::atomic<bool> warned{false};
    if (dropped > 0 && !warned.exchange(true)) {
        PASTA_LOG_WARN << dropped << " span(s) dropped (ring buffer "
                       << "full); the trace in " << path
                       << " is missing the latest phases";
    }
}

}  // namespace

void
SpanScope::open(const char* name)
{
    if (!spans_enabled())
        return;
    armed_ = true;
    std::strncpy(name_, name, kSpanNameCapacity - 1);
    name_[kSpanNameCapacity - 1] = '\0';
    depth_ = local_buffer().depth++;
    begin_ns_ = now_ns();
}

SpanScope::SpanScope(const char* name)
{
    open(name);
}

SpanScope::SpanScope(const std::string& name)
{
    open(name.c_str());
}

SpanScope::~SpanScope()
{
    if (!armed_)
        return;
    const std::uint64_t end_ns = now_ns();
    ThreadBuffer& buf = local_buffer();
    --buf.depth;
    append_event(buf, name_, begin_ns_, end_ns - begin_ns_, depth_);
}

std::uint64_t
trace_now_ns()
{
    return now_ns();
}

std::int64_t
trace_wall_offset_us()
{
    const std::int64_t wall_us = std::chrono::duration_cast<
                                     std::chrono::microseconds>(
                                     std::chrono::system_clock::now()
                                         .time_since_epoch())
                                     .count();
    const std::int64_t mono_us = static_cast<std::int64_t>(now_ns() / 1000);
    return wall_us - mono_us;
}

std::vector<SpanRecord>
collect_spans()
{
    std::vector<SpanRecord> out;
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& buf : registry()) {
        const std::size_t n = buf->count.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            const SpanEvent& ev = buf->events[i];
            SpanRecord rec;
            rec.name = ev.name;
            rec.tid = buf->tid;
            rec.depth = ev.depth;
            rec.ts_us = static_cast<double>(ev.begin_ns) * 1e-3;
            rec.dur_us = static_cast<double>(ev.dur_ns) * 1e-3;
            out.push_back(std::move(rec));
        }
    }
    return out;
}

std::uint64_t
spans_dropped()
{
    std::uint64_t total = 0;
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& buf : registry())
        total += buf->dropped.load(std::memory_order_relaxed);
    return total;
}

void
reset_spans()
{
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& buf : registry()) {
        buf->count.store(0, std::memory_order_relaxed);
        buf->dropped.store(0, std::memory_order_relaxed);
    }
}

bool
write_chrome_trace(const std::string& path)
{
    const std::vector<SpanRecord> spans = collect_spans();
    const std::uint64_t dropped = spans_dropped();
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const char* sep = "\n";
    for (const auto& s : spans) {
        out += sep;
        sep = ",\n";
        json::Writer(out)
            .begin_object()
            .key("name").str(s.name)
            .key("cat").str("pasta")
            .key("ph").str("X")
            .key("ts").fixed(s.ts_us, 3)
            .key("dur").fixed(s.dur_us, 3)
            .key("pid").i64(1)
            .key("tid").i64(s.tid)
            .key("args").begin_object().key("depth").i64(s.depth).end_object()
            .end_object();
    }
    if (dropped > 0) {
        out += sep;
        json::Writer(out)
            .begin_object()
            .key("name").str("spans_dropped")
            .key("ph").str("C")
            .key("ts").i64(0)
            .key("pid").i64(1)
            .key("tid").i64(0)
            .key("args").begin_object().key("count").u64(dropped).end_object()
            .end_object();
    }
    // Viewers ignore unknown top-level keys.
    out += "\n],\"pastaMeta\":";
    json::Writer meta(out);
    begin_meta(meta, dropped).end_object();
    out += "}\n";
    if (!write_text(path, out)) {
        PASTA_LOG_WARN << "cannot write trace " << path;
        return false;
    }
    warn_dropped_once(dropped, path);
    PASTA_LOG_INFO << "wrote " << path << " (" << spans.size()
                   << " spans" << (dropped ? ", some dropped" : "") << ")";
    return true;
}

bool
write_spans_jsonl(const std::string& path)
{
    const std::vector<SpanRecord> spans = collect_spans();
    const std::uint64_t dropped = spans_dropped();
    std::string out;
    json::Writer header(out);
    begin_meta(header.begin_object().key("pastaMeta"), dropped)
        .end_object()
        .end_object();
    out += '\n';
    for (const auto& s : spans) {
        json::Writer(out)
            .begin_object()
            .key("name").str(s.name)
            .key("tid").i64(s.tid)
            .key("depth").i64(s.depth)
            .key("ts_us").fixed(s.ts_us, 3)
            .key("dur_us").fixed(s.dur_us, 3)
            .end_object();
        out += '\n';
    }
    if (!write_text(path, out)) {
        PASTA_LOG_WARN << "cannot write span stream " << path;
        return false;
    }
    warn_dropped_once(dropped, path);
    PASTA_LOG_INFO << "wrote " << path << " (" << spans.size() << " spans)";
    return true;
}

}  // namespace pasta::obs
