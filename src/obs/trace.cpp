#include "obs/trace.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

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
    const char* s = std::getenv("PASTA_TRACE");
    if (!s || !*s)
        return TraceMode::kOff;
    if (std::strcmp(s, "off") == 0)
        return TraceMode::kOff;
    if (std::strcmp(s, "counters") == 0)
        return TraceMode::kCounters;
    if (std::strcmp(s, "spans") == 0)
        return TraceMode::kSpans;
    if (std::strcmp(s, "full") == 0)
        return TraceMode::kFull;
    PASTA_CHECK_MSG(false, "PASTA_TRACE='"
                               << s
                               << "' must be off, counters, spans, or full");
    return TraceMode::kOff;  // unreachable
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
/// steady clock as the harness watchdog.
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
/// pid, its clock offset (the merge alignment contract) and the dropped
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

void
record_span(const char* name, std::uint64_t begin_ns, std::uint64_t dur_ns,
            int depth)
{
    if (spans_enabled())
        append_event(local_buffer(), name, begin_ns, dur_ns, depth);
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
    // Viewers ignore unknown top-level keys; merge_chrome_traces reads
    // this block for pid tracks and clock alignment.
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

bool
merge_chrome_traces(const std::vector<TraceMergeInput>& inputs,
                    const std::string& out_path)
{
    struct Loaded {
        json::Value doc;
        std::string label;
        bool has_meta = false;
        std::int64_t pid = 0;
        std::int64_t offset_us = 0;  ///< the writer's monoToEpochUs
        std::uint64_t dropped = 0;
    };
    std::vector<Loaded> traces;
    std::int64_t min_offset = 0;
    bool have_offset = false;
    std::int64_t synthetic_pid = 1000000;  // above any real pid range
    for (const auto& input : inputs) {
        std::ifstream in(input.path);
        std::stringstream buf;
        buf << in.rdbuf();
        Loaded t;
        if (!in.good() || !json::parse(buf.str(), t.doc)) {
            PASTA_LOG_WARN << "merge: cannot read " << input.path
                           << "; skipping";
            continue;
        }
        t.label = input.label;
        const json::Value* meta = t.doc.find("pastaMeta");
        t.has_meta = meta && meta->is_object();
        if (t.has_meta) {
            meta->get_optional("pid", t.pid);
            meta->get_optional("monoToEpochUs", t.offset_us);
            meta->get_optional("spansDropped", t.dropped);
            if (!have_offset || t.offset_us < min_offset) {
                min_offset = t.offset_us;
                have_offset = true;
            }
        } else {
            t.pid = ++synthetic_pid;
        }
        traces.push_back(std::move(t));
    }
    if (traces.empty()) {
        PASTA_LOG_WARN << "merge: no readable traces for " << out_path;
        return false;
    }

    // Each input goes on its own pid track, behind a process_name event
    // carrying its label, with every event's ts shifted onto the
    // earliest input's clock.  Everything else is copied verbatim.
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const char* sep = "\n";
    std::uint64_t dropped_total = 0;
    std::size_t events_total = 0;
    for (const Loaded& t : traces) {
        dropped_total += t.dropped;
        out += sep;
        sep = ",\n";
        json::Writer(out)
            .begin_object()
            .key("name").str("process_name")
            .key("ph").str("M")
            .key("pid").i64(t.pid)
            .key("tid").i64(0)
            .key("args").begin_object().key("name").str(t.label).end_object()
            .end_object();
        const double shift =
            t.has_meta ? static_cast<double>(t.offset_us - min_offset) : 0.0;
        const json::Value* events =
            t.doc.is_array() ? &t.doc : t.doc.find("traceEvents");
        if (!events || !events->is_array())
            continue;
        for (const json::Value& ev : events->items()) {
            out += sep;
            json::Writer w(out);
            ++events_total;
            if (!ev.is_object()) {
                w.value(ev);
                continue;
            }
            w.begin_object();
            for (const json::Member& m : ev.members()) {
                w.key(m.key);
                double ts;
                if (m.key == "ts" && m.value.get(ts))
                    w.fixed(ts + shift, 3);
                else if (m.key == "pid" && m.value.is_number())
                    w.i64(t.pid);
                else
                    w.value(m.value);
            }
            w.end_object();
        }
    }
    out += "\n],\"pastaMeta\":";
    json::Writer(out)
        .begin_object()
        .key("pid").i64(::getpid())
        .key("monoToEpochUs").i64(min_offset)
        .key("spansDropped").u64(dropped_total)
        .key("merged").u64(traces.size())
        .end_object();
    out += "}\n";
    if (!write_text(out_path, out)) {
        PASTA_LOG_WARN << "cannot write merged trace " << out_path;
        return false;
    }
    PASTA_LOG_INFO << "wrote " << out_path << " (" << events_total
                   << " events from " << traces.size() << " trace(s))";
    return true;
}

}  // namespace pasta::obs
