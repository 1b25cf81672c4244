#include "obs/metrics.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pasta::obs {

// ---------------------------------------------------------------------------
// Histogram

/// One shard: a dense atomic bucket array plus moments.  ~15 KiB; shards
/// are installed lazily so idle histograms cost one pointer array.
struct Histogram::Shard {
    std::atomic<std::uint64_t> buckets[kHistBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
};

Histogram::~Histogram()
{
    for (auto& slot : shards_)
        delete slot.load(std::memory_order_acquire);
}

Histogram::Shard&
Histogram::shard_for_thread()
{
    const std::size_t idx =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
    Shard* shard = shards_[idx].load(std::memory_order_acquire);
    if (shard == nullptr) {
        Shard* fresh = new Shard();
        if (shards_[idx].compare_exchange_strong(shard, fresh,
                                                 std::memory_order_acq_rel))
            return *fresh;
        delete fresh;  // another thread won the install race
    }
    return *shard;
}

void
Histogram::record(std::uint64_t v)
{
    Shard& s = shard_for_thread();
    s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = s.min.load(std::memory_order_relaxed);
    while (v < cur &&
           !s.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = s.max.load(std::memory_order_relaxed);
    while (v > cur &&
           !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

HistSample
Histogram::snapshot() const
{
    std::vector<std::uint64_t> dense(kHistBuckets, 0);
    HistSample out;
    std::uint64_t lo = ~std::uint64_t{0};
    for (const auto& slot : shards_) {
        const Shard* s = slot.load(std::memory_order_acquire);
        if (!s)
            continue;
        for (std::size_t i = 0; i < kHistBuckets; ++i)
            dense[i] += s->buckets[i].load(std::memory_order_relaxed);
        out.count += s->count.load(std::memory_order_relaxed);
        out.sum += s->sum.load(std::memory_order_relaxed);
        const std::uint64_t smin = s->min.load(std::memory_order_relaxed);
        if (smin < lo)
            lo = smin;
        const std::uint64_t smax = s->max.load(std::memory_order_relaxed);
        if (smax > out.max)
            out.max = smax;
    }
    out.min = out.count ? lo : 0;
    for (std::size_t i = 0; i < kHistBuckets; ++i)
        if (dense[i])
            out.buckets.emplace_back(static_cast<std::uint32_t>(i), dense[i]);
    return out;
}

void
Histogram::reset()
{
    for (auto& slot : shards_) {
        Shard* s = slot.load(std::memory_order_acquire);
        if (!s)
            continue;
        for (auto& b : s->buckets)
            b.store(0, std::memory_order_relaxed);
        s->count.store(0, std::memory_order_relaxed);
        s->sum.store(0, std::memory_order_relaxed);
        s->min.store(~std::uint64_t{0}, std::memory_order_relaxed);
        s->max.store(0, std::memory_order_relaxed);
    }
}

double
HistSample::percentile(double q) const
{
    if (count == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;
    std::uint64_t cum = 0;
    for (const auto& [idx, c] : buckets) {
        cum += c;
        if (cum >= rank) {
            const std::uint64_t lower = bucket_lower(idx);
            const std::uint64_t width = bucket_width(idx);
            return width == 1 ? static_cast<double>(lower)
                              : static_cast<double>(lower) +
                                    static_cast<double>(width) / 2.0;
        }
    }
    return static_cast<double>(max);  // unreachable with consistent counts
}

void
HistSample::merge_from(const HistSample& other)
{
    if (other.count == 0)
        return;
    if (count == 0 || other.min < min)
        min = other.min;
    if (other.max > max)
        max = other.max;
    count += other.count;
    sum += other.sum;
    // Merge two sorted sparse bucket lists.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
    merged.reserve(buckets.size() + other.buckets.size());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < buckets.size() || b < other.buckets.size()) {
        if (b >= other.buckets.size() ||
            (a < buckets.size() && buckets[a].first < other.buckets[b].first))
            merged.push_back(buckets[a++]);
        else if (a >= buckets.size() ||
                 other.buckets[b].first < buckets[a].first)
            merged.push_back(other.buckets[b++]);
        else {
            merged.emplace_back(buckets[a].first,
                                buckets[a].second + other.buckets[b].second);
            ++a;
            ++b;
        }
    }
    buckets = std::move(merged);
}

// ---------------------------------------------------------------------------
// Counter

void
Counter::reset()
{
    total_.store(0, std::memory_order_relaxed);
    overflow_.store(0, std::memory_order_relaxed);
    for (auto& w : worker_)
        w.store(0, std::memory_order_relaxed);
}

CounterSample::CounterSample(const Counter& c)
    : total(c.total()),
      overflow(c.overflow_.load(std::memory_order_relaxed))
{
    std::size_t used = 0;
    for (std::size_t w = 0; w < c.worker_.size(); ++w)
        if (c.worker_[w].load(std::memory_order_relaxed) != 0)
            used = w + 1;
    worker.resize(used);
    for (std::size_t w = 0; w < used; ++w)
        worker[w] = c.worker_[w].load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

namespace {

/// Occurrence history for one label key.
struct LabelState {
    std::string last;
    std::map<std::string, std::uint64_t> counts;
};

/// Every instrument by name.  unique_ptr values keep addresses stable, so
/// handles survive registry growth.  The mutex guards the maps and the
/// labels, never an update through a handle.
struct Registry {
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> hists;
    std::map<std::string, LabelState> labels;
};

Registry&
registry()
{
    static Registry r;
    return r;
}

template <class T>
T&
lookup(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
       std::string_view name)
{
    std::lock_guard<std::mutex> lock(registry().mutex);
    auto it = map.find(name);
    if (it == map.end())
        it = map.emplace(std::string(name), std::make_unique<T>()).first;
    return *it->second;
}

}  // namespace

Counter&
counter(std::string_view name)
{
    return lookup(registry().counters, name);
}

Gauge&
gauge(std::string_view name)
{
    return lookup(registry().gauges, name);
}

Histogram&
histogram(std::string_view name)
{
    return lookup(registry().hists, name);
}

MetricsSnapshot
snapshot_metrics()
{
    MetricsSnapshot snap;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& [name, c] : r.counters)
        snap.counters.emplace(name, CounterSample(*c));
    for (const auto& [name, g] : r.gauges)
        snap.gauges[name] = g->value();
    for (const auto& [name, h] : r.hists)
        snap.hists[name] = h->snapshot();
    for (const auto& [key, state] : r.labels)
        snap.labels.push_back(
            {key, state.last, {state.counts.begin(), state.counts.end()}});
    return snap;
}

void
reset_metrics()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto& [name, c] : r.counters)
        c->reset();
    for (auto& [name, g] : r.gauges)
        g->set(0.0);
    for (auto& [name, h] : r.hists)
        h->reset();
    r.labels.clear();
}

const CounterSample*
MetricsSnapshot::find(const std::string& name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? nullptr : &it->second;
}

std::uint64_t
MetricsSnapshot::counter(const std::string& name) const
{
    const CounterSample* c = find(name);
    return c ? c->total : 0;
}

double
MetricsSnapshot::gauge(const std::string& name) const
{
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
}

const HistSample*
MetricsSnapshot::hist(const std::string& name) const
{
    auto it = hists.find(name);
    return it == hists.end() ? nullptr : &it->second;
}

std::string
MetricsSnapshot::label(const std::string& key) const
{
    for (const auto& l : labels)
        if (l.key == key)
            return l.last;
    return std::string();
}

// ---------------------------------------------------------------------------
// Model counters (obs/counters.hpp): the PASTA_TRACE gate

void
add(const char* name, std::uint64_t v)
{
    if (counters_enabled())
        counter(name).add(v);
}

void
add_worker(const char* name, int worker, std::uint64_t v)
{
    if (counters_enabled())
        counter(name).add_worker(worker, v);
}

void
record_max(const char* name, std::uint64_t v)
{
    if (counters_enabled())
        gauge(name).max(static_cast<double>(v));
}

void
set_label(const std::string& key, const std::string& value)
{
    if (!counters_enabled())
        return;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    LabelState& state = r.labels[key];
    state.last = value;
    ++state.counts[value];
}

std::string
last_label(const std::string& key)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.labels.find(key);
    return it == r.labels.end() ? std::string() : it->second.last;
}

MetricsSnapshot
snapshot_counters()
{
    return snapshot_metrics();
}

// ---------------------------------------------------------------------------
// Heartbeat JSONL

std::string
snapshot_to_json(const MetricsSnapshot& snap)
{
    std::string out;
    out.reserve(1024);
    json::Writer w(out);
    w.begin_object()
        .key("ts").num(snap.ts)
        .key("seq").u64(snap.seq)
        .key("source").str(snap.source);
    w.key("counters").begin_object();
    for (const auto& [name, c] : snap.counters)
        w.key(name).u64(c.total);
    w.end_object().key("gauges").begin_object();
    for (const auto& [name, v] : snap.gauges)
        w.key(name).num(v);
    w.end_object().key("hists").begin_object();
    for (const auto& [name, h] : snap.hists) {
        w.key(name).begin_object()
            .key("count").u64(h.count)
            .key("sum").u64(h.sum)
            .key("min").u64(h.min)
            .key("max").u64(h.max)
            .key("buckets").begin_array();
        for (const auto& [idx, c] : h.buckets)
            w.begin_array().u64(idx).u64(c).end_array();
        w.end_array().end_object();
    }
    w.end_object().end_object();
    return out;
}

namespace {

bool
parse_hist(const json::Value& v, HistSample& out)
{
    if (!v.is_object() || !v.get_optional("count", out.count) ||
        !v.get_optional("sum", out.sum) || !v.get_optional("min", out.min) ||
        !v.get_optional("max", out.max))
        return false;
    const json::Value* buckets = v.find("buckets");
    if (!buckets)
        return true;
    if (!buckets->is_array())
        return false;
    for (const json::Value& pair : buckets->items()) {
        std::uint64_t idx;
        std::uint64_t count;
        if (!pair.is_array() || pair.items().size() != 2 ||
            !pair.items()[0].get(idx) || !pair.items()[1].get(count) ||
            idx >= kHistBuckets)
            return false;
        out.buckets.emplace_back(static_cast<std::uint32_t>(idx), count);
    }
    return true;
}

/// Reads the object member `key` (absent is fine) as name -> T through
/// `read`, which reports conversion failure.
template <class Read>
bool
parse_named(const json::Value& doc, const char* key, Read read)
{
    const json::Value* obj = doc.find(key);
    if (!obj)
        return true;
    if (!obj->is_object())
        return false;
    for (const json::Member& m : obj->members())
        if (!read(m.key, m.value))
            return false;
    return true;
}

}  // namespace

bool
parse_snapshot_line(const std::string& line, MetricsSnapshot& out)
{
    json::Value doc;
    MetricsSnapshot snap;
    if (!json::parse(line, doc) || !doc.is_object() ||
        !doc.get_optional("ts", snap.ts) ||
        !doc.get_optional("seq", snap.seq) ||
        !doc.get_optional("source", snap.source))
        return false;
    const bool ok =
        parse_named(doc, "counters",
                    [&](const std::string& name, const json::Value& v) {
                        return v.get(snap.counters[name].total);
                    }) &&
        parse_named(doc, "gauges",
                    [&](const std::string& name, const json::Value& v) {
                        return v.get(snap.gauges[name]);
                    }) &&
        parse_named(doc, "hists",
                    [&](const std::string& name, const json::Value& v) {
                        HistSample h;
                        if (!parse_hist(v, h))
                            return false;
                        snap.hists[name] = std::move(h);
                        return true;
                    });
    if (!ok)
        return false;
    out = std::move(snap);
    return true;
}

bool
load_last_snapshot(const std::string& path, MetricsSnapshot& out)
{
    std::ifstream in(path);
    if (!in.good())
        return false;
    bool found = false;
    std::string line;
    MetricsSnapshot snap;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        MetricsSnapshot parsed;
        if (parse_snapshot_line(line, parsed)) {
            snap = std::move(parsed);
            found = true;
        }
        // Unparseable lines (torn tail of a SIGKILL'd writer) are
        // skipped; the last complete heartbeat wins.
    }
    if (found)
        out = std::move(snap);
    return found;
}

MetricsSnapshot
merge_snapshots(const std::vector<MetricsSnapshot>& snaps,
                const std::string& source)
{
    MetricsSnapshot out;
    out.source = source;
    for (const auto& s : snaps) {
        if (s.ts > out.ts)
            out.ts = s.ts;
        if (s.seq > out.seq)
            out.seq = s.seq;
        for (const auto& [name, c] : s.counters)
            out.counters[name].total += c.total;
        for (const auto& [name, v] : s.gauges) {
            auto [it, inserted] = out.gauges.emplace(name, v);
            if (!inserted && v > it->second)
                it->second = v;
        }
        for (const auto& [name, h] : s.hists)
            out.hists[name].merge_from(h);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Exporter

ExporterOptions
ExporterOptions::from_env()
{
    ExporterOptions opts;
    const char* s = std::getenv("PASTA_METRICS");
    if (!s || !*s)
        return opts;
    const std::string spec(s);
    const std::size_t comma = spec.rfind(',');
    if (comma == std::string::npos) {
        opts.path = spec;
        return opts;
    }
    opts.path = spec.substr(0, comma);
    const std::string ms = spec.substr(comma + 1);
    char* end = nullptr;
    const long v = std::strtol(ms.c_str(), &end, 10);
    PASTA_CHECK_MSG(end == ms.c_str() + ms.size() && *ms.c_str() != '\0' &&
                        v >= 1 && v <= 3600000,
                    "PASTA_METRICS='" << spec
                                      << "': interval_ms must be an integer "
                                         "in [1, 3600000]");
    PASTA_CHECK_MSG(!opts.path.empty(),
                    "PASTA_METRICS='" << spec << "': empty path");
    opts.interval_s = static_cast<double>(v) / 1000.0;
    return opts;
}

namespace {

double
wall_now_s()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/// Exporter state: one background thread per process, guarded by a
/// start/stop mutex.  The heartbeat fd stays open across snapshots; each
/// snapshot is one O_APPEND write (atomic enough for concurrent
/// appenders sharing a path) followed by one fsync.
struct ExporterState {
    std::thread thread;
    std::mutex mutex;  // protects stop + wakes the ticker
    std::condition_variable cv;
    bool stop = false;
    int fd = -1;
    std::uint64_t seq = 0;
    ExporterOptions opts;
    std::string source;

    /// Refreshes the pulled gauges and appends one snapshot line.
    void emit()
    {
        static Gauge& reserved = gauge("mem.reserved");
        static Gauge& peak = gauge("mem.peak");
        static Gauge& dropped = gauge("obs.spans_dropped");
        const auto& governor = membudget::MemGovernor::instance();
        reserved.set(static_cast<double>(governor.reserved()));
        peak.set(static_cast<double>(governor.peak()));
        dropped.set(static_cast<double>(spans_dropped()));
        MetricsSnapshot snap = snapshot_metrics();
        snap.ts = wall_now_s();
        snap.seq = ++seq;  // 1-based: "seq 0" stays "never exported"
        snap.source = source;
        std::string line = snapshot_to_json(snap);
        line += '\n';
        if (!fsutil::write_all(fd, line.data(), line.size())) {
            PASTA_LOG_WARN << "metrics exporter: write to " << opts.path
                           << " failed: " << std::strerror(errno);
            return;
        }
        ::fsync(fd);
    }

    void run()
    {
        emit();  // immediate first heartbeat: arm-to-first-line is ~0
        std::unique_lock<std::mutex> lock(mutex);
        const auto interval = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts.interval_s));
        while (!stop) {
            cv.wait_for(lock, interval, [this] { return stop; });
            if (stop)
                break;
            lock.unlock();
            emit();
            lock.lock();
        }
    }
};

std::mutex g_exporter_mutex;
std::unique_ptr<ExporterState> g_exporter;

}  // namespace

bool
start_exporter(const ExporterOptions& opts, const std::string& source)
{
    stop_exporter();
    if (!opts.armed())
        return false;
    const int fd = ::open(opts.path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        PASTA_LOG_WARN << "metrics exporter: cannot open " << opts.path
                       << ": " << std::strerror(errno);
        return false;
    }
    // A process that exits with the exporter still running (the bench
    // drivers never stop it) must join the thread and write the final
    // snapshot before the statics emit() reads are destroyed.  atexit
    // handlers run before the destructors of statics constructed earlier,
    // so construct those first, then register.
    static const bool stop_at_exit = [] {
        (void)registry();
        (void)membudget::MemGovernor::instance();
        (void)spans_dropped();
        return std::atexit([] { stop_exporter(); }) == 0;
    }();
    (void)stop_at_exit;
    std::lock_guard<std::mutex> lock(g_exporter_mutex);
    auto state = std::make_unique<ExporterState>();
    state->fd = fd;
    state->opts = opts;
    state->source = source;
    ExporterState* raw = state.get();
    state->thread = std::thread([raw] { raw->run(); });
    g_exporter = std::move(state);
    return true;
}

bool
arm_from_env(const std::string& source)
{
    const ExporterOptions opts = ExporterOptions::from_env();
    if (!opts.armed())
        return false;
    return start_exporter(opts, source);
}

void
stop_exporter()
{
    std::unique_ptr<ExporterState> state;
    {
        std::lock_guard<std::mutex> lock(g_exporter_mutex);
        state = std::move(g_exporter);
    }
    if (!state)
        return;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->stop = true;
    }
    state->cv.notify_all();
    state->thread.join();
    state->emit();  // final snapshot: the run's authoritative totals
    ::close(state->fd);
}

bool
exporter_running()
{
    std::lock_guard<std::mutex> lock(g_exporter_mutex);
    return g_exporter != nullptr;
}

}  // namespace pasta::obs
