/// \file
/// The telemetry registry: every named counter, gauge, histogram and
/// decision label in the process, one snapshot type for all consumers,
/// and the background heartbeat exporter.
///
/// Instruments:
///   - Counter: monotone total with optional per-worker attribution
///     (kMaxWorkers slots plus a shared overflow cell), for event counts
///     and the model quantities the kernels derive (flops, bytes).
///   - Gauge: a double that is set (levels) or raised (high-water marks).
///   - Histogram: log-linear, 32 sub-buckets per octave: values below 64
///     are exact, larger values land in a bucket at most value/32 wide,
///     so a reported percentile is within ~3.125% of the exact
///     sorted-sample percentile (plus half a unit).  1920 slots cover all
///     of uint64, so per-job latencies over millions of jobs cost O(1)
///     memory.  Each histogram keeps 16 lazily CAS-installed shards that
///     threads hash onto; shards are summed on read.
///   - Labels: the last value and per-value counts of a decision key
///     ("mttkrp.variant" -> "block-owner").
///
/// Instruments are registered by name on first use and live for the
/// process; counter()/gauge()/histogram() take the registry mutex, so
/// per-job and per-chunk sites look their handle up once and cache it.
/// Updates through a handle are relaxed atomics and never lock.
///
/// Nothing here is gated.  The PASTA_TRACE gate belongs to the model
/// counters of obs/counters.hpp (add, add_worker, record_max, set_label),
/// which forward into this registry only when counters are armed; live
/// serving and trial sites record unconditionally.
///
/// The snapshot (MetricsSnapshot) feeds per-trial deltas
/// (obs/report.hpp) and the heartbeat JSONL.  A heartbeat line is
/// snapshot_to_json() of it:
///   {"ts":..,"seq":N,"source":"..","counters":{"name":total,..},
///    "gauges":{"name":value,..},"hists":{"name":{"count":..,"sum":..,
///    "min":..,"max":..,"buckets":[[idx,count],..]},..}}
/// Per-worker slots and labels stay in process; the heartbeat carries
/// totals only.  The exporter, armed by PASTA_METRICS=<path>[,interval_ms],
/// appends one such line per interval and fsyncs it, so `tail -f` and
/// scripts/metrics_summary.py can watch a live run and a line torn by a
/// SIGKILL never corrupts the earlier ones.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pasta::obs {

/// Per-worker slots kept by each counter (CounterSample::worker).
/// Matches the suite's practical ceiling on parallel_for workers.
inline constexpr int kMaxWorkers = 64;

/// Sub-bucket resolution: 2^5 = 32 buckets per power of two, giving a
/// worst-case bucket width of value/32 (~3.125% relative error).
inline constexpr int kSubBits = 5;

/// Dense bucket count covering all of uint64: values < 64 are exact
/// (indices 0..63), and each of the 58 remaining octaves contributes 32
/// buckets: 64 + 58*32 = 1920.
inline constexpr std::size_t kHistBuckets = 1920;

/// Bucket index for a recorded value (monotone in v).
inline std::size_t
bucket_index(std::uint64_t v)
{
    if (v < 64)
        return static_cast<std::size_t>(v);
    const int b = std::bit_width(v) - 1;  // 63 - clz; b >= 6 here
    return static_cast<std::size_t>(b - kSubBits) * 32 +
           static_cast<std::size_t>(v >> (b - kSubBits));
}

/// Inclusive lower edge of bucket `idx`.
inline std::uint64_t
bucket_lower(std::size_t idx)
{
    if (idx < 64)
        return idx;
    const std::size_t hi = idx >> 5;        // octave group, >= 2
    const int b = static_cast<int>(hi) + 4; // exponent of the octave
    const std::uint64_t m = idx - (hi - 1) * 32;  // mantissa in [32, 64)
    return m << (b - kSubBits);
}

/// Width of bucket `idx` (1 for the exact range).
inline std::uint64_t
bucket_width(std::size_t idx)
{
    if (idx < 64)
        return 1;
    const std::size_t hi = idx >> 5;
    return std::uint64_t{1} << (static_cast<int>(hi) + 4 - kSubBits);
}

/// One histogram read out of the registry (or parsed back from JSONL):
/// sparse nonzero buckets sorted by index, plus the moments needed for
/// means and exact-extreme reporting.
struct HistSample {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< exact smallest recorded value (0 if empty)
    std::uint64_t max = 0;  ///< exact largest recorded value
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

    double mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }

    /// Value at quantile q in [0,1]: the representative (midpoint; exact
    /// for the unit-width buckets) of the bucket holding sample number
    /// max(1, ceil(q*count)) — the same rank convention as indexing a
    /// sorted sample vector at ceil(q*n)-1, so the estimate is always
    /// inside the bucket that contains the exact percentile.
    double percentile(double q) const;
};

/// A monotone counter with per-worker attribution.
class Counter {
  public:
    /// total += v.
    void add(std::uint64_t v)
    {
        total_.fetch_add(v, std::memory_order_relaxed);
    }

    /// total += v, and the worker's slot += v.  Workers at or beyond
    /// kMaxWorkers spill into a shared overflow cell — counted, not
    /// dropped — so oversubscribed runs keep exact totals and a
    /// snapshot can say how much work went unattributed.
    /// Negative workers stay total-only.
    void add_worker(int worker, std::uint64_t v)
    {
        total_.fetch_add(v, std::memory_order_relaxed);
        if (worker >= 0 && worker < kMaxWorkers)
            worker_[static_cast<std::size_t>(worker)].fetch_add(
                v, std::memory_order_relaxed);
        else if (worker >= kMaxWorkers)
            overflow_.fetch_add(v, std::memory_order_relaxed);
    }

    std::uint64_t total() const
    {
        return total_.load(std::memory_order_relaxed);
    }

    void reset();

  private:
    friend struct CounterSample;

    std::atomic<std::uint64_t> total_{0};
    std::atomic<std::uint64_t> overflow_{0};
    std::array<std::atomic<std::uint64_t>, kMaxWorkers> worker_{};
};

/// A level (set) or high-water mark (max).
class Gauge {
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    /// value = max(value, v).
    void max(double v)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (v > cur && !value_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/// A concurrent log-linear histogram.  record() is wait-free after the
/// calling thread's shard exists (relaxed adds plus two CAS extreme
/// updates); snapshot() sums the shards.
class Histogram {
  public:
    Histogram() = default;
    ~Histogram();
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void record(std::uint64_t v);
    HistSample snapshot() const;
    void reset();

  private:
    static constexpr std::size_t kShards = 16;

    struct Shard;
    Shard& shard_for_thread();

    std::atomic<Shard*> shards_[kShards] = {};
};

/// The instrument registered under `name`, created on first use.  The
/// reference stays valid for the life of the process; hot sites cache it.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// One counter read out of the registry.  A parsed heartbeat fills the
/// total only.
struct CounterSample {
    std::uint64_t total = 0;
    std::uint64_t overflow = 0;         ///< spill from workers >= kMaxWorkers
    std::vector<std::uint64_t> worker;  ///< per-worker totals, trimmed

    CounterSample() = default;
    explicit CounterSample(const Counter& c);
};

/// One label key with its last value and per-value occurrence counts.
struct LabelSample {
    std::string key;
    std::string last;
    std::vector<std::pair<std::string, std::uint64_t>> counts;
};

/// Point-in-time copy of the registry, plus the heartbeat envelope
/// (wall-clock stamp, per-exporter sequence number, source label).
/// Lookups of absent names return zero/empty/nullptr.
struct MetricsSnapshot {
    double ts = 0.0;        ///< unix seconds (system clock)
    std::uint64_t seq = 0;  ///< per-exporter snapshot ordinal
    std::string source;     ///< who exported: "bench", ...
    std::map<std::string, CounterSample> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistSample> hists;
    std::vector<LabelSample> labels;  ///< sorted by key

    const CounterSample* find(const std::string& name) const;
    std::uint64_t counter(const std::string& name) const;
    double gauge(const std::string& name) const;
    const HistSample* hist(const std::string& name) const;
    /// Last value of label `key`.
    std::string label(const std::string& key) const;
};

/// Copies every instrument and label (relaxed loads; exact once the
/// recording threads are quiescent).  ts/seq/source are left default.
MetricsSnapshot snapshot_metrics();

/// Zeroes every instrument and forgets every label; names stay
/// registered, so cached handles stay valid.
void reset_metrics();

/// Serializes one snapshot as a heartbeat line (schema above; no
/// trailing newline).
std::string snapshot_to_json(const MetricsSnapshot& snap);

/// Parses one heartbeat line.  Returns false (leaving `out` untouched)
/// on malformed input — torn tails from a killed writer are expected and
/// must not abort the reader.  Unknown keys are skipped.
bool parse_snapshot_line(const std::string& line, MetricsSnapshot& out);

/// Exporter arming, parsed from PASTA_METRICS=<path>[,interval_ms].
struct ExporterOptions {
    std::string path;        ///< empty = disarmed
    double interval_s = 1.0; ///< heartbeat period

    bool armed() const { return !path.empty(); }

    /// Strict parse of PASTA_METRICS; unset means disarmed, an empty
    /// value or a malformed interval throws PastaError.
    static ExporterOptions from_env();
};

/// Starts the background exporter: an immediate first snapshot, then one
/// per interval, appended+fsync'd to opts.path.  Stops any previously
/// running exporter first.  Each tick refreshes the governor gauges
/// (mem.reserved, mem.peak) and obs.spans_dropped before snapshotting.
/// A process that exits with the exporter running stops it (joining the
/// thread, writing the final snapshot) from an atexit handler.  Returns
/// false when disarmed or the file cannot be opened.
bool start_exporter(const ExporterOptions& opts, const std::string& source);

/// start_exporter(ExporterOptions::from_env(), source); false when
/// PASTA_METRICS is unset.
bool arm_from_env(const std::string& source);

/// Stops the exporter thread after writing one final snapshot.  Safe to
/// call when no exporter runs.  Forking callers must stop the exporter
/// before fork() so children never inherit its thread mid-write.
void stop_exporter();

/// True while an exporter thread is running in this process.
bool exporter_running();

}  // namespace pasta::obs
