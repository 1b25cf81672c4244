// Tests for the live metrics registry (src/obs/metrics): log-linear
// histogram bucket math and percentile error bounds, registry
// round-trips, snapshot JSONL serialization/parsing, torn-tail
// tolerance, hostile heartbeat lines, and the background exporter
// (including a process exiting under it).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace pasta::obs {
namespace {

/// Every test starts and ends with a zeroed registry and no exporter.
class MetricsTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        stop_exporter();
        reset_metrics();
    }
    void TearDown() override
    {
        stop_exporter();
        reset_metrics();
    }
};

/// Exact percentile of a sample by full sort: the reference the
/// histogram estimate is checked against.  Same rank convention as
/// HistSample::percentile (sample number max(1, ceil(q*n))).
std::uint64_t
exact_percentile(std::vector<std::uint64_t> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

/// Feeds `values` through a histogram and asserts p50/p95/p99 land
/// within the documented bucket-relative-error bound of the exact
/// sorted-sample percentiles: |est - exact| <= exact/32 + 1 (half a
/// bucket of width <= exact/32, plus one unit of integer slack).
void
expect_percentiles_within_bound(const std::vector<std::uint64_t>& values,
                                const char* what)
{
    Histogram h;
    for (const std::uint64_t v : values)
        h.record(v);
    const HistSample sample = h.snapshot();
    ASSERT_EQ(sample.count, values.size()) << what;
    for (const double q : {0.50, 0.95, 0.99}) {
        const double exact =
            static_cast<double>(exact_percentile(values, q));
        const double est = sample.percentile(q);
        const double bound = exact / 32.0 + 1.0;
        EXPECT_NEAR(est, exact, bound)
            << what << " q=" << q << " exact=" << exact;
    }
}

TEST_F(MetricsTest, BucketIndexIsMonotoneAndSelfConsistent)
{
    // Exact range: identity.
    for (std::uint64_t v = 0; v < 64; ++v) {
        EXPECT_EQ(bucket_index(v), v);
        EXPECT_EQ(bucket_lower(v), v);
        EXPECT_EQ(bucket_width(v), 1u);
    }
    // Every value lies inside its own bucket, widths bound the error,
    // and indices never decrease as values grow.
    std::size_t prev_idx = 0;
    for (std::uint64_t v : {64ull, 65ull, 100ull, 1000ull, 4095ull,
                            4096ull, 123456789ull, 1ull << 40,
                            (1ull << 40) + 12345, ~0ull}) {
        const std::size_t idx = bucket_index(v);
        ASSERT_LT(idx, kHistBuckets) << v;
        EXPECT_GE(idx, prev_idx);
        prev_idx = idx;
        const std::uint64_t lo = bucket_lower(idx);
        const std::uint64_t w = bucket_width(idx);
        EXPECT_LE(lo, v);
        EXPECT_LT(v - lo, w) << v;
        EXPECT_LE(w, v / 32 + 1) << v;
    }
    // The full sweep of bucket edges round-trips through the index map.
    for (std::size_t idx = 0; idx < kHistBuckets; ++idx) {
        const std::uint64_t lo = bucket_lower(idx);
        EXPECT_EQ(bucket_index(lo), idx) << idx;
        const std::uint64_t w = bucket_width(idx);
        if (lo + (w - 1) >= lo) {  // skip the final bucket's overflow
            EXPECT_EQ(bucket_index(lo + (w - 1)), idx) << idx;
        }
    }
}

TEST_F(MetricsTest, PercentilesWithinBoundUniform)
{
    Rng rng(1234);
    std::vector<std::uint64_t> values;
    values.reserve(20000);
    for (int i = 0; i < 20000; ++i)
        values.push_back(rng.next_u64() % 1000000);
    expect_percentiles_within_bound(values, "uniform");
}

TEST_F(MetricsTest, PercentilesWithinBoundBimodal)
{
    // Two tight modes far apart: fast cache hits around 40 µs, slow
    // builds around 80 ms — the serving workload's latency shape.
    Rng rng(99);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 9000; ++i)
        values.push_back(30 + rng.next_u64() % 20);
    for (int i = 0; i < 1000; ++i)
        values.push_back(75000 + rng.next_u64() % 10000);
    expect_percentiles_within_bound(values, "bimodal");
}

TEST_F(MetricsTest, PercentilesWithinBoundHeavyTail)
{
    // Pareto-ish tail spanning six orders of magnitude.
    std::mt19937_64 gen(7);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 20000; ++i) {
        const double u = uni(gen);
        values.push_back(static_cast<std::uint64_t>(
            10.0 / std::pow(1.0 - u * 0.999999, 1.2)));
    }
    expect_percentiles_within_bound(values, "heavy-tail");
}

TEST_F(MetricsTest, PercentilesSingleValueAndEmpty)
{
    expect_percentiles_within_bound(
        std::vector<std::uint64_t>(5000, 777), "single-value");
    const HistSample empty;
    EXPECT_EQ(empty.percentile(0.5), 0.0);
    EXPECT_EQ(empty.mean(), 0.0);
}

TEST_F(MetricsTest, SnapshotTracksMomentsExactly)
{
    Histogram h;
    h.record(3);
    h.record(100000);
    h.record(41);
    const HistSample s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sum, 100044u);
    EXPECT_EQ(s.min, 3u);
    EXPECT_EQ(s.max, 100000u);
    EXPECT_DOUBLE_EQ(s.mean(), 100044.0 / 3.0);
}

TEST_F(MetricsTest, ConcurrentRecordingLosesNothing)
{
    Histogram h;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<std::uint64_t>(t * kPerThread + i));
        });
    for (auto& th : threads)
        th.join();
    const HistSample s = h.snapshot();
    EXPECT_EQ(s.count,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max,
              static_cast<std::uint64_t>(kThreads) * kPerThread - 1);
}

TEST_F(MetricsTest, RegistryRoundTrip)
{
    counter("t.jobs").add(5);
    counter("t.jobs").add(7);
    gauge("t.level").set(3.5);
    gauge("t.peak").max(10.0);
    gauge("t.peak").max(4.0);  // lower: must not regress the max
    histogram("t.lat").record(100);
    histogram("t.lat").record(200);

    const MetricsSnapshot snap = snapshot_metrics();
    EXPECT_EQ(snap.counter("t.jobs"), 12u);
    EXPECT_DOUBLE_EQ(snap.gauge("t.level"), 3.5);
    EXPECT_DOUBLE_EQ(snap.gauge("t.peak"), 10.0);
    const HistSample* lat = snap.hist("t.lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 2u);
    EXPECT_EQ(lat->sum, 300u);
    // Absent names read as zero/null, never throw.
    EXPECT_EQ(snap.counter("t.absent"), 0u);
    EXPECT_DOUBLE_EQ(snap.gauge("t.absent"), 0.0);
    EXPECT_EQ(snap.hist("t.absent"), nullptr);

    reset_metrics();
    const MetricsSnapshot cleared = snapshot_metrics();
    EXPECT_EQ(cleared.counter("t.jobs"), 0u);
    const HistSample* lat2 = cleared.hist("t.lat");
    ASSERT_NE(lat2, nullptr);
    EXPECT_EQ(lat2->count, 0u);
}

TEST_F(MetricsTest, JsonRoundTripPreservesEverything)
{
    counter("rt.count").add(42);
    gauge("rt.gauge").set(1234.5);
    histogram("rt.hist").record(7);
    histogram("rt.hist").record(7);
    histogram("rt.hist").record(900000);
    MetricsSnapshot snap = snapshot_metrics();
    snap.ts = 1754700000.25;
    snap.seq = 9;
    snap.source = "shard \"x\"\\y";  // exercises string escaping

    const std::string line = snapshot_to_json(snap);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    MetricsSnapshot back;
    ASSERT_TRUE(parse_snapshot_line(line, back));
    EXPECT_DOUBLE_EQ(back.ts, snap.ts);
    EXPECT_EQ(back.seq, 9u);
    EXPECT_EQ(back.source, "shard \"x\"\\y");
    EXPECT_EQ(back.counter("rt.count"), 42u);
    EXPECT_DOUBLE_EQ(back.gauge("rt.gauge"), 1234.5);
    const HistSample* h = back.hist("rt.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 3u);
    EXPECT_EQ(h->sum, 900014u);
    EXPECT_EQ(h->min, 7u);
    EXPECT_EQ(h->max, 900000u);
    const HistSample* orig = snap.hist("rt.hist");
    ASSERT_NE(orig, nullptr);
    EXPECT_EQ(h->buckets, orig->buckets);
}

TEST_F(MetricsTest, ParseRejectsGarbageAndAcceptsUnknownKeys)
{
    MetricsSnapshot out;
    EXPECT_FALSE(parse_snapshot_line("", out));
    EXPECT_FALSE(parse_snapshot_line("not json", out));
    EXPECT_FALSE(parse_snapshot_line("{\"ts\":1.0,\"seq\":", out));
    EXPECT_FALSE(parse_snapshot_line(
        "{\"hists\":{\"h\":{\"buckets\":[[99999,1]]}}}", out));
    // Unknown keys (schema evolution) are skipped, not fatal.
    EXPECT_TRUE(parse_snapshot_line(
        "{\"ts\":2.0,\"seq\":1,\"source\":\"s\",\"future\":{\"a\":[1,2]},"
        "\"counters\":{\"c\":3}}",
        out));
    EXPECT_EQ(out.counter("c"), 3u);
}

TEST_F(MetricsTest, HeartbeatLineBytesArePinned)
{
    // Heartbeat files outlive the binary that wrote them (resumed runs,
    // metrics_summary.py): the serialization is pinned.
    MetricsSnapshot s;
    s.ts = 1754700000.25;
    s.seq = 9;
    s.source = "shard \"x\"\\y";
    s.counters["a.count"].total = 42;
    s.counters["b"].total = 0;
    s.counters["big"].total = 18446744073709551615ull;
    s.gauges["g.level"] = 1234.5;
    s.gauges["g.tiny"] = 0.1;
    s.gauges["g.neg"] = -2.5e-300;
    HistSample& h = s.hists["h"];
    h.count = 3;
    h.sum = 900014;
    h.min = 7;
    h.max = 900000;
    h.buckets = {{7, 2},
                 {static_cast<std::uint32_t>(bucket_index(900000)), 1}};
    s.hists["empty"];
    EXPECT_EQ(snapshot_to_json(s),
              "{\"ts\":1754700000.25,\"seq\":9,"
              "\"source\":\"shard \\\"x\\\"\\\\y\","
              "\"counters\":{\"a.count\":42,\"b\":0,"
              "\"big\":18446744073709551615},"
              "\"gauges\":{\"g.level\":1234.5,\"g.neg\":-2.5e-300,"
              "\"g.tiny\":0.10000000000000001},"
              "\"hists\":{\"empty\":{\"count\":0,\"sum\":0,\"min\":0,"
              "\"max\":0,\"buckets\":[]},"
              "\"h\":{\"count\":3,\"sum\":900014,\"min\":7,\"max\":900000,"
              "\"buckets\":[[7,2],[502,1]]}}}");
    EXPECT_EQ(snapshot_to_json(MetricsSnapshot{}),
              "{\"ts\":0,\"seq\":0,\"source\":\"\",\"counters\":{},"
              "\"gauges\":{},\"hists\":{}}");
    MetricsSnapshot back;
    ASSERT_TRUE(parse_snapshot_line(snapshot_to_json(s), back));
    EXPECT_EQ(back.counter("big"), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(back.gauge("g.neg"), -2.5e-300);
    EXPECT_EQ(snapshot_to_json(back), snapshot_to_json(s));
}

TEST_F(MetricsTest, ParseDecodesUnicodeEscapesToUtf8)
{
    MetricsSnapshot out;
    ASSERT_TRUE(parse_snapshot_line(
        "{\"source\":\"caf\\u00e9\",\"counters\":{\"\\u00fcber\":1}}",
        out));
    EXPECT_EQ(out.source, "caf\xc3\xa9");
    EXPECT_EQ(out.counter("\xc3\xbc" "ber"), 1u);
    EXPECT_FALSE(parse_snapshot_line("{\"source\":\"\\udc00\"}", out));
}

TEST_F(MetricsTest, ParseRejectsDeepNestingWithoutCrashing)
{
    // An unknown key is skipped whatever it holds — but not at any depth:
    // a line nested two million levels deep must be rejected, not
    // recursed into until the stack overflows.
    std::string bomb = "{\"ts\":1.0,\"future\":";
    bomb.append(2000000, '[');
    bomb.append(2000000, ']');
    bomb += "}";
    MetricsSnapshot out;
    out.seq = 77;
    EXPECT_FALSE(parse_snapshot_line(bomb, out));
    EXPECT_EQ(out.seq, 77u);  // untouched on failure
    // Modest nesting under an unknown key still parses.
    EXPECT_TRUE(parse_snapshot_line(
        "{\"seq\":5,\"future\":[[[[{\"a\":[1,{\"b\":null}]}]]]]}", out));
    EXPECT_EQ(out.seq, 5u);
}

TEST_F(MetricsTest, ParseRejectsNonJsonNumbers)
{
    MetricsSnapshot out;
    EXPECT_TRUE(parse_snapshot_line("{\"gauges\":{\"g\":1e3}}", out));
    EXPECT_DOUBLE_EQ(out.gauge("g"), 1000.0);
    for (const char* bad :
         {"{\"gauges\":{\"g\":nan}}", "{\"gauges\":{\"g\":inf}}",
          "{\"counters\":{\"c\":0x10}}", "{\"counters\":{\"c\":-1}}",
          "{\"counters\":{\"c\":18446744073709551616}}",
          "{\"gauges\":{\"g\":1e999}}"})
        EXPECT_FALSE(parse_snapshot_line(bad, out)) << bad;
}

TEST_F(MetricsTest, TornTailKeepsTheLastCompleteSnapshot)
{
    // A reader walks the heartbeat lines and keeps the last one that
    // parses; a SIGKILL'd writer's torn tail must leave it untouched.
    MetricsSnapshot a;
    a.ts = 1.0;
    a.seq = 1;
    a.source = "w";
    a.counters["done"].total = 10;
    MetricsSnapshot b = a;
    b.ts = 2.0;
    b.seq = 2;
    b.counters["done"].total = 20;
    MetricsSnapshot last;
    ASSERT_TRUE(parse_snapshot_line(snapshot_to_json(a), last));
    ASSERT_TRUE(parse_snapshot_line(snapshot_to_json(b), last));
    EXPECT_FALSE(parse_snapshot_line("{\"ts\":3.0,\"seq\":3,\"coun", last));
    EXPECT_EQ(last.seq, 2u);
    EXPECT_EQ(last.counter("done"), 20u);
}

TEST_F(MetricsTest, ExporterOptionsParse)
{
    EXPECT_FALSE(ExporterOptions{}.armed());
    setenv("PASTA_METRICS", "/tmp/m.jsonl", 1);
    ExporterOptions o = ExporterOptions::from_env();
    EXPECT_EQ(o.path, "/tmp/m.jsonl");
    EXPECT_DOUBLE_EQ(o.interval_s, 1.0);
    setenv("PASTA_METRICS", "/tmp/m.jsonl,250", 1);
    o = ExporterOptions::from_env();
    EXPECT_EQ(o.path, "/tmp/m.jsonl");
    EXPECT_DOUBLE_EQ(o.interval_s, 0.25);
    setenv("PASTA_METRICS", "/tmp/m.jsonl,nope", 1);
    EXPECT_ANY_THROW(ExporterOptions::from_env());
    setenv("PASTA_METRICS", "/tmp/m.jsonl,0", 1);
    EXPECT_ANY_THROW(ExporterOptions::from_env());
    unsetenv("PASTA_METRICS");
    EXPECT_FALSE(ExporterOptions::from_env().armed());
}

TEST_F(MetricsTest, ExporterWritesHeartbeatsAndFinalSnapshot)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "pasta_test_exp.jsonl")
            .string();
    std::remove(path.c_str());
    counter("exp.before").add(1);
    ExporterOptions opts;
    opts.path = path;
    opts.interval_s = 0.05;
    ASSERT_TRUE(start_exporter(opts, "unit"));
    EXPECT_TRUE(exporter_running());
    counter("exp.during").add(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop_exporter();
    EXPECT_FALSE(exporter_running());

    // >= immediate snapshot + >=1 periodic + final; all parseable; the
    // final one carries everything recorded before stop.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t lines = 0;
    MetricsSnapshot snap;
    std::uint64_t prev_seq = 0;
    while (std::getline(in, line)) {
        ++lines;
        ASSERT_TRUE(parse_snapshot_line(line, snap)) << line;
        EXPECT_EQ(snap.source, "unit");
        EXPECT_GT(snap.seq, prev_seq);  // strictly increasing
        prev_seq = snap.seq;
        EXPECT_GT(snap.ts, 0.0);
    }
    EXPECT_GE(lines, 3u);
    EXPECT_EQ(snap.counter("exp.before"), 1u);
    EXPECT_EQ(snap.counter("exp.during"), 2u);
    // The exporter refreshes the governor/obs gauges each tick.
    EXPECT_TRUE(snap.gauges.count("mem.reserved"));
    EXPECT_TRUE(snap.gauges.count("mem.peak"));
    std::remove(path.c_str());
    // Idempotent stop.
    stop_exporter();
}

TEST_F(MetricsTest, ExitWithRunningExporterWritesFinalSnapshot)
{
    // Drivers arm the exporter from PASTA_METRICS and simply return from
    // main: exit must join the thread (not abort on a joinable
    // std::thread) and flush a final snapshot with the run's totals.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        (std::filesystem::temp_directory_path() / "pasta_test_exit.jsonl")
            .string();
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            ExporterOptions opts;
            opts.path = path;
            opts.interval_s = 60.0;  // only the first and the final line
            start_exporter(opts, "exit");
            counter("exit.recorded").add(3);
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    std::ifstream in(path);
    std::string line, tail;
    while (std::getline(in, line))
        tail = line;
    MetricsSnapshot last;
    ASSERT_TRUE(parse_snapshot_line(tail, last)) << tail;
    EXPECT_EQ(last.source, "exit");
    EXPECT_EQ(last.counter("exit.recorded"), 3u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace pasta::obs
