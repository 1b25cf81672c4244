// Tests for the instrumentation layer (src/obs): mode arming, span
// recording/nesting/thread attribution, Chrome-trace export, the gated
// model counters, trial delta accounting, the text report, the
// mapped-dense-storage counter and label, the MTTKRP output-zeroing
// counter and label, and the GPU-sim counter feed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "core/dense.hpp"
#include "gpusim/gpu_kernels.hpp"
#include "gpusim/timing_model.hpp"
#include "kernels/mttkrp.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "roofline/machine.hpp"

namespace pasta::obs {
namespace {

/// Every test leaves the process disarmed; the registry and span
/// buffers are process-global.
class ObsTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        set_mode(TraceMode::kOff);
        reset_metrics();
        reset_spans();
    }
    void TearDown() override { set_mode(TraceMode::kOff); }
};

CooTensor
small_tensor(std::uint64_t seed)
{
    Rng rng(seed);
    return CooTensor::random({32, 32, 32}, 300, rng);
}

TEST_F(ObsTest, ModeNamesRoundTrip)
{
    EXPECT_STREQ(mode_name(TraceMode::kOff), "off");
    EXPECT_STREQ(mode_name(TraceMode::kCounters), "counters");
    EXPECT_STREQ(mode_name(TraceMode::kSpans), "spans");
    EXPECT_STREQ(mode_name(TraceMode::kFull), "full");
}

TEST_F(ObsTest, OffRecordsNothing)
{
    ASSERT_FALSE(spans_enabled());
    ASSERT_FALSE(counters_enabled());
    {
        PASTA_SPAN("off.span");
        add("off.flops", 100);
        add_worker("off.items", 0, 5);
        record_max("off.peak", 7);
        set_label("off.label", "value");
    }
    EXPECT_TRUE(collect_spans().empty());
    const MetricsSnapshot snap = snapshot_metrics();
    EXPECT_EQ(snap.counter("off.flops"), 0u);
    EXPECT_EQ(snap.gauge("off.peak"), 0.0);
    EXPECT_EQ(snap.label("off.label"), "");
    EXPECT_EQ(last_label("off.label"), "");
}

TEST_F(ObsTest, CountersAccumulateAndSnapshot)
{
    set_mode(TraceMode::kCounters);
    add("t.flops", 10);
    add("t.flops", 20);
    add_worker("t.items", 0, 4);
    add_worker("t.items", 1, 12);
    record_max("t.peak", 5);
    record_max("t.peak", 50);
    record_max("t.peak", 25);
    set_label("t.variant", "alpha");
    set_label("t.variant", "beta");
    set_label("t.variant", "beta");

    const MetricsSnapshot snap = snapshot_metrics();
    EXPECT_EQ(snap.counter("t.flops"), 30u);
    EXPECT_EQ(snap.gauge("t.peak"), 50.0);
    EXPECT_EQ(snap.label("t.variant"), "beta");
    EXPECT_EQ(last_label("t.variant"), "beta");
    const CounterSample* items = snap.find("t.items");
    ASSERT_NE(items, nullptr);
    EXPECT_EQ(items->total, 16u);
    ASSERT_EQ(items->worker.size(), 2u);
    EXPECT_EQ(items->worker[0], 4u);
    EXPECT_EQ(items->worker[1], 12u);
    // max/mean over {4, 12}: 12 / 8 = 1.5.
    EXPECT_DOUBLE_EQ(worker_imbalance(*items), 1.5);
    // The label history, as the model-counter consumers read it.
    const MetricsSnapshot labels = snapshot_counters();
    ASSERT_EQ(labels.labels.size(), 1u);
    EXPECT_EQ(labels.labels[0].key, "t.variant");
    const std::vector<std::pair<std::string, std::uint64_t>> counts = {
        {"alpha", 1}, {"beta", 2}};
    EXPECT_EQ(labels.labels[0].counts, counts);
    const std::string report = render_counter_report(labels);
    EXPECT_NE(report.find("t.items  total=16  workers=2  imbalance=1.5"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("t.peak  value=50"), std::string::npos) << report;
    EXPECT_NE(report.find("t.variant = beta  (alpha x1, beta x2)"),
              std::string::npos)
        << report;
}

TEST_F(ObsTest, DeltaSuffixSumIgnoresMaxCounters)
{
    set_mode(TraceMode::kCounters);
    add("a.flops", 100);
    const MetricsSnapshot before = snapshot_metrics();
    add("a.flops", 50);
    add("b.flops", 25);
    add("a.bytes", 600);
    record_max("c.peak_bytes", 4096);  // a gauge: no counter total
    const MetricsSnapshot after = snapshot_metrics();
    EXPECT_DOUBLE_EQ(delta_suffix_sum(before, after, ".flops"), 75.0);
    EXPECT_DOUBLE_EQ(delta_suffix_sum(before, after, ".bytes"), 600.0);
}

TEST_F(ObsTest, SpanNestingAndThreadAttribution)
{
    set_mode(TraceMode::kSpans);
    {
        SpanScope outer("outer.phase");
        SpanScope inner("inner.phase");
    }
    std::thread worker([] { PASTA_SPAN("worker.phase"); });
    worker.join();

    const std::vector<SpanRecord> spans = collect_spans();
    ASSERT_EQ(spans.size(), 3u);
    const SpanRecord* outer = nullptr;
    const SpanRecord* inner = nullptr;
    const SpanRecord* off_thread = nullptr;
    for (const auto& s : spans) {
        if (s.name == "outer.phase")
            outer = &s;
        else if (s.name == "inner.phase")
            inner = &s;
        else if (s.name == "worker.phase")
            off_thread = &s;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(off_thread, nullptr);
    EXPECT_EQ(inner->depth, outer->depth + 1);
    EXPECT_EQ(outer->tid, inner->tid);
    EXPECT_NE(off_thread->tid, outer->tid);
    // The inner span is contained in the outer one.
    EXPECT_GE(inner->ts_us, outer->ts_us);
    EXPECT_LE(inner->ts_us + inner->dur_us,
              outer->ts_us + outer->dur_us + 1e-3);
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed)
{
    set_mode(TraceMode::kSpans);
    {
        PASTA_SPAN("trace.a");
        PASTA_SPAN("trace.\"quoted\"\\name");
    }
    const std::string path =
        (std::filesystem::temp_directory_path() / "pasta_test_trace.json")
            .string();
    ASSERT_TRUE(write_chrome_trace(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    std::remove(path.c_str());
    while (!text.empty() && text.back() == '\n')
        text.pop_back();

    EXPECT_EQ(text.front(), '{');
    EXPECT_EQ(text.back(), '}');
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("trace.a"), std::string::npos);
    // The quote and backslash must be escaped in the output.
    EXPECT_NE(text.find("trace.\\\"quoted\\\"\\\\name"),
              std::string::npos);
    // Braces and brackets balance (escaped chars live inside strings,
    // which this crude check tolerates because escapes are paired).
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
}

TEST_F(ObsTest, ControlCharsInSpanNamesRoundTripThroughBothExports)
{
    set_mode(TraceMode::kSpans);
    const std::string name = "a\tb\"c\\";
    {
        PASTA_SPAN(name);
    }
    const auto slurp = [](const std::string& path) {
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };
    const std::string dir = std::filesystem::temp_directory_path().string();
    const std::string trace_path = dir + "/pasta_test_ctrl_trace.json";
    const std::string jsonl_path = dir + "/pasta_test_ctrl_spans.jsonl";
    ASSERT_TRUE(write_chrome_trace(trace_path));
    ASSERT_TRUE(write_spans_jsonl(jsonl_path));

    json::Value doc;
    ASSERT_TRUE(json::parse(slurp(trace_path), doc));
    const json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items().size(), 1u);
    std::string got;
    ASSERT_TRUE(events->items()[0].get("name", got));
    EXPECT_EQ(got, name);

    std::istringstream lines(slurp(jsonl_path));
    std::string line;
    std::size_t parsed = 0;
    got.clear();
    while (std::getline(lines, line)) {
        json::Value v;
        ASSERT_TRUE(json::parse(line, v)) << line;
        ++parsed;
        v.get_optional("name", got);
    }
    EXPECT_EQ(parsed, 2u);  // meta line + the span
    EXPECT_EQ(got, name);
    std::remove(trace_path.c_str());
    std::remove(jsonl_path.c_str());
}

TEST_F(ObsTest, SpansJsonlOneObjectPerLine)
{
    set_mode(TraceMode::kSpans);
    {
        PASTA_SPAN("jsonl.a");
    }
    {
        PASTA_SPAN("jsonl.b");
    }
    const std::string path =
        (std::filesystem::temp_directory_path() / "pasta_test_spans.jsonl")
            .string();
    ASSERT_TRUE(write_spans_jsonl(path));
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        if (lines == 1) {
            // First line is the writer-identity metadata object.
            EXPECT_NE(line.find("\"pastaMeta\""), std::string::npos);
            EXPECT_NE(line.find("\"monoToEpochUs\""), std::string::npos);
            continue;
        }
        EXPECT_NE(line.find("\"name\""), std::string::npos);
        EXPECT_NE(line.find("\"dur_us\""), std::string::npos);
    }
    std::remove(path.c_str());
    EXPECT_EQ(lines, 3u);  // meta line + two spans
}

TEST_F(ObsTest, DroppedSpanCountSurfacesInExportedTraceMeta)
{
    set_mode(TraceMode::kSpans);
    // Overflow one thread's ring (16384 slots) so drops are guaranteed.
    for (int i = 0; i < 20000; ++i) {
        PASTA_SPAN("overflow.span");
    }
    const std::uint64_t dropped = spans_dropped();
    ASSERT_GT(dropped, 0u);

    const std::string path = (std::filesystem::temp_directory_path() /
                              "pasta_test_dropped_trace.json")
                                 .string();
    ASSERT_TRUE(write_chrome_trace(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::remove(path.c_str());

    // The exact drop count must appear in the pastaMeta block.
    EXPECT_NE(text.find("\"pastaMeta\""), std::string::npos);
    EXPECT_NE(text.find("\"spansDropped\":" + std::to_string(dropped)),
              std::string::npos);
}

TEST_F(ObsTest, WorkerSlotsBeyondCapSpillToOverflowCell)
{
    set_mode(TraceMode::kCounters);
    // 96 concurrent workers against the 64-slot cap: everything beyond
    // the cap must land in the shared overflow cell, not vanish.
    constexpr int kThreads = 96;
    constexpr std::uint64_t kPerWorker = 5;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w)
        threads.emplace_back(
            [w] { add_worker("ovf.items", w, kPerWorker); });
    for (auto& t : threads)
        t.join();

    const MetricsSnapshot snap = snapshot_metrics();
    const CounterSample* items = snap.find("ovf.items");
    ASSERT_NE(items, nullptr);
    EXPECT_EQ(items->total, kThreads * kPerWorker);
    ASSERT_EQ(items->worker.size(),
              static_cast<std::size_t>(kMaxWorkers));
    std::uint64_t attributed = 0;
    for (const std::uint64_t v : items->worker)
        attributed += v;
    EXPECT_EQ(attributed, kMaxWorkers * kPerWorker);
    EXPECT_EQ(items->overflow,
              (kThreads - kMaxWorkers) * kPerWorker);

    reset_metrics();
    const MetricsSnapshot cleared = snapshot_metrics();
    const CounterSample* after = cleared.find("ovf.items");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->overflow, 0u);
    EXPECT_EQ(after->total, 0u);
}

TEST_F(ObsTest, KernelCountersMatchCostModel)
{
    set_mode(TraceMode::kCounters);
    const CooTensor x = small_tensor(7);
    Rng rng(9);
    const Size rank = 4;
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), rank, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);
    DenseMatrix out(x.dim(0), rank);
    mttkrp_coo(x, factors, 0, out);

    const MetricsSnapshot snap = snapshot_metrics();
    // Table I: MTTKRP-COO does N*M*R flops.
    EXPECT_EQ(snap.counter("mttkrp.flops"),
              static_cast<std::uint64_t>(x.order() * x.nnz() * rank));
    EXPECT_GT(snap.counter("mttkrp.bytes"), 0u);
    EXPECT_NE(snap.label("mttkrp.variant"), "");
}

TEST_F(ObsTest, MappedDenseStorageReportsBytesAndPageKind)
{
    // Off: a mapped allocation records nothing.
    { DenseVector off(kDenseMapBytes / kValueBytes); }
    EXPECT_EQ(snapshot_metrics().counter("dense.mapped_bytes"), 0u);

    set_mode(TraceMode::kCounters);
    { DenseVector below(kDenseMapBytes / kValueBytes - 1); }
    EXPECT_EQ(snapshot_metrics().counter("dense.mapped_bytes"), 0u);
    EXPECT_EQ(last_label("dense.pages"), "");

    { DenseVector mapped(kDenseMapBytes / kValueBytes + 1); }
    const MetricsSnapshot snap = snapshot_metrics();
    if (!kDenseMapEnabled) {
        EXPECT_EQ(snap.counter("dense.mapped_bytes"), 0u);
        EXPECT_EQ(snap.label("dense.pages"), "");
        return;
    }
    // The length is rounded up to the base page.
    const std::uint64_t page = sysconf(_SC_PAGESIZE);
    EXPECT_EQ(snap.counter("dense.mapped_bytes"),
              (kDenseMapBytes + kValueBytes + page - 1) / page * page);
    // "huge" exactly when the host offers transparent huge pages.
    std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string mode;
    std::getline(thp, mode);
    const bool offered =
        !mode.empty() && mode.find("[never]") == std::string::npos;
    EXPECT_EQ(snap.label("dense.pages"), offered ? "huge" : "base");
}

TEST_F(ObsTest, MttkrpZeroingReportsBytesAndPath)
{
    // 100 non-zeros over 256 output rows leave most rows untouched.
    Rng rng(16);
    const CooTensor x = CooTensor::random({256, 32, 32}, 100, rng);
    const Size rank = 4;
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), rank, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);
    std::vector<bool> touched(x.dim(0), false);
    for (Size p = 0; p < x.nnz(); ++p)
        touched[x.index(0, p)] = true;
    const std::uint64_t touched_bytes =
        std::count(touched.begin(), touched.end(), true) * rank *
        kValueBytes;
    const std::uint64_t all_bytes = x.dim(0) * rank * kValueBytes;
    ASSERT_LT(touched_bytes, all_bytes);

    // Off: nothing recorded.
    DenseMatrix out(x.dim(0), rank);
    mttkrp_coo_atomic(x, factors, 0, out);
    EXPECT_EQ(snapshot_metrics().counter("dense.zeroed_bytes"), 0u);
    EXPECT_EQ(last_label("dense.zero"), "");

    set_mode(TraceMode::kCounters);
    const auto zeroed = [&](const char* path) {
        const std::uint64_t before =
            snapshot_metrics().counter("dense.zeroed_bytes");
        mttkrp_coo_atomic(x, factors, 0, out);
        EXPECT_EQ(last_label("dense.zero"), path);
        return snapshot_metrics().counter("dense.zeroed_bytes") - before;
    };
    out = DenseMatrix(x.dim(0), rank);
    EXPECT_EQ(zeroed("fresh"), 0u);
    EXPECT_EQ(zeroed("rows"), touched_bytes);
    out.fill(1.0f);
    EXPECT_EQ(zeroed("full"), all_bytes);
    EXPECT_EQ(zeroed("rows"), touched_bytes);
}

TEST_F(ObsTest, GpusimCountersRecordLaunchesAndTraffic)
{
    set_mode(TraceMode::kCounters);
    const CooTensor x = small_tensor(11);
    const CooTensor y = small_tensor(13);
    CooTensor z = x;
    const gpusim::LaunchProfile profile =
        gpusim::tew_gpu_coo(x, y, EwOp::kAdd, z);
    (void)gpusim::estimate_seconds(gpusim::tesla_p100(), profile);

    const MetricsSnapshot snap = snapshot_metrics();
    EXPECT_GE(snap.counter("gpusim.launches"), 1u);
    EXPECT_GT(snap.counter("gpusim.sim_threads"), 0u);
    EXPECT_GT(snap.counter("gpusim.flops"), 0u);
    EXPECT_GT(snap.counter("gpusim.bytes"), 0u);
    EXPECT_EQ(snap.counter("gpusim.model_launches"), 1u);
    EXPECT_GT(snap.gauge("gpusim.mem_peak_bytes"), 0.0);
    EXPECT_LE(snap.gauge("gpusim.occupancy_pct"), 100.0);
}

TEST_F(ObsTest, RooflinePctAgainstMachineBalance)
{
    const MachineSpec spec = bluesky();
    ASSERT_GT(machine_balance(spec), 0.0);
    // Below machine balance the roof is ai x bandwidth: 0.1 x 205 GB/s
    // = 20.5 GFLOPS; 10.25 measured is 50%.
    EXPECT_NEAR(roofline_pct(10.25, 0.1, spec), 50.0, 1e-9);
    // Degenerate inputs are 0, never NaN/inf.
    EXPECT_EQ(roofline_pct(0.0, 0.1, spec), 0.0);
    EXPECT_EQ(roofline_pct(10.0, 0.0, spec), 0.0);
}

}  // namespace
}  // namespace pasta::obs
