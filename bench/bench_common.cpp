#include "bench_common.hpp"

#include <cctype>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/convert.hpp"
#include "gpusim/gpu_kernels.hpp"
#include "harness/fault.hpp"
#include "harness/journal.hpp"
#include "io/registry.hpp"
#include "kernels/mttkrp.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "kernels/tew.hpp"
#include "kernels/ts.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttv.hpp"
#include "simd/simd.hpp"
#include "roofline/roofline.hpp"
#include "validate/diff.hpp"
#include "validate/validate.hpp"

namespace pasta::bench {

BenchOptions
options_from_env()
{
    // A misspelled or malformed knob fails the run before any work.
    config::check_environment();
    set_log_threshold_from_env();
    // Arm fault injection before anything the guards protect can run.
    harness::FaultInjector::instance().configure_from_env();
    // Arm the memory governor ($PASTA_MEM_BYTES) before the first large
    // allocation so bounded-memory campaigns degrade instead of dying.
    membudget::MemGovernor::instance().configure_from_env();
    // Parse PASTA_VALIDATE, PASTA_TRACE, and the SIMD dispatch knobs up
    // front so a malformed value fails the run immediately instead of
    // being classified (and retried) as a per-trial failure.
    (void)validate::current_mode();
    (void)obs::current_mode();
    (void)simd::active_isa();
    (void)simd::prefetch_distance();
    // Arm the live metrics heartbeat ($PASTA_METRICS=<path>[,interval_ms])
    // so long bench runs are tailable mid-flight; a no-op when unset.
    (void)obs::arm_from_env("bench");

    BenchOptions options;
    options.scale = config::real("PASTA_SCALE");
    options.runs = static_cast<std::size_t>(config::integer("PASTA_RUNS"));
    options.cache_dir = config::text("PASTA_CACHE");
    options.trial_policy = harness::TrialPolicy::from_env();
    if (!config::is_set("PASTA_TRIAL_TIMEOUT") &&
        config::text("PASTA_FAULT").find("hang") != std::string::npos) {
        // An armed hang with no explicit watchdog would stall the suite
        // forever; arm a generous default instead.
        options.trial_policy.timeout_seconds = 60.0;
        PASTA_LOG_WARN << "PASTA_FAULT has a hang rule and "
                          "PASTA_TRIAL_TIMEOUT is unset; defaulting the "
                          "watchdog to 60 s";
    }
    options.journal_enabled = config::flag("PASTA_JOURNAL");
    return options;
}

std::vector<NamedTensor>
load_suite(const BenchOptions& options)
{
    TensorRegistry registry(options.cache_dir, options.scale);
    std::vector<NamedTensor> suite;
    const int max_attempts =
        options.trial_policy.max_attempts < 1
            ? 1
            : options.trial_policy.max_attempts;
    for (const auto* table :
         {&real_dataset_table(), &synthetic_dataset_table()}) {
        for (const auto& spec : *table) {
            bool loaded = false;
            std::string last_error;
            for (int attempt = 1; attempt <= max_attempts && !loaded;
                 ++attempt) {
                try {
                    suite.push_back(
                        {spec.id, spec.name, registry.load(spec.id)});
                    loaded = true;
                } catch (const PastaError& e) {
                    last_error = e.what();
                } catch (const std::bad_alloc&) {
                    last_error = "out of memory (std::bad_alloc)";
                }
            }
            if (!loaded) {
                PASTA_LOG_ERROR << "cannot load dataset " << spec.id
                                << " after " << max_attempts
                                << " attempts (" << last_error
                                << "); skipping it";
            }
        }
    }
    return suite;
}

namespace {

/// Builds a same-pattern sibling with refreshed values (TEW operand).
CooTensor
sibling(const CooTensor& x, std::uint64_t seed)
{
    Rng rng(seed);
    CooTensor y = x;
    for (auto& v : y.values())
        v = rng.next_float() + 0.5f;
    return y;
}

/// Per-tensor measurement context shared by the CPU and GPU paths.
/// Heap-allocated (shared_ptr) because trial bodies may outlive a timed-
/// out attempt: an abandoned watchdog worker still holds its captures.
struct TensorContext {
    const NamedTensor* entry = nullptr;
    CooTensor y;                  ///< TEW sibling
    HiCooTensor hx;               ///< HiCOO form of x
    HiCooTensor hy;               ///< HiCOO form of y
    std::vector<DenseMatrix> mats;  ///< MTTKRP factors

    FactorList factors() const
    {
        FactorList list;
        for (const auto& m : mats)
            list.push_back(&m);
        return list;
    }
};

void
fill_context(TensorContext& ctx, const NamedTensor& entry,
             const BenchOptions& options)
{
    harness::fault_point("alloc");
    ctx.entry = &entry;
    ctx.y = sibling(entry.tensor, 17);
    ctx.hx = coo_to_hicoo(entry.tensor, options.block_bits);
    ctx.hy = coo_to_hicoo(ctx.y, options.block_bits);
    Rng rng(23);
    ctx.mats.clear();
    for (Size m = 0; m < entry.tensor.order(); ++m)
        ctx.mats.push_back(
            DenseMatrix::random(entry.tensor.dim(m), options.rank, rng));
}

/// Mode-independent stats (TEW/TS/MTTKRP).
TensorStats
base_stats(const CooTensor& x, const HiCooTensor& hx)
{
    TensorStats stats;
    stats.order = x.order();
    stats.nnz = x.nnz();
    stats.num_blocks = hx.num_blocks();
    stats.block_size = hx.block_size();
    return stats;
}

std::string
sanitize_tag(const std::string& name)
{
    std::string tag;
    for (char c : name)
        tag += (std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    return tag;
}

/// Total occurrence count of one label key in a snapshot.
std::uint64_t
label_count(const obs::MetricsSnapshot& snap, const char* key)
{
    for (const auto& label : snap.labels) {
        if (label.key != key)
            continue;
        std::uint64_t total = 0;
        for (const auto& kv : label.counts)
            total += kv.second;
        return total;
    }
    return 0;
}

/// The variant label this trial exercised: the highest-priority label
/// key whose occurrence count grew during the trial.  Comparing counts
/// (not last values) keeps a stale label from a previous trial out.
/// When the trial also stamped a SIMD dispatch decision, the ISA is
/// appended as a suffix ("atomic_avx2"); trials whose only decision was
/// the SIMD path (TTV, TTM, TEW) report the bare ISA.
std::string
trial_variant(const obs::MetricsSnapshot& before,
              const obs::MetricsSnapshot& after)
{
    std::string isa;
    if (label_count(after, "simd.isa") > label_count(before, "simd.isa"))
        isa = after.label("simd.isa");
    for (const char* key : {"stream.variant", "mttkrp.variant",
                            "merge.path", "sort.path"}) {
        if (label_count(after, key) > label_count(before, key)) {
            std::string variant = after.label(key);
            if (!isa.empty())
                variant += "_" + isa;
            return variant;
        }
    }
    return isa;
}

/// Failure class recorded in the journal and failure CSVs: "" (ok),
/// "timeout", "validation" (structural/differential check failed), "oom"
/// (memory budget exhausted even after the degrade retry), or "error"
/// (any other trial error).
std::string
failure_class(const harness::TrialResult& trial)
{
    if (trial.ok)
        return "";
    if (trial.timed_out)
        return "timeout";
    if (trial.validation)
        return "validation";
    if (trial.oom)
        return "oom";
    return "error";
}

/// Drives one suite: journal lookup, guarded execution, and partial-
/// result bookkeeping for every (tensor, kernel, format) trial.
class SuiteRunner {
  public:
    SuiteRunner(const BenchOptions& options, const std::string& platform)
        : options_(options), policy_(options.trial_policy)
    {
        if (options.journal_enabled && !options.journal_stem.empty() &&
            !options.cache_dir.empty())
            journal_ = harness::RunJournal(
                options.cache_dir + "/" + options.journal_stem + "." +
                sanitize_tag(platform) + ".journal.jsonl");
    }

    SuiteResult take_result() { return std::move(result_); }

    /// Journal, then guarded execution.  `body` returns mean seconds and
    /// fills `*cost` before returning; both live behind shared_ptr so an
    /// abandoned (timed-out) attempt cannot touch freed memory.
    void run_trial(const NamedTensor& entry, Kernel kernel, Format format,
                   const std::shared_ptr<KernelCost>& cost,
                   std::function<double()> body)
    {
        const char* kname = kernel_name(kernel);
        const char* fname = format_name(format);
        if (journal_.enabled()) {
            const harness::JournalEntry* done =
                journal_.find(entry.id, kname, fname);
            if (done && done->ok) {
                MeasuredRun run;
                run.tensor_id = entry.id;
                run.kernel = kernel;
                run.format = format;
                run.seconds = done->seconds;
                run.cost.flops = done->flops;
                run.cost.bytes = done->bytes;
                run.variant = done->variant;
                run.obs_flops = done->obs_flops;
                run.obs_bytes = done->obs_bytes;
                run.mem_peak = done->mem_peak;
                result_.runs.push_back(run);
                ++result_.resumed;
                return;
            }
        }

        const std::string label =
            std::string(kname) + "/" + fname + " on " + entry.id;
        auto guarded = [body = std::move(body)] {
            harness::fault_point("kernel.run");
            return body();
        };
        // Counter deltas around the guarded trial give the trial's
        // model-derived flops/bytes and the variant the kernel picked.
        const bool counters = obs::counters_enabled();
        obs::MetricsSnapshot before;
        if (counters)
            before = obs::snapshot_metrics();
        // Per-trial high-water mark: reset so mem_peak reflects this
        // trial alone, not the campaign maximum so far.
        membudget::MemGovernor::instance().reset_peak();
        const harness::TrialResult trial =
            harness::run_guarded_trial(label, guarded, policy_);
        const double mem_peak = static_cast<double>(
            membudget::MemGovernor::instance().peak());

        harness::JournalEntry record;
        record.tensor_id = entry.id;
        record.kernel = kname;
        record.format = fname;
        record.ok = trial.ok;
        record.seconds = trial.seconds;
        record.attempts = trial.attempts;
        record.error = trial.error;
        record.failure_class = failure_class(trial);
        record.mem_peak = mem_peak;
        if (trial.ok) {
            MeasuredRun run;
            run.tensor_id = entry.id;
            run.kernel = kernel;
            run.format = format;
            run.seconds = trial.seconds;
            run.cost = *cost;
            run.mem_peak = mem_peak;
            if (counters) {
                const obs::MetricsSnapshot after =
                    obs::snapshot_metrics();
                run.obs_flops =
                    obs::delta_suffix_sum(before, after, ".flops");
                run.obs_bytes =
                    obs::delta_suffix_sum(before, after, ".bytes");
                run.variant = trial_variant(before, after);
            }
            record.flops = cost->flops;
            record.bytes = cost->bytes;
            record.variant = run.variant;
            record.obs_flops = run.obs_flops;
            record.obs_bytes = run.obs_bytes;
            result_.runs.push_back(run);
        } else {
            result_.failures.push_back({entry.id, kname, fname, trial.error,
                                        trial.timed_out, trial.attempts,
                                        failure_class(trial)});
        }
        journal_.append(record);
    }

    /// True when every (kernel, format) trial of `entry` is already in
    /// the journal, so context construction can be skipped entirely.
    bool fully_journaled(const NamedTensor& entry) const
    {
        if (!journal_.enabled())
            return false;
        for (Kernel k : {Kernel::kTew, Kernel::kTs, Kernel::kTtv,
                         Kernel::kTtm, Kernel::kMttkrp})
            for (Format f : {Format::kCoo, Format::kHicoo})
                if (!journal_.has_ok(entry.id, kernel_name(k),
                                     format_name(f)))
                    return false;
        return true;
    }

    /// Replays all ten journaled trials of a fully-journaled tensor.
    void resume_tensor(const NamedTensor& entry)
    {
        auto unused = std::make_shared<KernelCost>();
        for (Kernel k : {Kernel::kTew, Kernel::kTs, Kernel::kTtv,
                         Kernel::kTtm, Kernel::kMttkrp})
            for (Format f : {Format::kCoo, Format::kHicoo})
                run_trial(entry, k, f, unused, [] { return 0.0; });
    }

    /// Builds the per-tensor context under the same guard as trials.
    /// Returns nullptr (and records a whole-tensor failure) on failure.
    std::shared_ptr<TensorContext>
    make_context(const NamedTensor& entry)
    {
        auto ctx = std::make_shared<TensorContext>();
        const BenchOptions& options = options_;
        const NamedTensor* entry_ptr = &entry;
        const harness::TrialResult trial = harness::run_guarded_trial(
            "context on " + entry.id,
            [ctx, entry_ptr, options] {
                fill_context(*ctx, *entry_ptr, options);
                return 0.0;
            },
            policy_);
        if (trial.ok)
            return ctx;
        result_.failures.push_back({entry.id, "*", "*",
                                    "context setup failed: " + trial.error,
                                    trial.timed_out, trial.attempts,
                                    failure_class(trial)});
        return nullptr;
    }

    const harness::TrialPolicy& policy() const { return policy_; }

  private:
    const BenchOptions& options_;
    harness::TrialPolicy policy_;
    harness::RunJournal journal_;
    SuiteResult result_;
};

}  // namespace

SuiteResult
run_cpu_suite(const std::vector<NamedTensor>& suite,
              const BenchOptions& options)
{
    SuiteRunner runner(options, "cpu");
    for (const auto& entry : suite) {
        if (runner.fully_journaled(entry)) {
            PASTA_LOG_INFO << "cpu suite: " << entry.id
                           << " fully journaled; resuming";
            runner.resume_tensor(entry);
            continue;
        }
        PASTA_LOG_INFO << "cpu suite: " << entry.id << " ("
                       << entry.tensor.describe() << ")";
        std::shared_ptr<TensorContext> ctx = runner.make_context(entry);
        if (!ctx)
            continue;
        const TensorStats stats0 = base_stats(entry.tensor, ctx->hx);
        const std::size_t runs = options.runs;
        const unsigned block_bits = options.block_bits;
        const Size rank = options.rank;

        // ---- TEW (addition as representative, §V-A2) ----
        {
            auto cost = std::make_shared<KernelCost>(
                kernel_cost(Kernel::kTew, Format::kCoo, stats0));
            runner.run_trial(entry, Kernel::kTew, Format::kCoo, cost,
                             [ctx, runs] {
                                 const CooTensor& x = ctx->entry->tensor;
                                 CooTensor z = x;
                                 const double secs =
                                     timed_runs(
                                         [&] {
                                             tew_values(
                                                 EwOp::kAdd,
                                                 x.values().data(),
                                                 ctx->y.values().data(),
                                                 z.values().data(),
                                                 x.nnz());
                                         },
                                         runs)
                                         .mean_seconds;
                                 if (validate::kernel_checks_enabled())
                                     validate::diff_tew(
                                         EwOp::kAdd, x.values().data(),
                                         ctx->y.values().data(),
                                         z.values().data(), x.nnz())
                                         .require();
                                 return secs;
                             });
        }
        {
            auto cost = std::make_shared<KernelCost>(
                kernel_cost(Kernel::kTew, Format::kHicoo, stats0));
            runner.run_trial(entry, Kernel::kTew, Format::kHicoo, cost,
                             [ctx, runs] {
                                 HiCooTensor hz = ctx->hx;
                                 const double secs =
                                     timed_runs(
                                         [&] {
                                             tew_values(
                                                 EwOp::kAdd,
                                                 ctx->hx.values().data(),
                                                 ctx->hy.values().data(),
                                                 hz.values().data(),
                                                 ctx->hx.nnz());
                                         },
                                         runs)
                                         .mean_seconds;
                                 if (validate::kernel_checks_enabled())
                                     validate::diff_tew(
                                         EwOp::kAdd,
                                         ctx->hx.values().data(),
                                         ctx->hy.values().data(),
                                         hz.values().data(),
                                         ctx->hx.nnz())
                                         .require();
                                 return secs;
                             });
        }

        // ---- TS (multiplication as representative) ----
        {
            auto cost = std::make_shared<KernelCost>(
                kernel_cost(Kernel::kTs, Format::kCoo, stats0));
            runner.run_trial(entry, Kernel::kTs, Format::kCoo, cost,
                             [ctx, runs] {
                                 const CooTensor& x = ctx->entry->tensor;
                                 CooTensor out = x;
                                 const double secs =
                                     timed_runs(
                                         [&] {
                                             ts_values(
                                                 TsOp::kMul,
                                                 x.values().data(),
                                                 out.values().data(),
                                                 x.nnz(), 1.0009f);
                                         },
                                         runs)
                                         .mean_seconds;
                                 if (validate::kernel_checks_enabled())
                                     validate::diff_ts(
                                         TsOp::kMul, x.values().data(),
                                         1.0009f, out.values().data(),
                                         x.nnz())
                                         .require();
                                 return secs;
                             });
        }
        {
            auto cost = std::make_shared<KernelCost>(
                kernel_cost(Kernel::kTs, Format::kHicoo, stats0));
            runner.run_trial(entry, Kernel::kTs, Format::kHicoo, cost,
                             [ctx, runs] {
                                 HiCooTensor hout = ctx->hx;
                                 const double secs =
                                     timed_runs(
                                         [&] {
                                             ts_values(
                                                 TsOp::kMul,
                                                 ctx->hx.values().data(),
                                                 hout.values().data(),
                                                 ctx->hx.nnz(), 1.0009f);
                                         },
                                         runs)
                                         .mean_seconds;
                                 if (validate::kernel_checks_enabled())
                                     validate::diff_ts(
                                         TsOp::kMul,
                                         ctx->hx.values().data(), 1.0009f,
                                         hout.values().data(),
                                         ctx->hx.nnz())
                                         .require();
                                 return secs;
                             });
        }

        // ---- TTV / TTM / MTTKRP: averaged over all modes, one guarded
        // trial per (kernel, format) so a hang in one leaves the rest.
        {
            auto cost = std::make_shared<KernelCost>();
            runner.run_trial(
                entry, Kernel::kTtv, Format::kCoo, cost,
                [ctx, cost, runs, stats0] {
                    const CooTensor& x = ctx->entry->tensor;
                    const Size order = x.order();
                    double total = 0;
                    KernelCost acc;
                    for (Size mode = 0; mode < order; ++mode) {
                        Rng rng(31 + mode);
                        DenseVector v =
                            DenseVector::random(x.dim(mode), rng);
                        CooTtvPlan plan = ttv_plan_coo(x, mode);
                        TensorStats stats = stats0;
                        stats.num_fibers = plan.fibers.num_fibers();
                        CooTensor out = plan.out_pattern;
                        total += timed_runs(
                                     [&] { ttv_exec_coo(plan, v, out); },
                                     runs)
                                     .mean_seconds;
                        if (validate::kernel_checks_enabled())
                            validate::diff_ttv(x, v, mode, out).require();
                        const KernelCost c = kernel_cost(
                            Kernel::kTtv, Format::kCoo, stats);
                        acc.flops += c.flops / order;
                        acc.bytes += c.bytes / order;
                    }
                    *cost = acc;
                    return total / static_cast<double>(order);
                });
        }
        {
            auto cost = std::make_shared<KernelCost>();
            runner.run_trial(
                entry, Kernel::kTtv, Format::kHicoo, cost,
                [ctx, cost, runs, stats0, block_bits] {
                    const CooTensor& x = ctx->entry->tensor;
                    const Size order = x.order();
                    double total = 0;
                    KernelCost acc;
                    for (Size mode = 0; mode < order; ++mode) {
                        Rng rng(31 + mode);
                        DenseVector v =
                            DenseVector::random(x.dim(mode), rng);
                        // Fiber stats come from the COO plan, as before.
                        CooTtvPlan coo_plan = ttv_plan_coo(x, mode);
                        TensorStats stats = stats0;
                        stats.num_fibers = coo_plan.fibers.num_fibers();
                        HicooTtvPlan plan =
                            ttv_plan_hicoo(x, mode, block_bits);
                        HiCooTensor out = plan.out_pattern;
                        total += timed_runs(
                                     [&] { ttv_exec_hicoo(plan, v, out); },
                                     runs)
                                     .mean_seconds;
                        if (validate::kernel_checks_enabled())
                            validate::diff_ttv(x, v, mode,
                                               hicoo_to_coo(out))
                                .require();
                        const KernelCost c = kernel_cost(
                            Kernel::kTtv, Format::kHicoo, stats);
                        acc.flops += c.flops / order;
                        acc.bytes += c.bytes / order;
                    }
                    *cost = acc;
                    return total / static_cast<double>(order);
                });
        }
        {
            auto cost = std::make_shared<KernelCost>();
            runner.run_trial(
                entry, Kernel::kTtm, Format::kCoo, cost,
                [ctx, cost, runs, stats0, rank] {
                    const CooTensor& x = ctx->entry->tensor;
                    const Size order = x.order();
                    double total = 0;
                    KernelCost acc;
                    for (Size mode = 0; mode < order; ++mode) {
                        CooTtvPlan fib = ttv_plan_coo(x, mode);
                        TensorStats stats = stats0;
                        stats.num_fibers = fib.fibers.num_fibers();
                        CooTtmPlan plan = ttm_plan_coo(x, mode, rank);
                        ScooTensor out = plan.out_pattern;
                        const DenseMatrix& u = ctx->mats[mode];
                        total +=
                            timed_runs(
                                [&] { ttm_exec_coo(plan, u, out); }, runs)
                                .mean_seconds;
                        if (validate::kernel_checks_enabled())
                            validate::diff_ttm(x, u, mode, out).require();
                        const KernelCost c = kernel_cost(
                            Kernel::kTtm, Format::kCoo, stats, rank);
                        acc.flops += c.flops / order;
                        acc.bytes += c.bytes / order;
                    }
                    *cost = acc;
                    return total / static_cast<double>(order);
                });
        }
        {
            auto cost = std::make_shared<KernelCost>();
            runner.run_trial(
                entry, Kernel::kTtm, Format::kHicoo, cost,
                [ctx, cost, runs, stats0, rank, block_bits] {
                    const CooTensor& x = ctx->entry->tensor;
                    const Size order = x.order();
                    double total = 0;
                    KernelCost acc;
                    for (Size mode = 0; mode < order; ++mode) {
                        CooTtvPlan fib = ttv_plan_coo(x, mode);
                        TensorStats stats = stats0;
                        stats.num_fibers = fib.fibers.num_fibers();
                        HicooTtmPlan plan =
                            ttm_plan_hicoo(x, mode, rank, block_bits);
                        SHiCooTensor out = plan.out_pattern;
                        const DenseMatrix& u = ctx->mats[mode];
                        total += timed_runs(
                                     [&] { ttm_exec_hicoo(plan, u, out); },
                                     runs)
                                     .mean_seconds;
                        if (validate::kernel_checks_enabled())
                            validate::diff_ttm(x, u, mode, out.to_scoo())
                                .require();
                        const KernelCost c = kernel_cost(
                            Kernel::kTtm, Format::kHicoo, stats, rank);
                        acc.flops += c.flops / order;
                        acc.bytes += c.bytes / order;
                    }
                    *cost = acc;
                    return total / static_cast<double>(order);
                });
        }
        {
            auto cost = std::make_shared<KernelCost>(kernel_cost(
                Kernel::kMttkrp, Format::kCoo, stats0, options.rank));
            runner.run_trial(entry, Kernel::kMttkrp, Format::kCoo, cost,
                             [ctx, runs, rank] {
                                 const CooTensor& x = ctx->entry->tensor;
                                 const Size order = x.order();
                                 double total = 0;
                                 for (Size mode = 0; mode < order;
                                      ++mode) {
                                     FactorList factors = ctx->factors();
                                     DenseMatrix out(x.dim(mode), rank);
                                     total +=
                                         timed_runs(
                                             [&] {
                                                 mttkrp_coo(x, factors,
                                                            mode, out);
                                             },
                                             runs)
                                             .mean_seconds;
                                     if (validate::
                                             kernel_checks_enabled())
                                         validate::diff_mttkrp(
                                             x, factors, mode, out)
                                             .require();
                                 }
                                 return total /
                                        static_cast<double>(order);
                             });
        }
        {
            auto cost = std::make_shared<KernelCost>(kernel_cost(
                Kernel::kMttkrp, Format::kHicoo, stats0, options.rank));
            runner.run_trial(entry, Kernel::kMttkrp, Format::kHicoo, cost,
                             [ctx, runs, rank] {
                                 const CooTensor& x = ctx->entry->tensor;
                                 const Size order = x.order();
                                 double total = 0;
                                 for (Size mode = 0; mode < order;
                                      ++mode) {
                                     FactorList factors = ctx->factors();
                                     DenseMatrix out(x.dim(mode), rank);
                                     total += timed_runs(
                                                  [&] {
                                                      mttkrp_hicoo(
                                                          ctx->hx, factors,
                                                          mode, out);
                                                  },
                                                  runs)
                                                  .mean_seconds;
                                     if (validate::
                                             kernel_checks_enabled())
                                         validate::diff_mttkrp(
                                             x, factors, mode, out)
                                             .require();
                                 }
                                 return total /
                                        static_cast<double>(order);
                             });
        }
    }
    maybe_export_trace(
        (options.journal_stem.empty() ? std::string("pasta")
                                      : options.journal_stem) +
        ".cpu");
    return runner.take_result();
}

SuiteResult
run_gpu_suite(const std::vector<NamedTensor>& suite,
              const gpusim::DeviceSpec& device, const BenchOptions& options)
{
    using namespace gpusim;
    SuiteRunner runner(options, std::string("gpu_") + device.name);
    for (const auto& entry : suite) {
        if (runner.fully_journaled(entry)) {
            PASTA_LOG_INFO << "gpu suite (" << device.name
                           << "): " << entry.id
                           << " fully journaled; resuming";
            runner.resume_tensor(entry);
            continue;
        }
        PASTA_LOG_INFO << "gpu suite (" << device.name
                       << "): " << entry.id;
        std::shared_ptr<TensorContext> ctx = runner.make_context(entry);
        if (!ctx)
            continue;
        const TensorStats stats0 = base_stats(entry.tensor, ctx->hx);
        const unsigned block_bits = options.block_bits;
        const Size rank = options.rank;
        const DeviceSpec dev = device;

        // TEW / TS: one launch each per format.
        {
            auto cost = std::make_shared<KernelCost>(
                kernel_cost(Kernel::kTew, Format::kCoo, stats0));
            runner.run_trial(entry, Kernel::kTew, Format::kCoo, cost,
                             [ctx, dev] {
                                 const CooTensor& x = ctx->entry->tensor;
                                 CooTensor z = x;
                                 LaunchProfile p = tew_gpu_coo(
                                     x, ctx->y, EwOp::kAdd, z);
                                 if (validate::kernel_checks_enabled())
                                     validate::diff_tew(
                                         EwOp::kAdd, x.values().data(),
                                         ctx->y.values().data(),
                                         z.values().data(), x.nnz())
                                         .require();
                                 return estimate_seconds(dev, p);
                             });
        }
        {
            auto cost = std::make_shared<KernelCost>(
                kernel_cost(Kernel::kTew, Format::kHicoo, stats0));
            runner.run_trial(entry, Kernel::kTew, Format::kHicoo, cost,
                             [ctx, dev] {
                                 HiCooTensor hz = ctx->hx;
                                 LaunchProfile p = tew_gpu_hicoo(
                                     ctx->hx, ctx->hy, EwOp::kAdd, hz);
                                 if (validate::kernel_checks_enabled())
                                     validate::diff_tew(
                                         EwOp::kAdd,
                                         ctx->hx.values().data(),
                                         ctx->hy.values().data(),
                                         hz.values().data(),
                                         ctx->hx.nnz())
                                         .require();
                                 return estimate_seconds(dev, p);
                             });
        }
        {
            auto cost = std::make_shared<KernelCost>(
                kernel_cost(Kernel::kTs, Format::kCoo, stats0));
            runner.run_trial(entry, Kernel::kTs, Format::kCoo, cost,
                             [ctx, dev] {
                                 const CooTensor& x = ctx->entry->tensor;
                                 CooTensor out = x;
                                 LaunchProfile p = ts_gpu_coo(
                                     x, TsOp::kMul, 1.0009f, out);
                                 if (validate::kernel_checks_enabled())
                                     validate::diff_ts(
                                         TsOp::kMul, x.values().data(),
                                         1.0009f, out.values().data(),
                                         x.nnz())
                                         .require();
                                 return estimate_seconds(dev, p);
                             });
        }
        {
            auto cost = std::make_shared<KernelCost>(
                kernel_cost(Kernel::kTs, Format::kHicoo, stats0));
            runner.run_trial(entry, Kernel::kTs, Format::kHicoo, cost,
                             [ctx, dev] {
                                 HiCooTensor hout = ctx->hx;
                                 LaunchProfile p = ts_gpu_hicoo(
                                     ctx->hx, TsOp::kMul, 1.0009f, hout);
                                 if (validate::kernel_checks_enabled())
                                     validate::diff_ts(
                                         TsOp::kMul,
                                         ctx->hx.values().data(), 1.0009f,
                                         hout.values().data(),
                                         ctx->hx.nnz())
                                         .require();
                                 return estimate_seconds(dev, p);
                             });
        }

        // TTV / TTM / MTTKRP averaged across modes, per (kernel, format).
        {
            auto cost = std::make_shared<KernelCost>();
            runner.run_trial(
                entry, Kernel::kTtv, Format::kCoo, cost,
                [ctx, cost, dev, stats0] {
                    const CooTensor& x = ctx->entry->tensor;
                    const Size order = x.order();
                    double total = 0;
                    KernelCost acc;
                    for (Size mode = 0; mode < order; ++mode) {
                        Rng rng(31 + mode);
                        DenseVector v =
                            DenseVector::random(x.dim(mode), rng);
                        CooTtvPlan plan = ttv_plan_coo(x, mode);
                        TensorStats stats = stats0;
                        stats.num_fibers = plan.fibers.num_fibers();
                        CooTensor out = plan.out_pattern;
                        LaunchProfile p = ttv_gpu_coo(plan, v, out);
                        if (validate::kernel_checks_enabled())
                            validate::diff_ttv(x, v, mode, out).require();
                        total += estimate_seconds(dev, p);
                        const KernelCost c = kernel_cost(
                            Kernel::kTtv, Format::kCoo, stats);
                        acc.flops += c.flops / order;
                        acc.bytes += c.bytes / order;
                    }
                    *cost = acc;
                    return total / static_cast<double>(order);
                });
        }
        {
            auto cost = std::make_shared<KernelCost>();
            runner.run_trial(
                entry, Kernel::kTtv, Format::kHicoo, cost,
                [ctx, cost, dev, stats0, block_bits] {
                    const CooTensor& x = ctx->entry->tensor;
                    const Size order = x.order();
                    double total = 0;
                    KernelCost acc;
                    for (Size mode = 0; mode < order; ++mode) {
                        Rng rng(31 + mode);
                        DenseVector v =
                            DenseVector::random(x.dim(mode), rng);
                        CooTtvPlan coo_plan = ttv_plan_coo(x, mode);
                        TensorStats stats = stats0;
                        stats.num_fibers = coo_plan.fibers.num_fibers();
                        HicooTtvPlan plan =
                            ttv_plan_hicoo(x, mode, block_bits);
                        HiCooTensor out = plan.out_pattern;
                        LaunchProfile p = ttv_gpu_hicoo(plan, v, out);
                        if (validate::kernel_checks_enabled())
                            validate::diff_ttv(x, v, mode,
                                               hicoo_to_coo(out))
                                .require();
                        total += estimate_seconds(dev, p);
                        const KernelCost c = kernel_cost(
                            Kernel::kTtv, Format::kHicoo, stats);
                        acc.flops += c.flops / order;
                        acc.bytes += c.bytes / order;
                    }
                    *cost = acc;
                    return total / static_cast<double>(order);
                });
        }
        {
            auto cost = std::make_shared<KernelCost>();
            runner.run_trial(
                entry, Kernel::kTtm, Format::kCoo, cost,
                [ctx, cost, dev, stats0, rank] {
                    const CooTensor& x = ctx->entry->tensor;
                    const Size order = x.order();
                    double total = 0;
                    KernelCost acc;
                    for (Size mode = 0; mode < order; ++mode) {
                        CooTtvPlan fib = ttv_plan_coo(x, mode);
                        TensorStats stats = stats0;
                        stats.num_fibers = fib.fibers.num_fibers();
                        CooTtmPlan plan = ttm_plan_coo(x, mode, rank);
                        ScooTensor out = plan.out_pattern;
                        LaunchProfile p =
                            ttm_gpu_coo(plan, ctx->mats[mode], out);
                        if (validate::kernel_checks_enabled())
                            validate::diff_ttm(x, ctx->mats[mode], mode,
                                               out)
                                .require();
                        total += estimate_seconds(dev, p);
                        const KernelCost c = kernel_cost(
                            Kernel::kTtm, Format::kCoo, stats, rank);
                        acc.flops += c.flops / order;
                        acc.bytes += c.bytes / order;
                    }
                    *cost = acc;
                    return total / static_cast<double>(order);
                });
        }
        {
            auto cost = std::make_shared<KernelCost>();
            runner.run_trial(
                entry, Kernel::kTtm, Format::kHicoo, cost,
                [ctx, cost, dev, stats0, rank, block_bits] {
                    const CooTensor& x = ctx->entry->tensor;
                    const Size order = x.order();
                    double total = 0;
                    KernelCost acc;
                    for (Size mode = 0; mode < order; ++mode) {
                        CooTtvPlan fib = ttv_plan_coo(x, mode);
                        TensorStats stats = stats0;
                        stats.num_fibers = fib.fibers.num_fibers();
                        HicooTtmPlan plan =
                            ttm_plan_hicoo(x, mode, rank, block_bits);
                        SHiCooTensor out = plan.out_pattern;
                        LaunchProfile p =
                            ttm_gpu_hicoo(plan, ctx->mats[mode], out);
                        if (validate::kernel_checks_enabled())
                            validate::diff_ttm(x, ctx->mats[mode], mode,
                                               out.to_scoo())
                                .require();
                        total += estimate_seconds(dev, p);
                        const KernelCost c = kernel_cost(
                            Kernel::kTtm, Format::kHicoo, stats, rank);
                        acc.flops += c.flops / order;
                        acc.bytes += c.bytes / order;
                    }
                    *cost = acc;
                    return total / static_cast<double>(order);
                });
        }
        {
            auto cost = std::make_shared<KernelCost>(kernel_cost(
                Kernel::kMttkrp, Format::kCoo, stats0, options.rank));
            runner.run_trial(entry, Kernel::kMttkrp, Format::kCoo, cost,
                             [ctx, dev, rank] {
                                 const CooTensor& x = ctx->entry->tensor;
                                 const Size order = x.order();
                                 double total = 0;
                                 for (Size mode = 0; mode < order;
                                      ++mode) {
                                     FactorList factors = ctx->factors();
                                     DenseMatrix out(x.dim(mode), rank);
                                     LaunchProfile p = mttkrp_gpu_coo(
                                         x, factors, mode, out);
                                     if (validate::
                                             kernel_checks_enabled())
                                         validate::diff_mttkrp(
                                             x, factors, mode, out)
                                             .require();
                                     total += estimate_seconds(dev, p);
                                 }
                                 return total /
                                        static_cast<double>(order);
                             });
        }
        {
            auto cost = std::make_shared<KernelCost>(kernel_cost(
                Kernel::kMttkrp, Format::kHicoo, stats0, options.rank));
            runner.run_trial(entry, Kernel::kMttkrp, Format::kHicoo, cost,
                             [ctx, dev, rank] {
                                 const CooTensor& x = ctx->entry->tensor;
                                 const Size order = x.order();
                                 double total = 0;
                                 for (Size mode = 0; mode < order;
                                      ++mode) {
                                     FactorList factors = ctx->factors();
                                     DenseMatrix out(x.dim(mode), rank);
                                     LaunchProfile p = mttkrp_gpu_hicoo(
                                         ctx->hx, factors, mode, out);
                                     if (validate::
                                             kernel_checks_enabled())
                                         validate::diff_mttkrp(
                                             x, factors, mode, out)
                                             .require();
                                     total += estimate_seconds(dev, p);
                                 }
                                 return total /
                                        static_cast<double>(order);
                             });
        }
    }
    maybe_export_trace(
        (options.journal_stem.empty() ? std::string("pasta")
                                      : options.journal_stem) +
        ".gpu_" + sanitize_tag(device.name));
    return runner.take_result();
}

void
print_figure(const std::string& title, const std::vector<MeasuredRun>& runs,
             const MachineSpec& platform)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("(GFLOPS per tensor; 'roof' is the paper's red Roofline "
                "performance line: OI x ERT-DRAM bandwidth of %s; 'skip' "
                "marks trials the harness abandoned)\n",
                platform.name.c_str());
    const Kernel kernels[5] = {Kernel::kTew, Kernel::kTs, Kernel::kTtv,
                               Kernel::kTtm, Kernel::kMttkrp};
    for (Kernel kernel : kernels) {
        std::printf("\n-- %s --\n", kernel_name(kernel));
        std::printf("%-10s %12s %12s %12s %8s %8s\n", "tensor",
                    "COO GFLOPS", "HiCOO GFLOPS", "roof GFLOPS",
                    "COO eff", "HiC eff");
        // Collect per-tensor rows preserving suite order; a tensor with
        // either series present gets a row (missing cells say "skip").
        std::vector<std::string> ids;
        for (const auto& run : runs) {
            if (run.kernel != kernel)
                continue;
            bool seen = false;
            for (const auto& id : ids)
                seen = seen || id == run.tensor_id;
            if (!seen)
                ids.push_back(run.tensor_id);
        }
        for (const auto& id : ids) {
            const MeasuredRun* coo = nullptr;
            const MeasuredRun* hicoo = nullptr;
            for (const auto& run : runs) {
                if (run.kernel != kernel || run.tensor_id != id)
                    continue;
                (run.format == Format::kCoo ? coo : hicoo) = &run;
            }
            const MeasuredRun* any = coo ? coo : hicoo;
            char coo_g[32], hic_g[32], coo_e[32], hic_e[32];
            if (coo) {
                std::snprintf(coo_g, sizeof(coo_g), "%.3f",
                              run_gflops(*coo));
                std::snprintf(coo_e, sizeof(coo_e), "%.0f%%",
                              100.0 * run_efficiency(*coo, platform));
            } else {
                std::snprintf(coo_g, sizeof(coo_g), "skip");
                std::snprintf(coo_e, sizeof(coo_e), "skip");
            }
            if (hicoo) {
                std::snprintf(hic_g, sizeof(hic_g), "%.3f",
                              run_gflops(*hicoo));
                std::snprintf(hic_e, sizeof(hic_e), "%.0f%%",
                              100.0 * run_efficiency(*hicoo, platform));
            } else {
                std::snprintf(hic_g, sizeof(hic_g), "skip");
                std::snprintf(hic_e, sizeof(hic_e), "skip");
            }
            const double roof = run_roofline_gflops(*any, platform);
            std::printf("%-10s %12s %12s %12.3f %8s %8s\n", id.c_str(),
                        coo_g, hic_g, roof, coo_e, hic_e);
        }
    }
}

void
print_failure_summary(const SuiteResult& result)
{
    if (result.resumed > 0)
        std::printf("\n[resume] %zu trial(s) restored from the run "
                    "journal (not re-measured)\n",
                    result.resumed);
    if (result.complete()) {
        std::printf("\nAll trials completed (%zu measurements).\n",
                    result.runs.size());
        return;
    }
    std::printf("\n!! %zu trial(s) skipped or failed (%zu completed):\n",
                result.failures.size(), result.runs.size());
    std::printf("%-10s %-8s %-7s %-10s %8s  %s\n", "tensor", "kernel",
                "format", "status", "attempts", "error");
    for (const auto& f : result.failures)
        std::printf("%-10s %-8s %-7s %-10s %8d  %s\n", f.tensor_id.c_str(),
                    f.kernel.c_str(), f.format.c_str(),
                    f.failure_class.empty() ? "failed"
                                            : f.failure_class.c_str(),
                    f.attempts, f.error.c_str());
    std::printf("Re-run the same binary to retry just the failed trials "
                "(completed ones resume from the journal).\n");
}

void
export_csv(const std::string& path, const std::vector<MeasuredRun>& runs,
           const MachineSpec& platform)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        PASTA_LOG_WARN << "cannot write CSV " << path;
        return;
    }
    std::fprintf(f,
                 "tensor,kernel,format,seconds,gflops,roofline_gflops,"
                 "efficiency,variant,obs_flops,obs_bytes,obs_ai,"
                 "roofline_pct,mem_peak\n");
    for (const auto& run : runs) {
        std::string variant = run.variant;
        for (auto& c : variant)
            if (c == ',' || c == '\n')
                c = ';';
        std::fprintf(f, "%s,%s,%s,%.9g,%.6g,%.6g,%.6g,%s,%.6g,%.6g,"
                        "%.6g,%.6g,%.6g\n",
                     run.tensor_id.c_str(), kernel_name(run.kernel),
                     format_name(run.format), run.seconds,
                     run_gflops(run),
                     run_roofline_gflops(run, platform),
                     run_efficiency(run, platform), variant.c_str(),
                     run.obs_flops, run.obs_bytes, run_ai(run),
                     run_roofline_pct(run, platform), run.mem_peak);
    }
    std::fclose(f);
    PASTA_LOG_INFO << "wrote " << path;
}

void
export_failures_csv(const std::string& path,
                    const std::vector<TrialFailure>& failures)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        PASTA_LOG_WARN << "cannot write CSV " << path;
        return;
    }
    std::fprintf(f, "tensor,kernel,format,class,timed_out,attempts,"
                    "error\n");
    for (const auto& fail : failures) {
        std::string error = fail.error;
        for (auto& c : error)
            if (c == ',' || c == '\n')
                c = ';';
        std::fprintf(f, "%s,%s,%s,%s,%d,%d,%s\n", fail.tensor_id.c_str(),
                     fail.kernel.c_str(), fail.format.c_str(),
                     fail.failure_class.c_str(), fail.timed_out ? 1 : 0,
                     fail.attempts, error.c_str());
    }
    std::fclose(f);
    PASTA_LOG_INFO << "wrote " << path;
}

void
maybe_export_trace(const std::string& stem)
{
    if (!obs::spans_enabled())
        return;
    std::string dir = config::text("PASTA_TRACE_DIR");
    if (dir.empty())
        dir = config::text("PASTA_CSV_DIR");
    if (dir.empty())
        dir = ".";
    obs::write_chrome_trace(dir + "/" + stem + ".trace.json");
    obs::write_spans_jsonl(dir + "/" + stem + ".spans.jsonl");
}

void
maybe_export_csv(const std::string& stem,
                 const std::vector<MeasuredRun>& runs,
                 const MachineSpec& platform)
{
    const std::string dir = config::text("PASTA_CSV_DIR");
    if (dir.empty())
        return;
    export_csv(dir + "/" + stem + ".csv", runs, platform);
}

void
maybe_export_csv(const std::string& stem, const SuiteResult& result,
                 const MachineSpec& platform)
{
    const std::string dir = config::text("PASTA_CSV_DIR");
    if (dir.empty())
        return;
    export_csv(dir + "/" + stem + ".csv", result.runs, platform);
    if (!result.failures.empty())
        export_failures_csv(dir + "/" + stem + "_failures.csv",
                            result.failures);
}

void
print_averages(const std::vector<MeasuredRun>& runs,
               const MachineSpec& platform)
{
    std::printf("\n-- per-kernel averages on %s --\n",
                platform.name.c_str());
    std::printf("%-8s %-7s %12s %12s %12s %10s\n", "kernel", "format",
                "mean GFLOPS", "min", "max", "mean eff");
    const Kernel kernels[5] = {Kernel::kTew, Kernel::kTs, Kernel::kTtv,
                               Kernel::kTtm, Kernel::kMttkrp};
    for (Kernel kernel : kernels) {
        for (Format format : {Format::kCoo, Format::kHicoo}) {
            const EfficiencySummary s =
                summarize(runs, kernel, format, platform);
            std::printf("%-8s %-7s %12.3f %12.3f %12.3f %9.0f%%\n",
                        kernel_name(kernel), format_name(format),
                        s.mean_gflops, s.min_gflops, s.max_gflops,
                        100.0 * s.mean_efficiency);
        }
    }
}

}  // namespace pasta::bench
