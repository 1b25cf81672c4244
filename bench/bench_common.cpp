#include "bench_common.hpp"

#include <cctype>
#include <cstdio>
#include <optional>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/convert.hpp"
#include "core/fibers.hpp"
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

/// Per-tensor measurement context: everything the context builder and
/// the trial bodies read.  It borrows the suite's tensor, which outlives
/// every trial on it.
struct TensorContext {
    TensorContext(const NamedTensor& entry, const BenchOptions& options)
        : id(entry.id), x(entry.tensor), rank(options.rank),
          block_bits(options.block_bits)
    {
    }

    std::string id;
    const CooTensor& x;             ///< the suite tensor
    Size rank;
    unsigned block_bits;
    CooTensor y;                    ///< TEW sibling
    HiCooTensor hx;                 ///< HiCOO form of x
    HiCooTensor hy;                 ///< HiCOO form of y
    std::vector<DenseMatrix> mats;  ///< TTM operands, MTTKRP factors
    TensorStats stats;              ///< Table I stats; num_fibers unset
    std::vector<Size> fibers;       ///< M_F of each mode

    FactorList factors() const
    {
        FactorList list;
        for (const auto& m : mats)
            list.push_back(&m);
        return list;
    }
};

/// Derives the rest of the context from ctx.x.  Runs as a guarded trial,
/// so it may be retried on the same context after a failure.
void
fill_context(TensorContext& ctx)
{
    harness::fault_point("alloc");
    const CooTensor& x = ctx.x;
    ctx.y = sibling(x, 17);
    ctx.hx = coo_to_hicoo(x, ctx.block_bits);
    ctx.hy = coo_to_hicoo(ctx.y, ctx.block_bits);
    Rng rng(23);
    ctx.mats.clear();
    for (Size m = 0; m < x.order(); ++m)
        ctx.mats.push_back(DenseMatrix::random(x.dim(m), ctx.rank, rng));
    ctx.stats.order = x.order();
    ctx.stats.nnz = x.nnz();
    ctx.stats.num_blocks = ctx.hx.num_blocks();
    ctx.stats.block_size = ctx.hx.block_size();
    ctx.fibers.resize(x.order());
    for (Size m = 0; m < x.order(); ++m) {
        CooTensor sorted = x;
        sorted.sort_fibers_last(m);
        ctx.fibers[m] = compute_fibers(sorted, m).num_fibers();
    }
}

/// The backend half of the protocol: how one kernel invocation becomes
/// seconds.  On the host CPU `host` is timed over `runs` repetitions; on
/// a simulated GPU `launch` runs once through the SIMT simulator and its
/// LaunchProfile is priced by the device's analytical timing model.
struct Executor {
    std::size_t runs = 1;
    std::optional<gpusim::DeviceSpec> device;  ///< empty: the host CPU

    template <typename Host, typename Launch>
    double seconds(Host host, Launch launch) const
    {
        if (device)
            return gpusim::estimate_seconds(*device, launch());
        return timed_runs(host, runs).mean_seconds;
    }
};

/// One (kernel, format) cell of the protocol.  `invoke` is one call on
/// one mode (TEW and TS ignore it): build the plan and output, run them
/// through the executor, check the result with the differential oracle
/// when kernel checks are on, and return the seconds.
struct Cell {
    Kernel kernel;
    Format format;
    double (*invoke)(const TensorContext&, Size mode, const Executor&);
};

/// TS scalar; TEW uses addition and TS multiplication (§V-A2).
constexpr Value kTsScalar = 1.0009f;

/// TTV's dense operand on `mode`, seeded per mode.
DenseVector
ttv_vector(const CooTensor& x, Size mode)
{
    Rng rng(31 + mode);
    return DenseVector::random(x.dim(mode), rng);
}

/// The ten cells in figure order.  Trial order, and with it fault-point
/// hit counts and journal order, is this table's order; the runner, the
/// journal replay and the printers all walk it.
const Cell kCells[] = {
    {Kernel::kTew, Format::kCoo,
     [](const TensorContext& c, Size, const Executor& exec) {
         CooTensor z = c.x;
         const double s = exec.seconds(
             [&] {
                 tew_values(EwOp::kAdd, c.x.values().data(),
                            c.y.values().data(), z.values().data(),
                            c.x.nnz());
             },
             [&] { return gpusim::tew_gpu_coo(c.x, c.y, EwOp::kAdd, z); });
         if (validate::kernel_checks_enabled())
             validate::diff_tew(EwOp::kAdd, c.x.values().data(),
                                c.y.values().data(), z.values().data(),
                                c.x.nnz())
                 .require();
         return s;
     }},
    {Kernel::kTew, Format::kHicoo,
     [](const TensorContext& c, Size, const Executor& exec) {
         HiCooTensor hz = c.hx;
         const double s = exec.seconds(
             [&] {
                 tew_values(EwOp::kAdd, c.hx.values().data(),
                            c.hy.values().data(), hz.values().data(),
                            c.hx.nnz());
             },
             [&] {
                 return gpusim::tew_gpu_hicoo(c.hx, c.hy, EwOp::kAdd, hz);
             });
         if (validate::kernel_checks_enabled())
             validate::diff_tew(EwOp::kAdd, c.hx.values().data(),
                                c.hy.values().data(), hz.values().data(),
                                c.hx.nnz())
                 .require();
         return s;
     }},
    {Kernel::kTs, Format::kCoo,
     [](const TensorContext& c, Size, const Executor& exec) {
         CooTensor out = c.x;
         const double s = exec.seconds(
             [&] {
                 ts_values(TsOp::kMul, c.x.values().data(),
                           out.values().data(), c.x.nnz(), kTsScalar);
             },
             [&] {
                 return gpusim::ts_gpu_coo(c.x, TsOp::kMul, kTsScalar, out);
             });
         if (validate::kernel_checks_enabled())
             validate::diff_ts(TsOp::kMul, c.x.values().data(), kTsScalar,
                               out.values().data(), c.x.nnz())
                 .require();
         return s;
     }},
    {Kernel::kTs, Format::kHicoo,
     [](const TensorContext& c, Size, const Executor& exec) {
         HiCooTensor hout = c.hx;
         const double s = exec.seconds(
             [&] {
                 ts_values(TsOp::kMul, c.hx.values().data(),
                           hout.values().data(), c.hx.nnz(), kTsScalar);
             },
             [&] {
                 return gpusim::ts_gpu_hicoo(c.hx, TsOp::kMul, kTsScalar,
                                             hout);
             });
         if (validate::kernel_checks_enabled())
             validate::diff_ts(TsOp::kMul, c.hx.values().data(), kTsScalar,
                               hout.values().data(), c.hx.nnz())
                 .require();
         return s;
     }},
    {Kernel::kTtv, Format::kCoo,
     [](const TensorContext& c, Size mode, const Executor& exec) {
         const DenseVector v = ttv_vector(c.x, mode);
         const CooTtvPlan plan = ttv_plan_coo(c.x, mode);
         CooTensor out = plan.out_pattern;
         const double s = exec.seconds(
             [&] { ttv_exec_coo(plan, v, out); },
             [&] { return gpusim::ttv_gpu_coo(plan, v, out); });
         if (validate::kernel_checks_enabled())
             validate::diff_ttv(c.x, v, mode, out).require();
         return s;
     }},
    {Kernel::kTtv, Format::kHicoo,
     [](const TensorContext& c, Size mode, const Executor& exec) {
         const DenseVector v = ttv_vector(c.x, mode);
         const HicooTtvPlan plan = ttv_plan_hicoo(c.x, mode, c.block_bits);
         HiCooTensor out = plan.out_pattern;
         const double s = exec.seconds(
             [&] { ttv_exec_hicoo(plan, v, out); },
             [&] { return gpusim::ttv_gpu_hicoo(plan, v, out); });
         if (validate::kernel_checks_enabled())
             validate::diff_ttv(c.x, v, mode, hicoo_to_coo(out)).require();
         return s;
     }},
    {Kernel::kTtm, Format::kCoo,
     [](const TensorContext& c, Size mode, const Executor& exec) {
         const CooTtmPlan plan = ttm_plan_coo(c.x, mode, c.rank);
         ScooTensor out = plan.out_pattern;
         const DenseMatrix& u = c.mats[mode];
         const double s = exec.seconds(
             [&] { ttm_exec_coo(plan, u, out); },
             [&] { return gpusim::ttm_gpu_coo(plan, u, out); });
         if (validate::kernel_checks_enabled())
             validate::diff_ttm(c.x, u, mode, out).require();
         return s;
     }},
    {Kernel::kTtm, Format::kHicoo,
     [](const TensorContext& c, Size mode, const Executor& exec) {
         const HicooTtmPlan plan =
             ttm_plan_hicoo(c.x, mode, c.rank, c.block_bits);
         SHiCooTensor out = plan.out_pattern;
         const DenseMatrix& u = c.mats[mode];
         const double s = exec.seconds(
             [&] { ttm_exec_hicoo(plan, u, out); },
             [&] { return gpusim::ttm_gpu_hicoo(plan, u, out); });
         if (validate::kernel_checks_enabled())
             validate::diff_ttm(c.x, u, mode, out.to_scoo()).require();
         return s;
     }},
    {Kernel::kMttkrp, Format::kCoo,
     [](const TensorContext& c, Size mode, const Executor& exec) {
         const FactorList factors = c.factors();
         DenseMatrix out(c.x.dim(mode), c.rank);
         const double s = exec.seconds(
             [&] { mttkrp_coo(c.x, factors, mode, out); },
             [&] { return gpusim::mttkrp_gpu_coo(c.x, factors, mode, out); });
         if (validate::kernel_checks_enabled())
             validate::diff_mttkrp(c.x, factors, mode, out).require();
         return s;
     }},
    {Kernel::kMttkrp, Format::kHicoo,
     [](const TensorContext& c, Size mode, const Executor& exec) {
         const FactorList factors = c.factors();
         DenseMatrix out(c.x.dim(mode), c.rank);
         const double s = exec.seconds(
             [&] { mttkrp_hicoo(c.hx, factors, mode, out); },
             [&] {
                 return gpusim::mttkrp_gpu_hicoo(c.hx, factors, mode, out);
             });
         if (validate::kernel_checks_enabled())
             validate::diff_mttkrp(c.x, factors, mode, out).require();
         return s;
     }},
};

/// TTV, TTM and MTTKRP run on every mode and report the mean (§V-A2).
bool
averaged_over_modes(Kernel kernel)
{
    return kernel == Kernel::kTtv || kernel == Kernel::kTtm ||
           kernel == Kernel::kMttkrp;
}

/// Table I cost of one cell.  TTV and TTM depend on the mode's fiber
/// count, so their cost is the mean over modes; the others are mode-
/// independent.
KernelCost
cell_cost(const Cell& cell, const TensorContext& ctx)
{
    if (cell.kernel != Kernel::kTtv && cell.kernel != Kernel::kTtm)
        return kernel_cost(cell.kernel, cell.format, ctx.stats, ctx.rank);
    const Size order = ctx.x.order();
    TensorStats stats = ctx.stats;
    KernelCost mean;
    for (Size mode = 0; mode < order; ++mode) {
        stats.num_fibers = ctx.fibers[mode];
        const KernelCost c =
            kernel_cost(cell.kernel, cell.format, stats, ctx.rank);
        mean.flops += c.flops / order;
        mean.bytes += c.bytes / order;
    }
    return mean;
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

/// Drives one suite on one backend: journal lookup, guarded execution,
/// and partial-result bookkeeping for every (tensor, kernel, format)
/// trial.
class SuiteRunner {
  public:
    SuiteRunner(const BenchOptions& options, const std::string& platform,
                Executor exec)
        : policy_(options.trial_policy), exec_(std::move(exec))
    {
        if (options.journal_enabled && !options.journal_stem.empty() &&
            !options.cache_dir.empty())
            journal_ = harness::RunJournal(
                options.cache_dir + "/" + options.journal_stem + "." +
                sanitize_tag(platform) + ".journal.jsonl");
    }

    SuiteResult take_result() { return std::move(result_); }

    /// Restores a journaled successful trial; false when the cell still
    /// has to be measured.
    bool restore(const std::string& id, const Cell& cell)
    {
        if (!journal_.enabled())
            return false;
        const harness::JournalEntry* done = journal_.find(
            id, kernel_name(cell.kernel), format_name(cell.format));
        if (!done || !done->ok)
            return false;
        MeasuredRun run;
        run.tensor_id = id;
        run.kernel = cell.kernel;
        run.format = cell.format;
        run.seconds = done->seconds;
        run.cost.flops = done->flops;
        run.cost.bytes = done->bytes;
        run.variant = done->variant;
        run.obs_flops = done->obs_flops;
        run.obs_bytes = done->obs_bytes;
        run.mem_peak = done->mem_peak;
        result_.runs.push_back(run);
        ++result_.resumed;
        return true;
    }

    /// Journal, then guarded execution of one cell on `ctx`.
    void run_trial(const TensorContext& ctx, const Cell& cell)
    {
        if (restore(ctx.id, cell))
            return;
        const char* kname = kernel_name(cell.kernel);
        const char* fname = format_name(cell.format);
        const std::string label =
            std::string(kname) + "/" + fname + " on " + ctx.id;
        const KernelCost cost = cell_cost(cell, ctx);
        auto body = [&] {
            harness::fault_point("kernel.run");
            const Size modes =
                averaged_over_modes(cell.kernel) ? ctx.x.order() : 1;
            double total = 0;
            for (Size mode = 0; mode < modes; ++mode)
                total += cell.invoke(ctx, mode, exec_);
            return total / static_cast<double>(modes);
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
            harness::run_guarded_trial(label, body, policy_);
        const double mem_peak = static_cast<double>(
            membudget::MemGovernor::instance().peak());

        harness::JournalEntry record;
        record.tensor_id = ctx.id;
        record.kernel = kname;
        record.format = fname;
        record.ok = trial.ok;
        record.seconds = trial.seconds;
        record.attempts = trial.attempts;
        record.error = trial.error;
        record.failure_class = harness::failure_class(trial);
        record.mem_peak = mem_peak;
        if (trial.ok) {
            MeasuredRun run;
            run.tensor_id = ctx.id;
            run.kernel = cell.kernel;
            run.format = cell.format;
            run.seconds = trial.seconds;
            run.cost = cost;
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
            record.flops = cost.flops;
            record.bytes = cost.bytes;
            record.variant = run.variant;
            record.obs_flops = run.obs_flops;
            record.obs_bytes = run.obs_bytes;
            result_.runs.push_back(run);
        } else {
            result_.failures.push_back({ctx.id, kname, fname, trial.error,
                                        trial.attempts, record.failure_class});
        }
        journal_.append(record);
    }

    /// True when every cell of tensor `id` is already in the journal, so
    /// context construction can be skipped entirely.
    bool fully_journaled(const std::string& id) const
    {
        if (!journal_.enabled())
            return false;
        for (const Cell& cell : kCells)
            if (!journal_.has_ok(id, kernel_name(cell.kernel),
                                 format_name(cell.format)))
                return false;
        return true;
    }

    /// Fills the per-tensor context under the same guard as trials.
    /// Returns false (and records a whole-tensor failure) on failure.
    bool build_context(TensorContext& ctx)
    {
        const harness::TrialResult trial = harness::run_guarded_trial(
            "context on " + ctx.id,
            [&] {
                fill_context(ctx);
                return 0.0;
            },
            policy_);
        if (trial.ok)
            return true;
        result_.failures.push_back({ctx.id, "*", "*",
                                    "context setup failed: " + trial.error,
                                    trial.attempts,
                                    harness::failure_class(trial)});
        return false;
    }

  private:
    harness::TrialPolicy policy_;
    Executor exec_;
    harness::RunJournal journal_;
    SuiteResult result_;
};

/// The shared suite driver behind run_cpu_suite and run_gpu_suite: every
/// tensor, every cell of kCells, on the backend `exec` stands for.
/// `platform` names the journal and trace files ("cpu", "gpu_<device>").
SuiteResult
run_suite(const std::vector<NamedTensor>& suite, const BenchOptions& options,
          const std::string& platform, Executor exec)
{
    SuiteRunner runner(options, platform, std::move(exec));
    for (const auto& entry : suite) {
        if (runner.fully_journaled(entry.id)) {
            PASTA_LOG_INFO << platform << " suite: " << entry.id
                           << " fully journaled; resuming";
            for (const Cell& cell : kCells)
                runner.restore(entry.id, cell);
            continue;
        }
        PASTA_LOG_INFO << platform << " suite: " << entry.id << " ("
                       << entry.tensor.describe() << ")";
        TensorContext ctx(entry, options);
        if (!runner.build_context(ctx))
            continue;
        for (const Cell& cell : kCells)
            runner.run_trial(ctx, cell);
    }
    maybe_export_trace(
        (options.journal_stem.empty() ? std::string("pasta")
                                      : options.journal_stem) +
        "." + sanitize_tag(platform));
    return runner.take_result();
}

}  // namespace

SuiteResult
run_cpu_suite(const std::vector<NamedTensor>& suite,
              const BenchOptions& options)
{
    return run_suite(suite, options, "cpu", Executor{options.runs, {}});
}

SuiteResult
run_gpu_suite(const std::vector<NamedTensor>& suite,
              const gpusim::DeviceSpec& device, const BenchOptions& options)
{
    return run_suite(suite, options, "gpu_" + device.name,
                     Executor{options.runs, device});
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
    for (const Cell& cell : kCells) {
        if (cell.format != Format::kCoo)
            continue;  // one block per kernel, both formats side by side
        const Kernel kernel = cell.kernel;
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
    std::fprintf(f, "tensor,kernel,format,class,attempts,error\n");
    for (const auto& fail : failures) {
        std::string error = fail.error;
        for (auto& c : error)
            if (c == ',' || c == '\n')
                c = ';';
        std::fprintf(f, "%s,%s,%s,%s,%d,%s\n", fail.tensor_id.c_str(),
                     fail.kernel.c_str(), fail.format.c_str(),
                     fail.failure_class.c_str(), fail.attempts,
                     error.c_str());
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
    for (const Cell& cell : kCells) {
        const EfficiencySummary s =
            summarize(runs, cell.kernel, cell.format, platform);
        std::printf("%-8s %-7s %12.3f %12.3f %12.3f %9.0f%%\n",
                    kernel_name(cell.kernel), format_name(cell.format),
                    s.mean_gflops, s.min_gflops, s.max_gflops,
                    100.0 * s.mean_efficiency);
    }
}

}  // namespace pasta::bench
