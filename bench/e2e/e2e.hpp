/// \file
/// Shared machinery of the end-to-end benchmark driver (pasta_e2e).
///
/// The driver times every layer from the outside: each call into a
/// library entry point (load, convert, plan, kernel, method, serve,
/// stream) goes through Recorder::timed, which reads the steady clock
/// around the call and, in a traced run, also opens a driver-side span
/// "e2e.<layer>".  The library's own spans (convert.*, plan.*) nest
/// inside those, so a layer's self time is its span duration minus its
/// child spans (fold_self_times).  No entry point used here is an
/// ablation-only one, so the kernel API can be reshaped without editing
/// the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cost_model.hpp"
#include "core/coo_tensor.hpp"
#include "core/dense.hpp"
#include "gen/datasets.hpp"
#include "obs/trace.hpp"
#include "validate/diff.hpp"

namespace e2e {

using pasta::Size;

/// Command line of one driver run.  `params` holds the workload's
/// parameters, passed by run.py from workloads.json as --set key=value.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string dir;  ///< scratch directory for PSTB files and outputs
    std::map<std::string, std::string> params;

    /// Required numeric parameter; throws when absent or malformed.
    double num(const std::string& key) const;
    std::string text(const std::string& key) const;
};

/// Seconds on the steady clock since an arbitrary epoch.
inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] (the statistics.quantiles
/// "inclusive" rule); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Timed calls of one (input, kernel, format) "cell", split by mode.  A
/// cell's rate follows the paper's protocol: the median call time per
/// mode, summed over modes, against the summed Table I flops.
class Cells {
  public:
    void add(const std::string& cell, const std::string& kernel, Size mode,
             const pasta::KernelCost& cost, double seconds);

    /// Geometric mean GFLOP/s over the cells of `kernel`.
    double geomean_gflops(const std::string& kernel) const;

    /// Geometric mean over the cells of `kernel` of achieved GFLOP/s as
    /// a percentage of the roofline min(peak, OI x DRAM bandwidth).
    double geomean_roofline_pct(const std::string& kernel, double dram_gbs,
                                double peak_gflops) const;

  private:
    struct Rate {
        std::string kernel;
        double gflops = 0;
        double oi = 0;  ///< Table I flops per byte
    };
    std::map<std::string, Rate> rates() const;

    struct ModeSamples {
        pasta::KernelCost cost;
        std::vector<double> seconds;
    };
    struct Cell {
        std::string kernel;
        std::map<Size, ModeSamples> modes;
    };
    std::map<std::string, Cell> cells_;
};

/// Operations attempted and failed in one run, plus the first few
/// failure messages.  Every failed check fails the run.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /// Counts one checked operation; a false `ok` records `what`.
    void check(bool ok, const std::string& what);
    /// Counts one differential check, recording its summary on failure.
    void check(const pasta::validate::DiffReport& report,
               const std::string& where);
};

/// Times calls from the outside and accumulates per-layer seconds.
class Recorder {
  public:
    /// Runs `fn` as one call into `layer` ("io.load", "core.convert",
    /// ...): wall time is added to the layer's inclusive total and, when
    /// spans are armed, the call is wrapped in span "e2e.<layer>".
    /// Returns the call's seconds.
    template <typename Fn>
    double timed(const char* layer, Fn&& fn)
    {
        pasta::obs::SpanScope span(span_name(layer));
        const double t0 = now_s();
        fn();
        const double dt = now_s() - t0;
        inclusive_[layer] += dt;
        return dt;
    }

    /// Runs `fn` (a correctness check) outside the measured iteration:
    /// its time is excluded from the iteration wall and its spans from
    /// the layer self times.
    template <typename Fn>
    void untimed(Fn&& fn)
    {
        pasta::obs::SpanScope span("e2e.check");
        const double t0 = now_s();
        fn();
        excluded_ += now_s() - t0;
    }

    /// Runs `fn` as one named part of the iteration, its checks excluded.
    /// wall_s sums each part's median over the measured iterations, so a
    /// slow spell of the host that hits one part of one iteration does
    /// not move it.  An iteration without parts is one part.
    template <typename Fn>
    void part(const std::string& name, Fn&& fn)
    {
        const double excluded0 = excluded_;
        const double t0 = now_s();
        fn();
        parts_[name] += now_s() - t0 - (excluded_ - excluded0);
    }

    /// Seconds spent in untimed() since the last call (and resets it).
    double take_excluded()
    {
        return std::exchange(excluded_, 0.0);
    }

    /// Seconds per part() since the last call (and resets them).
    std::map<std::string, double> take_parts()
    {
        return std::exchange(parts_, {});
    }

    const std::map<std::string, double>& inclusive() const
    {
        return inclusive_;
    }

    /// Records one per-iteration value of a per-layer metric; the run
    /// reports the median over its measured iterations.
    void sample(const std::string& name, double value)
    {
        samples_[name].push_back(value);
    }

    const std::map<std::string, std::vector<double>>& samples() const
    {
        return samples_;
    }

    Outcome outcome;
    Cells cells;
    /// Per-layer metrics a workload sets once (computed sizes, checks).
    std::map<std::string, double> metrics;

  private:
    static std::string span_name(const char* layer)
    {
        return pasta::obs::spans_enabled() ? std::string("e2e.") + layer
                                           : std::string();
    }

    std::map<std::string, double> inclusive_;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> parts_;
    double excluded_ = 0;
};

/// One benchmark workload.  setup() builds every input from the seed;
/// it runs several times per process, spread between the iterations, and
/// each run rebuilds the same inputs (setup_s is their median; it may
/// record per-layer samples such as io.write_s); iterate() is one
/// measured unit of work and runs its correctness checks through
/// Recorder::untimed when `check` is set; finish() runs once after the
/// measured iterations.
class Workload {
  public:
    virtual ~Workload() = default;
    virtual void setup(Recorder& rec) = 0;
    virtual void iterate(Recorder& rec, bool check) = 0;
    virtual void finish(Recorder& rec) { (void)rec; }
    /// Seconds of the run budget finish() needs for itself.
    virtual double reserved_seconds() const { return 0; }
};

std::unique_ptr<Workload> make_suite_fig4(const Options& opts);
std::unique_ptr<Workload> make_cpd(const Options& opts);
std::unique_ptr<Workload> make_serve_zipf(const Options& opts);
std::unique_ptr<Workload> make_oocore(const Options& opts);

/// A Table II stand-in at `scale`, generated like synthesize_dataset
/// but with `seed` mixed into the per-dataset generator seed.
pasta::CooTensor synthesize(const pasta::DatasetSpec& spec, double scale,
                            std::uint64_t seed);

/// Table I cost of one call on `x`; `num_fibers` feeds TTV/TTM and
/// `num_blocks` HiCOO MTTKRP (pass 0 where unused).
pasta::KernelCost model_cost(pasta::Kernel kernel, pasta::Format format,
                             const pasta::CooTensor& x, Size num_fibers,
                             Size num_blocks, Size rank);

/// validate::diff_mttkrp over the output rows `x` touches, plus a check
/// that every other row is exactly zero.  The library oracle is dense in
/// the output mode (24 bytes per entry), which for the hypersparse
/// stand-ins' million-row modes costs more than the whole workload.
pasta::validate::DiffReport diff_mttkrp_touched(
    const pasta::CooTensor& x,
    const std::vector<const pasta::DenseMatrix*>& factors, Size mode,
    const pasta::DenseMatrix& out);

/// Folds the recorded spans into self seconds per layer: "e2e.<layer>"
/// maps to <layer>, the library's convert.* spans to core.convert and
/// plan.<k>_<fmt> to kernels.plan.<k>.<fmt>; anything under an
/// "e2e.check" span is dropped.
std::map<std::string, double> fold_self_times(
    const std::vector<pasta::obs::SpanRecord>& spans);

/// Minimal JSON object writer (numbers, strings, bools, nested objects).
class Json {
  public:
    Json& num(const std::string& key, double value);
    Json& str(const std::string& key, const std::string& value);
    Json& boolean(const std::string& key, bool value);
    Json& obj(const std::string& key, const Json& value);
    Json& nums(const std::string& key, const std::map<std::string, double>& m);
    std::string dump() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace e2e
