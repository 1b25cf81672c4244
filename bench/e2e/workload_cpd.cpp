/// \file
/// cpd_mttkrp_bound / cpd_factor_bound: CP-ALS at a fixed sweep count
/// (tolerance 0) in both MTTKRP formats, then one outside-timed MTTKRP
/// per mode and format with the solved factors.  Those calls split a
/// sweep into its MTTKRP part and the dense remainder (derived as sweep
/// minus MTTKRP), which is what tells the two workloads apart.  The load
/// and each format's solve are the parts of an iteration.
#include <cmath>
#include <filesystem>

#include "core/convert.hpp"
#include "e2e.hpp"
#include "io/binary_io.hpp"
#include "kernels/mttkrp.hpp"
#include "methods/cpd.hpp"

namespace e2e {

namespace {

using namespace pasta;

class Cpd : public Workload {
  public:
    explicit Cpd(const Options& opts)
        : opts_(opts),
          spec_(find_dataset(opts.text("dataset"))),
          scale_(opts.num("scale")),
          rank_(static_cast<Size>(opts.num("rank"))),
          sweeps_(static_cast<Size>(opts.num("sweeps"))),
          block_bits_(static_cast<unsigned>(opts.num("block_bits"))),
          calls_(static_cast<int>(opts.num("calls"))),
          path_(opts.dir + "/cpd_" + spec_.id + ".pstb")
    {
        const std::string first = opts.text("first_format");
        PASTA_CHECK_MSG(first == "coo" || first == "hicoo",
                        "first_format must be coo or hicoo");
        formats_ = first == "coo"
                       ? std::vector<Format>{Format::kCoo, Format::kHicoo}
                       : std::vector<Format>{Format::kHicoo, Format::kCoo};
    }

    void setup(Recorder& rec) override
    {
        const CooTensor x = synthesize(spec_, scale_, opts_.seed);
        const double t0 = now_s();
        write_binary_file(path_, x);
        rec.sample("io.write_s", now_s() - t0);
    }

    void iterate(Recorder& rec, bool check) override
    {
        CooTensor x;
        rec.part("load", [&] {
            const double load_s =
                rec.timed("io.load", [&] { x = read_binary_file(path_); });
            rec.sample("io.load_mb_per_s",
                       static_cast<double>(std::filesystem::file_size(path_)) /
                           1048576.0 / load_s);
        });
        std::map<Format, CpdResult> fits;
        for (Format format : formats_)
            rec.part(format_name(format),
                     [&] { fits[format] = solve(rec, x, format, check); });

        if (check)
            rec.untimed([&] { check_fits(rec, x, fits); });
    }

  private:
    /// One CP-ALS solve in `format`, then the outside-timed MTTKRP calls
    /// with its factors.  Returns the result without its factors: at
    /// millions of rows they dominate the process's memory, so they are
    /// dropped before the next solve.
    CpdResult solve(Recorder& rec, const CooTensor& x, Format format,
                    bool check)
    {
        const bool coo = format == Format::kCoo;
        CpdOptions o;
        o.rank = rank_;
        o.max_sweeps = sweeps_;
        o.tolerance = 0;  // never converges early: fixed work
        o.mttkrp_format = format;
        o.block_bits = block_bits_;
        o.seed = opts_.seed;
        CpdResult res;
        const double solve_s =
            rec.timed(coo ? "methods.cp_als.coo" : "methods.cp_als.hicoo",
                      [&] { res = cp_als(x, o); });
        const double sweep_s = solve_s / static_cast<double>(res.sweeps);

        FactorList factors;
        for (const auto& f : res.factors)
            factors.push_back(&f);
        HiCooTensor hx;
        if (!coo)
            rec.timed("core.convert",
                      [&] { hx = coo_to_hicoo(x, block_bits_); });
        double mttkrp_s = 0;
        for (Size mode = 0; mode < x.order(); ++mode) {
            DenseMatrix out;
            rec.timed("core.dense_init",
                      [&] { out = DenseMatrix(x.dim(mode), rank_); });
            const char* layer = coo ? "kernels.exec.mttkrp.coo"
                                    : "kernels.exec.mttkrp.hicoo";
            auto call = [&] {
                if (coo)
                    mttkrp_coo(x, factors, mode, out);
                else
                    mttkrp_hicoo(hx, factors, mode, out);
            };
            const KernelCost cost = model_cost(
                Kernel::kMttkrp, format, x, 0, coo ? 0 : hx.num_blocks(),
                rank_);
            rec.timed(layer, call);
            std::vector<double> secs;
            for (int i = 0; i < calls_; ++i) {
                secs.push_back(rec.timed(layer, call));
                rec.cells.add(std::string("MTTKRP/") + format_name(format),
                              "MTTKRP", mode, cost, secs.back());
            }
            mttkrp_s += median(secs);
            if (check) {
                rec.metrics["kernels.mttkrp_out_mb"] +=
                    static_cast<double>(out.storage_bytes()) / 1048576.0;
                rec.metrics["kernels.mttkrp_nnz_mb"] += cost.bytes / 1048576.0;
                rec.untimed([&] {
                    rec.outcome.check(
                        diff_mttkrp_touched(x, factors, mode, out),
                        std::string("MTTKRP/") + format_name(format) +
                            " mode " + std::to_string(mode));
                });
            }
        }
        const std::string f = coo ? ".coo" : ".hicoo";
        rec.sample("methods.sweep_s" + f, sweep_s);
        rec.sample("kernels.mttkrp_s_per_sweep" + f, mttkrp_s);
        rec.sample("methods.dense_s_per_sweep" + f, sweep_s - mttkrp_s);
        res.factors.clear();
        return res;
    }

    void check_fits(Recorder& rec, const CooTensor& x,
                    const std::map<Format, CpdResult>& fits)
    {
        double factor_bytes = 0;
        for (Size m = 0; m < x.order(); ++m)
            factor_bytes += static_cast<double>(x.dim(m) * rank_ * 4);
        rec.metrics["methods.factor_mb"] = factor_bytes / 1048576.0;
        const double a = fits.at(Format::kCoo).fit;
        const double b = fits.at(Format::kHicoo).fit;
        rec.metrics["methods.fit"] = a;
        rec.outcome.check(
            std::abs(a - b) <= 1e-4 * std::max(std::abs(a), std::abs(b)),
            "COO fit " + std::to_string(a) + " vs HiCOO fit " +
                std::to_string(b) + " differ by more than 1e-4 relative");
        for (const auto& [format, res] : fits) {
            bool monotone = res.sweeps == sweeps_;
            for (Size i = 1; i < res.fit_history.size(); ++i)
                monotone = monotone && res.fit_history[i] >=
                                           res.fit_history[i - 1] - 1e-6;
            rec.outcome.check(monotone, std::string(format_name(format)) +
                                            " CP-ALS fit dropped between "
                                            "sweeps or stopped early");
        }
    }

    const Options& opts_;
    const DatasetSpec& spec_;
    double scale_;
    Size rank_;
    Size sweeps_;
    unsigned block_bits_;
    int calls_;
    std::string path_;
    std::vector<Format> formats_;
};

}  // namespace

std::unique_ptr<Workload>
make_cpd(const Options& opts)
{
    return std::make_unique<Cpd>(opts);
}

}  // namespace e2e
