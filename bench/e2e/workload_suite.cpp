/// \file
/// suite_fig4: the paper's Fig. 4 protocol over all 30 Table II
/// stand-ins.  Setup writes every tensor as PSTB; one iteration reads
/// each back, converts it to HiCOO, initialises the dense operands,
/// plans TTV/TTM per mode and times every (kernel, format) cell: one
/// warm-up call, then `calls` timed calls per mode.  Each tensor is one
/// part of the iteration.
#include <filesystem>

#include "common/rng.hpp"
#include "core/convert.hpp"
#include "e2e.hpp"
#include "io/binary_io.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/tew.hpp"
#include "kernels/ts.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttv.hpp"
#include "validate/diff.hpp"

namespace e2e {

namespace {

using namespace pasta;

constexpr Value kScalar = 1.0009f;  ///< TS operand, as in bench_common

class SuiteFig4 : public Workload {
  public:
    explicit SuiteFig4(const Options& opts)
        : opts_(opts),
          scale_(opts.num("scale")),
          rank_(static_cast<Size>(opts.num("rank"))),
          block_bits_(static_cast<unsigned>(opts.num("block_bits"))),
          calls_(static_cast<int>(opts.num("calls")))
    {
    }

    void setup(Recorder& rec) override
    {
        inputs_.clear();
        double write_s = 0;
        for (const auto* table :
             {&real_dataset_table(), &synthetic_dataset_table()}) {
            for (const DatasetSpec& spec : *table) {
                if (!selected(spec.id))
                    continue;
                const std::string path =
                    opts_.dir + "/suite_" + spec.id + ".pstb";
                const CooTensor x = synthesize(spec, scale_, opts_.seed);
                const double t0 = now_s();
                write_binary_file(path, x);
                write_s += now_s() - t0;
                inputs_.push_back(
                    {spec.id, path, std::filesystem::file_size(path)});
            }
        }
        rec.sample("io.write_s", write_s);
    }

    void iterate(Recorder& rec, bool check) override
    {
        double load_s = 0, load_bytes = 0;
        for (const Input& in : inputs_)
            rec.part(in.id, [&] {
                CooTensor x;
                load_s += rec.timed("io.load",
                                    [&] { x = read_binary_file(in.path); });
                load_bytes += static_cast<double>(in.bytes);
                run_tensor(rec, in.id, x, check);
            });
        rec.sample("io.load_mb_per_s", load_bytes / 1048576.0 / load_s);
    }

  private:
    /// `datasets` is "all" or a comma-separated list of Table II ids.
    bool selected(const std::string& id) const
    {
        const std::string list = opts_.text("datasets");
        if (list == "all")
            return true;
        for (std::size_t start = 0; start <= list.size();) {
            const std::size_t end = std::min(list.find(',', start), list.size());
            if (list.compare(start, end - start, id) == 0)
                return true;
            start = end + 1;
        }
        return false;
    }

    struct Input {
        std::string id;
        std::string path;
        std::uintmax_t bytes;
    };

    /// One warm-up call, then `calls_` timed calls recorded in the cell.
    template <typename Fn>
    void cell(Recorder& rec, const char* layer, const std::string& id,
              Kernel kernel, Format format, Size mode,
              const KernelCost& cost, Fn&& fn)
    {
        rec.timed(layer, fn);
        const std::string name = id + "/" + kernel_name(kernel) + "/" +
                                 format_name(format);
        for (int i = 0; i < calls_; ++i)
            rec.cells.add(name, kernel_name(kernel), mode, cost,
                          rec.timed(layer, fn));
    }

    void run_tensor(Recorder& rec, const std::string& id, const CooTensor& x,
                    bool check)
    {
        Rng rng(opts_.seed * 7919 + x.nnz());
        CooTensor y;
        std::vector<DenseMatrix> mats;
        rec.timed("core.dense_init", [&] {
            y = x;
            for (auto& v : y.values())
                v = rng.next_float() + 0.5f;
            for (Size m = 0; m < x.order(); ++m)
                mats.push_back(DenseMatrix::random(x.dim(m), rank_, rng));
        });
        FactorList factors;
        for (const auto& m : mats)
            factors.push_back(&m);
        HiCooTensor hx, hy;
        rec.timed("core.convert", [&] {
            hx = coo_to_hicoo(x, block_bits_);
            hy = coo_to_hicoo(y, block_bits_);
        });
        const Size nnz = x.nnz();

        // ---- TEW (addition) and TS (multiplication), §V-A2 ----
        {
            CooTensor z;
            HiCooTensor hz;
            rec.timed("core.dense_init", [&] {
                z = x;
                hz = hx;
            });
            const KernelCost cost =
                model_cost(Kernel::kTew, Format::kCoo, x, 0, 0, rank_);
            cell(rec, "kernels.exec.tew.coo", id, Kernel::kTew, Format::kCoo,
                 0, cost, [&] {
                     tew_values(EwOp::kAdd, x.values().data(),
                                y.values().data(), z.values().data(), nnz);
                 });
            cell(rec, "kernels.exec.tew.hicoo", id, Kernel::kTew,
                 Format::kHicoo, 0, cost, [&] {
                     tew_values(EwOp::kAdd, hx.values().data(),
                                hy.values().data(), hz.values().data(), nnz);
                 });
            if (check)
                rec.untimed([&] {
                    rec.outcome.check(
                        validate::diff_tew(EwOp::kAdd, x.values().data(),
                                           y.values().data(),
                                           z.values().data(), nnz),
                        id + " TEW/COO");
                    rec.outcome.check(
                        validate::diff_tew(EwOp::kAdd, hx.values().data(),
                                           hy.values().data(),
                                           hz.values().data(), nnz),
                        id + " TEW/HiCOO");
                });
            const KernelCost ts_cost =
                model_cost(Kernel::kTs, Format::kCoo, x, 0, 0, rank_);
            cell(rec, "kernels.exec.ts.coo", id, Kernel::kTs, Format::kCoo, 0,
                 ts_cost, [&] {
                     ts_values(TsOp::kMul, x.values().data(),
                               z.values().data(), nnz, kScalar);
                 });
            cell(rec, "kernels.exec.ts.hicoo", id, Kernel::kTs,
                 Format::kHicoo, 0, ts_cost, [&] {
                     ts_values(TsOp::kMul, hx.values().data(),
                               hz.values().data(), nnz, kScalar);
                 });
            if (check)
                rec.untimed([&] {
                    rec.outcome.check(
                        validate::diff_ts(TsOp::kMul, x.values().data(),
                                          kScalar, z.values().data(), nnz),
                        id + " TS/COO");
                    rec.outcome.check(
                        validate::diff_ts(TsOp::kMul, hx.values().data(),
                                          kScalar, hz.values().data(),
                                          nnz),
                        id + " TS/HiCOO");
                });
        }

        // ---- TTV / TTM / MTTKRP over every mode ----
        for (Size mode = 0; mode < x.order(); ++mode) {
            // Each cell is checked once, on a mode the seed picks.
            const bool check_mode = check && mode == opts_.seed % x.order();
            const std::string at = id + " mode " + std::to_string(mode);
            DenseVector v;
            rec.timed("core.dense_init",
                      [&] { v = DenseVector::random(x.dim(mode), rng); });
            Size fibers = 0;
            {
                CooTtvPlan plan;
                rec.timed("kernels.plan.ttv.coo",
                          [&] { plan = ttv_plan_coo(x, mode); });
                fibers = plan.fibers.num_fibers();
                CooTensor out;
                rec.timed("core.dense_init", [&] { out = plan.out_pattern; });
                cell(rec, "kernels.exec.ttv.coo", id, Kernel::kTtv,
                     Format::kCoo, mode,
                     model_cost(Kernel::kTtv, Format::kCoo, x, fibers, 0,
                                rank_),
                     [&] { ttv_exec_coo(plan, v, out); });
                if (check_mode)
                    rec.untimed([&] {
                        rec.outcome.check(validate::diff_ttv(x, v, mode, out),
                                          at + " TTV/COO");
                    });
            }
            {
                HicooTtvPlan plan;
                rec.timed("kernels.plan.ttv.hicoo", [&] {
                    plan = ttv_plan_hicoo(x, mode, block_bits_);
                });
                HiCooTensor out;
                rec.timed("core.dense_init", [&] { out = plan.out_pattern; });
                cell(rec, "kernels.exec.ttv.hicoo", id, Kernel::kTtv,
                     Format::kHicoo, mode,
                     model_cost(Kernel::kTtv, Format::kHicoo, x, fibers, 0,
                                rank_),
                     [&] { ttv_exec_hicoo(plan, v, out); });
                if (check_mode)
                    rec.untimed([&] {
                        rec.outcome.check(
                            validate::diff_ttv(x, v, mode,
                                               hicoo_to_coo(out)),
                            at + " TTV/HiCOO");
                    });
            }
            const DenseMatrix& u = mats[mode];
            {
                CooTtmPlan plan;
                rec.timed("kernels.plan.ttm.coo",
                          [&] { plan = ttm_plan_coo(x, mode, rank_); });
                ScooTensor out;
                rec.timed("core.dense_init", [&] { out = plan.out_pattern; });
                cell(rec, "kernels.exec.ttm.coo", id, Kernel::kTtm,
                     Format::kCoo, mode,
                     model_cost(Kernel::kTtm, Format::kCoo, x, fibers, 0,
                                rank_),
                     [&] { ttm_exec_coo(plan, u, out); });
                if (check_mode)
                    rec.untimed([&] {
                        rec.outcome.check(validate::diff_ttm(x, u, mode, out),
                                          at + " TTM/COO");
                    });
            }
            {
                HicooTtmPlan plan;
                rec.timed("kernels.plan.ttm.hicoo", [&] {
                    plan = ttm_plan_hicoo(x, mode, rank_, block_bits_);
                });
                SHiCooTensor out;
                rec.timed("core.dense_init", [&] { out = plan.out_pattern; });
                cell(rec, "kernels.exec.ttm.hicoo", id, Kernel::kTtm,
                     Format::kHicoo, mode,
                     model_cost(Kernel::kTtm, Format::kHicoo, x, fibers, 0,
                                rank_),
                     [&] { ttm_exec_hicoo(plan, u, out); });
                if (check_mode)
                    rec.untimed([&] {
                        rec.outcome.check(
                            validate::diff_ttm(x, u, mode, out.to_scoo()),
                            at + " TTM/HiCOO");
                    });
            }
            for (Format format : {Format::kCoo, Format::kHicoo}) {
                const bool coo = format == Format::kCoo;
                DenseMatrix out;
                rec.timed("core.dense_init",
                          [&] { out = DenseMatrix(x.dim(mode), rank_); });
                const KernelCost cost =
                    model_cost(Kernel::kMttkrp, format, x, 0,
                               hx.num_blocks(), rank_);
                cell(rec,
                     coo ? "kernels.exec.mttkrp.coo"
                         : "kernels.exec.mttkrp.hicoo",
                     id, Kernel::kMttkrp, format, mode, cost, [&] {
                         if (coo)
                             mttkrp_coo(x, factors, mode, out);
                         else
                             mttkrp_hicoo(hx, factors, mode, out);
                     });
                if (check) {
                    rec.metrics["kernels.mttkrp_out_mb"] +=
                        static_cast<double>(out.storage_bytes()) / 1048576.0;
                    rec.metrics["kernels.mttkrp_nnz_mb"] +=
                        cost.bytes / 1048576.0;
                }
                if (check_mode)
                    rec.untimed([&] {
                        rec.outcome.check(
                            diff_mttkrp_touched(x, factors, mode, out),
                            at + (coo ? " MTTKRP/COO" : " MTTKRP/HiCOO"));
                    });
            }
        }
    }

    const Options& opts_;
    double scale_;
    Size rank_;
    unsigned block_bits_;
    int calls_;
    std::vector<Input> inputs_;
};

}  // namespace

std::unique_ptr<Workload>
make_suite_fig4(const Options& opts)
{
    return std::make_unique<SuiteFig4>(opts);
}

}  // namespace e2e
