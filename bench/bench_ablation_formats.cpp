/// \file
/// Format-extension ablations: the CSF format the paper schedules as the
/// next suite addition (§VII) compared against COO/HiCOO/gHiCOO, and the
/// index-reordering effect on HiCOO block density and MTTKRP time that
/// Table I's "data reuse ... from reordering techniques" remark predicts.
/// Times are the fastest of PASTA_RUNS calls (RunStats::min_seconds), so
/// one descheduled call cannot set a row.
#include <cstdio>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/convert.hpp"
#include "core/csf_tensor.hpp"
#include "core/reorder.hpp"
#include "kernels/csf_kernels.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/ttv.hpp"

using namespace pasta;

namespace {

void
compare_formats(const std::string& name, const CooTensor& x, Size rank,
                Size runs, unsigned block_bits)
{
    std::printf("\n== formats on %s (%s) ==\n", name.c_str(),
                x.describe().c_str());
    Rng rng(1);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), rank, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);
    DenseMatrix out(x.dim(0), rank);
    DenseVector v = DenseVector::random(x.dim(x.order() - 1), rng);

    std::printf("%-10s %12s %16s %16s\n", "format", "storage KB",
                "MTTKRP(0) min ms", "TTV(last) min ms");
    {
        CooTtvPlan plan = ttv_plan_coo(x, x.order() - 1);
        CooTensor tout = plan.out_pattern;
        const RunStats tm = timed_runs(
            [&] { mttkrp_coo(x, factors, 0, out); }, runs);
        const RunStats tv = timed_runs(
            [&] { ttv_exec_coo(plan, v, tout); }, runs);
        std::printf("%-10s %12.1f %16.3f %16.3f\n", "COO",
                    x.storage_bytes() / 1024.0, tm.min_seconds * 1e3,
                    tv.min_seconds * 1e3);
    }
    {
        const HiCooTensor h = coo_to_hicoo(x, block_bits);
        HicooTtvPlan plan =
            ttv_plan_hicoo(x, x.order() - 1, block_bits);
        HiCooTensor tout = plan.out_pattern;
        const RunStats tm = timed_runs(
            [&] { mttkrp_hicoo(h, factors, 0, out); }, runs);
        const RunStats tv = timed_runs(
            [&] { ttv_exec_hicoo(plan, v, tout); }, runs);
        std::printf("%-10s %12.1f %16.3f %16.3f\n", "HiCOO",
                    h.storage_bytes() / 1024.0, tm.min_seconds * 1e3,
                    tv.min_seconds * 1e3);
    }
    {
        // CSF rooted at mode 0 for MTTKRP; leaf-ordered for TTV.
        const CsfTensor c = CsfTensor::from_coo(x);
        const RunStats tm = timed_runs(
            [&] { mttkrp_csf(c, factors, 0, out); }, runs);
        const RunStats tv = timed_runs(
            [&] {
                CooTensor r = ttv_csf(c, v, x.order() - 1);
                (void)r;
            },
            runs);
        std::printf("%-10s %12.1f %16.3f %16.3f\n", "CSF",
                    c.storage_bytes() / 1024.0, tm.min_seconds * 1e3,
                    tv.min_seconds * 1e3);
    }
    {
        std::vector<bool> mask(x.order(), true);
        mask[x.order() - 1] = false;
        const GHiCooTensor g = coo_to_ghicoo(x, mask, block_bits);
        std::printf("%-10s %12.1f %16s %16s\n", "gHiCOO",
                    g.storage_bytes() / 1024.0, "-", "-");
    }
}

void
reorder_ablation(const std::string& name, const CooTensor& x, Size rank,
                 Size runs, unsigned block_bits)
{
    std::printf("\n== reordering on %s ==\n", name.c_str());
    std::printf("%-10s %10s %14s %14s\n", "labeling", "blocks",
                "HiCOO KB", "MTTKRP min ms");
    Rng rng(2);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), rank, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);

    const struct {
        const char* label;
        CooTensor tensor;
    } variants[] = {
        {"original", x},
        {"random",
         [&] {
             CooTensor t = x;
             for (Size m = 0; m < x.order(); ++m) {
                 Rng r2(100 + m);
                 t = relabel_mode(t, m, random_relabeling(x.dim(m), r2));
             }
             return t;
         }()},
        {"degree", degree_reorder(x)},
    };
    for (const auto& variant : variants) {
        const HiCooTensor h = coo_to_hicoo(variant.tensor, block_bits);
        DenseMatrix out(x.dim(0), rank);
        const RunStats tm = timed_runs(
            [&] { mttkrp_hicoo(h, factors, 0, out); }, runs);
        std::printf("%-10s %10zu %14.1f %14.3f\n", variant.label,
                    h.num_blocks(), h.storage_bytes() / 1024.0,
                    tm.min_seconds * 1e3);
    }
}

}  // namespace

int
main()
{
    const bench::BenchOptions options = bench::options_from_env();
    std::printf("format extension ablations (CSF + reordering), "
                "scale %g\n",
                options.scale);
    for (const char* id : {"regS", "irrM", "choa"}) {
        const CooTensor x =
            synthesize_dataset(find_dataset(id), options.scale);
        compare_formats(id, x, options.rank, options.runs,
                        options.block_bits);
        reorder_ablation(id, x, options.rank, options.runs,
                         options.block_bits);
    }
    return 0;
}
