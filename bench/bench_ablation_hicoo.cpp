/// \file
/// Design-choice ablations called out in DESIGN.md §3:
///   1. HiCOO block size B sweep (storage + MTTKRP time; paper fixes 128),
///   2. gHiCOO: compressing vs. not compressing the product mode for TTV,
///   3. COO sort order (lexicographic vs. Morton) effect on MTTKRP,
///   4. MTTKRP output protection in COO and HiCOO (atomic, privatized,
///      sequential, and the contention policy's pick).
/// Times are the fastest of PASTA_RUNS calls (RunStats::min_seconds), so
/// one descheduled call cannot set a row.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/convert.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/ttv.hpp"

using namespace pasta;

namespace {

void
ablate_block_size(const CooTensor& x, const FactorList& factors,
                  Size rank, Size runs)
{
    std::printf("\n== Ablation 1: HiCOO block size (paper fixes B=128) "
                "==\n");
    std::printf("%6s %12s %10s %14s %14s\n", "B", "storage KB", "blocks",
                "nnz/block", "MTTKRP min ms");
    DenseMatrix out(x.dim(0), rank);
    for (unsigned bits = 2; bits <= 8; ++bits) {
        const HiCooTensor h = coo_to_hicoo(x, bits);
        const RunStats t = timed_runs(
            [&] { mttkrp_hicoo(h, factors, 0, out); }, runs);
        std::printf("%6u %12.1f %10zu %14.2f %14.3f\n", 1u << bits,
                    h.storage_bytes() / 1024.0, h.num_blocks(),
                    h.mean_block_nnz(), t.min_seconds * 1e3);
    }
}

void
ablate_ghicoo_mode_choice(const CooTensor& x, Size runs,
                          unsigned block_bits)
{
    std::printf("\n== Ablation 2: gHiCOO product-mode compression for "
                "TTV ==\n");
    std::printf("(leaving the product mode uncompressed is what lets "
                "HiCOO-TTV run race-free; compare storage)\n");
    std::printf("%-28s %12s %10s\n", "variant", "storage KB", "TTV min ms");
    Rng rng(3);
    const Size mode = x.order() - 1;
    DenseVector v = DenseVector::random(x.dim(mode), rng);
    {
        HicooTtvPlan plan = ttv_plan_hicoo(x, mode, block_bits);
        HiCooTensor out = plan.out_pattern;
        const RunStats t = timed_runs(
            [&] { ttv_exec_hicoo(plan, v, out); }, runs);
        std::printf("%-28s %12.1f %10.3f\n",
                    "product mode uncompressed",
                    plan.fibers.tensor().storage_bytes() / 1024.0,
                    t.min_seconds * 1e3);
    }
    {
        // All modes compressed: storage of the full HiCOO form (TTV then
        // requires block-aware decoding; we report the storage trade).
        const HiCooTensor h = coo_to_hicoo(x, block_bits);
        std::printf("%-28s %12.1f %10s\n", "all modes compressed",
                    h.storage_bytes() / 1024.0, "n/a");
    }
    std::printf("%-28s %12.1f\n", "plain COO",
                x.storage_bytes() / 1024.0);
}

void
ablate_sort_order(const CooTensor& x, const FactorList& factors, Size rank,
                  Size runs)
{
    std::printf("\n== Ablation 3: COO non-zero ordering for MTTKRP ==\n");
    std::printf("%-16s %14s\n", "ordering", "MTTKRP min ms");
    DenseMatrix out(x.dim(0), rank);
    {
        CooTensor lex = x;
        lex.sort_lexicographic();
        const RunStats t = timed_runs(
            [&] { mttkrp_coo(lex, factors, 0, out); }, runs);
        std::printf("%-16s %14.3f\n", "lexicographic",
                    t.min_seconds * 1e3);
    }
    {
        CooTensor morton = x;
        morton.sort_morton(7);
        const RunStats t = timed_runs(
            [&] { mttkrp_coo(morton, factors, 0, out); }, runs);
        std::printf("%-16s %14.3f\n", "morton(B=128)",
                    t.min_seconds * 1e3);
    }
}

void
ablate_output_protection(const CooTensor& x, const FactorList& factors,
                         Size rank, Size runs, unsigned block_bits)
{
    // §III-D: the reference suite uses atomics and skips privatization;
    // quantify what that choice costs (or saves) in both formats, next to
    // what the one contention policy (mttkrp_contention) picks.
    std::printf("\n== Ablation 4: MTTKRP output protection ==\n");
    std::printf("%-6s %-24s %14s\n", "format", "strategy", "MTTKRP min ms");
    const HiCooTensor h = coo_to_hicoo(x, block_bits);
    DenseMatrix out(x.dim(0), rank);
    const auto row = [&](const char* format, const std::string& strategy,
                         auto&& call) {
        const RunStats t = timed_runs(call, runs);
        std::printf("%-6s %-24s %14.3f\n", format, strategy.c_str(),
                    t.min_seconds * 1e3);
    };
    row("COO", "atomic", [&] { mttkrp_coo_atomic(x, factors, 0, out); });
    row("COO", "privatized",
        [&] { mttkrp_coo_privatized(x, factors, 0, out); });
    row("COO", "sequential", [&] { mttkrp_coo_seq(x, factors, 0, out); });
    const auto policy = [](MttkrpVariant pick) {
        return std::string("policy: ") + mttkrp_variant_name(pick);
    };
    row("COO", policy(mttkrp_coo(x, factors, 0, out)),
        [&] { mttkrp_coo(x, factors, 0, out); });
    row("HiCOO", "atomic", [&] { mttkrp_hicoo_atomic(h, factors, 0, out); });
    row("HiCOO", "privatized",
        [&] { mttkrp_hicoo_privatized(h, factors, 0, out); });
    row("HiCOO", policy(mttkrp_hicoo(h, factors, 0, out)),
        [&] { mttkrp_hicoo(h, factors, 0, out); });
}

}  // namespace

int
main()
{
    const bench::BenchOptions options = bench::options_from_env();
    std::printf("HiCOO design ablations, scale %g\n", options.scale);
    const CooTensor x =
        synthesize_dataset(find_dataset("irrM"), options.scale);
    std::printf("tensor: %s\n", x.describe().c_str());

    Rng rng(1);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), options.rank, rng));
    FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);

    ablate_block_size(x, factors, options.rank, options.runs);
    ablate_ghicoo_mode_choice(x, options.runs, options.block_bits);
    ablate_sort_order(x, factors, options.rank, options.runs);
    ablate_output_protection(x, factors, options.rank, options.runs,
                             options.block_bits);
    return 0;
}
