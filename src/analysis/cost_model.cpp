#include "analysis/cost_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/convert.hpp"
#include "core/fibers.hpp"

namespace pasta {

const char*
kernel_name(Kernel k)
{
    switch (k) {
      case Kernel::kTew: return "TEW";
      case Kernel::kTs: return "TS";
      case Kernel::kTtv: return "TTV";
      case Kernel::kTtm: return "TTM";
      case Kernel::kMttkrp: return "MTTKRP";
    }
    return "?";
}

const char*
format_name(Format f)
{
    return f == Format::kCoo ? "COO" : "HiCOO";
}

TensorStats
compute_stats(const CooTensor& x, Size mode, unsigned block_bits)
{
    TensorStats stats;
    stats.order = x.order();
    stats.nnz = x.nnz();
    stats.block_size = Index{1} << block_bits;
    if (mode != kNoMode)
        stats.num_fibers = FiberView(x, mode).num_fibers();
    stats.num_blocks = coo_to_hicoo(x, block_bits).num_blocks();
    return stats;
}

KernelCost
kernel_cost(Kernel kernel, Format format, const TensorStats& stats,
            Size rank)
{
    PASTA_CHECK_MSG(stats.order >= 1 && stats.nnz >= 1,
                    "cost model needs a non-empty tensor");
    const double m = static_cast<double>(stats.nnz);
    const double mf = static_cast<double>(stats.num_fibers);
    const double nb = static_cast<double>(stats.num_blocks);
    const double n = static_cast<double>(stats.order);
    const double r = static_cast<double>(rank);
    const double block = static_cast<double>(stats.block_size);

    KernelCost cost;
    switch (kernel) {
      case Kernel::kTew:
        // Three value streams; identical for COO and HiCOO.
        cost.flops = m;
        cost.bytes = 12 * m;
        break;
      case Kernel::kTs:
        // Two value streams.
        cost.flops = m;
        cost.bytes = 8 * m;
        break;
      case Kernel::kTtv:
        PASTA_CHECK_MSG(stats.num_fibers > 0,
                        "TTV cost needs fiber stats");
        cost.flops = 2 * m;
        cost.bytes = 12 * m + 12 * mf;
        break;
      case Kernel::kTtm:
        PASTA_CHECK_MSG(stats.num_fibers > 0,
                        "TTM cost needs fiber stats");
        cost.flops = 2 * m * r;
        cost.bytes = format == Format::kCoo
                         ? 4 * m * r + 4 * mf * r + 8 * m + 16 * mf
                         : 4 * m * r + 4 * mf * r + 8 * m + 8 * mf;
        break;
      case Kernel::kMttkrp:
        cost.flops = n * m * r;
        if (format == Format::kCoo) {
            // Table I: 12MR + 16M at N=3 -> 4NMR + 4(N+1)M.
            cost.bytes = 4 * n * m * r + 4 * (n + 1) * m;
        } else {
            PASTA_CHECK_MSG(stats.num_blocks > 0,
                            "HiCOO MTTKRP cost needs block stats");
            // Table I: 12R min{n_b M_B, M} + 7M + 20 n_b at N=3
            //   -> 4NR min{n_b B, M} + (4+N)M + (4N+8) n_b.
            cost.bytes = 4 * n * r * std::min(nb * block, m) +
                         (4 + n) * m + (4 * n + 8) * nb;
        }
        break;
    }
    return cost;
}

double
gflops(double flops, double seconds)
{
    return seconds > 0 ? flops / seconds / 1e9 : 0.0;
}

}  // namespace pasta
