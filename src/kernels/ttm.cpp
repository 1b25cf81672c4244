#include "kernels/ttm.hpp"

#include "common/error.hpp"
#include "core/convert.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

CooTtmPlan
ttm_plan_coo(const CooTensor& x, Size mode, Size rank)
{
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(x.order() >= 2, "TTM needs an order >= 2 tensor");
    PASTA_CHECK_MSG(rank > 0, "rank must be positive");

    PASTA_SPAN("plan.ttm_coo");
    CooTtmPlan plan;
    plan.mode = mode;
    plan.rank = rank;
    plan.sorted = x;
    plan.sorted.sort_fibers_last(mode);
    plan.fibers = compute_fibers(plan.sorted, mode);

    std::vector<Index> out_dims = x.dims();
    out_dims[mode] = static_cast<Index>(rank);
    plan.out_pattern = ScooTensor(out_dims, {mode});
    std::vector<const Index*> src;
    for (Size m = 0; m < x.order(); ++m)
        if (m != mode)
            src.push_back(plan.sorted.mode_indices(m).data());
    // Bulk stripe materialization: one stripe per fiber, sparse
    // coordinates filled in parallel from the fiber heads.
    const Size num_fibers = plan.fibers.num_fibers();
    ScooBulkFill out = plan.out_pattern.bulk_fill_stripes(num_fibers);
    const auto& fptr = plan.fibers.fptr;
    parallel_for_ranges(0, num_fibers, [&](Size first, Size last) {
        for (Size f = first; f < last; ++f) {
            const Size head = fptr[f];
            for (Size s = 0; s < src.size(); ++s)
                out.sparse[s][f] = src[s][head];
        }
    });
    return plan;
}

void
ttm_exec_coo(const CooTtmPlan& plan, const DenseMatrix& u, ScooTensor& out)
{
    PASTA_CHECK_MSG(u.rows() == plan.sorted.dim(plan.mode),
                    "matrix rows " << u.rows() << " != mode extent "
                                   << plan.sorted.dim(plan.mode));
    PASTA_CHECK_MSG(u.cols() == plan.rank, "matrix rank mismatch");
    PASTA_CHECK_MSG(out.num_sparse() == plan.fibers.num_fibers(),
                    "output stripe count mismatch");
    if (obs::counters_enabled()) {
        const Size m = plan.sorted.nnz();
        const Size mf = plan.fibers.num_fibers();
        const Size r = plan.rank;
        obs::counter("ttm.flops").add(2 * m * r);
        obs::counter("ttm.bytes").add(4 * m * r + 4 * mf * r + 8 * m +
                                      16 * mf);
    }
    const Value* xv = plan.sorted.values().data();
    const Index* kind = plan.sorted.mode_indices(plan.mode).data();
    const auto& fptr = plan.fibers.fptr;
    const Size rank = plan.rank;
    const simd::Isa isa = simd::note_kernel();
    parallel_for(
        0, plan.fibers.num_fibers(), Schedule::kDynamic,
        [&](Size f) {
            Value* yb = out.stripe(f);
            simd::vfill(isa, yb, 0, rank);
            for (Size p = fptr[f]; p < fptr[f + 1]; ++p)
                simd::vaxpy(isa, yb, xv[p], u.row(kind[p]), rank);
        },
        16);
}

ScooTensor
ttm_coo(const CooTensor& x, const DenseMatrix& u, Size mode)
{
    CooTtmPlan plan = ttm_plan_coo(x, mode, u.cols());
    ScooTensor out = plan.out_pattern;
    ttm_exec_coo(plan, u, out);
    return out;
}

HicooTtmPlan
ttm_plan_hicoo(const CooTensor& x, Size mode, Size rank,
               unsigned block_bits)
{
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(x.order() >= 2, "TTM needs an order >= 2 tensor");
    PASTA_CHECK_MSG(rank > 0, "rank must be positive");

    PASTA_SPAN("plan.ttm_hicoo");
    HicooTtmPlan plan;
    plan.mode = mode;
    plan.rank = rank;
    std::vector<bool> compressed(x.order(), true);
    compressed[mode] = false;
    plan.input = coo_to_ghicoo(x, compressed, block_bits);
    const GHiCooTensor& g = plan.input;

    std::vector<Index> out_dims = x.dims();
    out_dims[mode] = static_cast<Index>(rank);
    plan.out_pattern = SHiCooTensor(out_dims, {mode}, block_bits);

    std::vector<BIndex> out_block(g.compressed_modes().size());
    std::vector<EIndex> out_elem(g.compressed_modes().size());
    for (Size b = 0; b < g.num_blocks(); ++b) {
        Size s = 0;
        for (Size m : g.compressed_modes())
            out_block[s++] = g.block_index(m, b);
        plan.out_pattern.append_block(out_block.data());
        Size prev = kNoMode;
        for (Size p = g.bptr()[b]; p < g.bptr()[b + 1]; ++p) {
            bool boundary = (p == g.bptr()[b]);
            if (!boundary) {
                for (Size m : g.compressed_modes()) {
                    if (g.element_index(m, p) != g.element_index(m, prev)) {
                        boundary = true;
                        break;
                    }
                }
            }
            if (boundary) {
                plan.fptr.push_back(p);
                Size t = 0;
                for (Size m : g.compressed_modes())
                    out_elem[t++] = g.element_index(m, p);
                plan.out_pattern.append_entry(out_elem.data());
            }
            prev = p;
        }
    }
    plan.fptr.push_back(g.nnz());
    return plan;
}

void
ttm_exec_hicoo(const HicooTtmPlan& plan, const DenseMatrix& u,
               SHiCooTensor& out)
{
    const GHiCooTensor& g = plan.input;
    PASTA_CHECK_MSG(u.rows() == g.dim(plan.mode), "matrix rows mismatch");
    PASTA_CHECK_MSG(u.cols() == plan.rank, "matrix rank mismatch");
    const Size num_fibers = plan.fptr.size() - 1;
    PASTA_CHECK_MSG(out.num_sparse() == num_fibers,
                    "output stripe count mismatch");
    if (obs::counters_enabled()) {
        const Size m = g.nnz();
        const Size r = plan.rank;
        obs::counter("ttm.flops").add(2 * m * r);
        obs::counter("ttm.bytes").add(4 * m * r + 4 * num_fibers * r +
                                      8 * m + 8 * num_fibers);
    }
    const Value* xv = g.values().data();
    const Index* kind = g.raw_indices(plan.mode).data();
    const auto& fptr = plan.fptr;
    const Size rank = plan.rank;
    const simd::Isa isa = simd::note_kernel();
    parallel_for(
        0, num_fibers, Schedule::kDynamic,
        [&](Size f) {
            Value* yb = out.stripe(f);
            simd::vfill(isa, yb, 0, rank);
            for (Size p = fptr[f]; p < fptr[f + 1]; ++p)
                simd::vaxpy(isa, yb, xv[p], u.row(kind[p]), rank);
        },
        16);
}

SHiCooTensor
ttm_hicoo(const CooTensor& x, const DenseMatrix& u, Size mode,
          unsigned block_bits)
{
    HicooTtmPlan plan = ttm_plan_hicoo(x, mode, u.cols(), block_bits);
    SHiCooTensor out = plan.out_pattern;
    ttm_exec_hicoo(plan, u, out);
    return out;
}

}  // namespace pasta
