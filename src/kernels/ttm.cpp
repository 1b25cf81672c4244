#include "kernels/ttm.hpp"

#include "common/error.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

namespace {

/// Dims of `x` with `mode` replaced by the rank; checks the plan
/// arguments.
std::vector<Index>
ttm_out_dims(const CooTensor& x, Size mode, Size rank)
{
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(x.order() >= 2, "TTM needs an order >= 2 tensor");
    PASTA_CHECK_MSG(rank > 0, "rank must be positive");
    std::vector<Index> dims = x.dims();
    dims[mode] = static_cast<Index>(rank);
    return dims;
}

/// The TTM stripe loop of both formats: stripe f (the `rank` values at
/// y + f * rank) is the sum over fiber f of x[p] * u(k[p], :).  Table I
/// charges `fiber_bytes` per fiber for the fiber's output indices, which
/// is where the formats differ.
void
ttm_stripes(const FiberArrays& a, const DenseMatrix& u, Size rank,
            Size out_stripes, Value* y, Size fiber_bytes)
{
    PASTA_CHECK_MSG(u.rows() == a.extent, "matrix rows "
                                              << u.rows()
                                              << " != mode extent "
                                              << a.extent);
    PASTA_CHECK_MSG(u.cols() == rank, "matrix rank mismatch");
    PASTA_CHECK_MSG(out_stripes == a.num_fibers,
                    "output stripe count mismatch");
    if (obs::counters_enabled()) {
        const Size m = a.nnz;
        const Size mf = a.num_fibers;
        obs::counter("ttm.flops").add(2 * m * rank);
        obs::counter("ttm.bytes").add(4 * m * rank + 4 * mf * rank + 8 * m +
                                      fiber_bytes * mf);
    }
    const Value* xv = a.values;
    const Index* kind = a.indices;
    const Size* fptr = a.fptr;
    const simd::Isa isa = simd::note_kernel();
    parallel_for(
        0, a.num_fibers, Schedule::kDynamic,
        [&](Size f) {
            Value* yb = y + f * rank;
            simd::vfill(isa, yb, 0, rank);
            for (Size p = fptr[f]; p < fptr[f + 1]; ++p)
                simd::vaxpy(isa, yb, xv[p], u.row(kind[p]), rank);
        },
        16);
}

}  // namespace

CooTtmPlan
ttm_plan_coo(const CooTensor& x, Size mode, Size rank)
{
    std::vector<Index> out_dims = ttm_out_dims(x, mode, rank);
    PASTA_SPAN("plan.ttm_coo");
    CooTtmPlan plan;
    plan.rank = rank;
    plan.fibers = FiberView(x, mode);
    plan.out_pattern = ScooTensor(std::move(out_dims), {mode});
    plan.fibers.copy_heads(
        plan.out_pattern.bulk_fill_stripes(plan.fibers.num_fibers()).sparse);
    return plan;
}

void
ttm_exec_coo(const CooTtmPlan& plan, const DenseMatrix& u, ScooTensor& out)
{
    ttm_stripes(plan.fibers.arrays(), u, plan.rank, out.num_sparse(),
                out.values().data(), 16);
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
    std::vector<Index> out_dims = ttm_out_dims(x, mode, rank);
    PASTA_SPAN("plan.ttm_hicoo");
    HicooTtmPlan plan;
    plan.rank = rank;
    plan.fibers = GFiberView(x, mode, block_bits);
    plan.out_pattern = SHiCooTensor(std::move(out_dims), {mode}, block_bits);
    plan.fibers.copy_heads(plan.out_pattern.bulk_fill(
        plan.fibers.tensor().num_blocks(), plan.fibers.num_fibers()));
    return plan;
}

void
ttm_exec_hicoo(const HicooTtmPlan& plan, const DenseMatrix& u,
               SHiCooTensor& out)
{
    ttm_stripes(plan.fibers.arrays(), u, plan.rank, out.num_sparse(),
                out.values().data(), 8);
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
