#include "kernels/ttv.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

namespace {

/// Dims of `x` with `mode` contracted away; checks the plan arguments.
std::vector<Index>
ttv_out_dims(const CooTensor& x, Size mode)
{
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(x.order() >= 2, "TTV needs an order >= 2 tensor");
    std::vector<Index> dims = x.dims();
    dims.erase(dims.begin() + static_cast<std::ptrdiff_t>(mode));
    return dims;
}

/// The TTV fiber loop of both formats: y[f] is fiber f's gather-dot with
/// `v`.  Each output value is written by one worker.
void
ttv_fibers(const FiberArrays& a, const DenseVector& v, Size out_nnz,
           Value* y)
{
    PASTA_CHECK_MSG(v.size() == a.extent, "vector length "
                                              << v.size()
                                              << " != mode extent "
                                              << a.extent);
    PASTA_CHECK_MSG(out_nnz == a.num_fibers, "output nnz mismatch");
    if (obs::counters_enabled()) {
        obs::counter("ttv.flops").add(2 * a.nnz);
        obs::counter("ttv.bytes").add(12 * a.nnz + 12 * a.num_fibers);
    }
    const Value* xv = a.values;
    const Index* kind = a.indices;
    const Size* fptr = a.fptr;
    const Value* vv = v.data();
    const simd::Isa isa = simd::note_kernel();
    parallel_for(
        0, a.num_fibers, Schedule::kDynamic,
        [&](Size f) {
            const Size first = fptr[f];
            y[f] = simd::vdot_gather(isa, xv + first, kind + first, vv,
                                     fptr[f + 1] - first);
        },
        64);
}

}  // namespace

CooTtvPlan
ttv_plan_coo(const CooTensor& x, Size mode)
{
    std::vector<Index> out_dims = ttv_out_dims(x, mode);
    PASTA_SPAN("plan.ttv_coo");
    CooTtvPlan plan;
    plan.fibers = FiberView(x, mode);
    plan.out_pattern = CooTensor(std::move(out_dims));
    const CooBulkFill out =
        plan.out_pattern.bulk_fill(plan.fibers.num_fibers());
    plan.fibers.copy_heads(out.modes);
    std::fill_n(out.values, out.nnz, Value{0});
    return plan;
}

void
ttv_exec_coo(const CooTtvPlan& plan, const DenseVector& v, CooTensor& out)
{
    ttv_fibers(plan.fibers.arrays(), v, out.nnz(), out.values().data());
}

CooTensor
ttv_coo(const CooTensor& x, const DenseVector& v, Size mode)
{
    CooTtvPlan plan = ttv_plan_coo(x, mode);
    CooTensor out = plan.out_pattern;
    ttv_exec_coo(plan, v, out);
    return out;
}

HicooTtvPlan
ttv_plan_hicoo(const CooTensor& x, Size mode, unsigned block_bits)
{
    std::vector<Index> out_dims = ttv_out_dims(x, mode);
    PASTA_SPAN("plan.ttv_hicoo");
    HicooTtvPlan plan;
    plan.fibers = GFiberView(x, mode, block_bits);
    plan.out_pattern = HiCooTensor(std::move(out_dims), block_bits);
    plan.fibers.copy_heads(plan.out_pattern.bulk_fill(
        plan.fibers.tensor().num_blocks(), plan.fibers.num_fibers()));
    return plan;
}

void
ttv_exec_hicoo(const HicooTtvPlan& plan, const DenseVector& v,
               HiCooTensor& out)
{
    ttv_fibers(plan.fibers.arrays(), v, out.nnz(), out.values().data());
}

HiCooTensor
ttv_hicoo(const CooTensor& x, const DenseVector& v, Size mode,
          unsigned block_bits)
{
    HicooTtvPlan plan = ttv_plan_hicoo(x, mode, block_bits);
    HiCooTensor out = plan.out_pattern;
    ttv_exec_hicoo(plan, v, out);
    return out;
}

}  // namespace pasta
