#include "kernels/ttv.hpp"

#include "common/error.hpp"
#include "core/convert.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

CooTtvPlan
ttv_plan_coo(const CooTensor& x, Size mode)
{
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(x.order() >= 2, "TTV needs an order >= 2 tensor");

    PASTA_SPAN("plan.ttv_coo");
    CooTtvPlan plan;
    plan.mode = mode;
    plan.sorted = x;
    plan.sorted.sort_fibers_last(mode);
    plan.fibers = compute_fibers(plan.sorted, mode);

    std::vector<Index> out_dims;
    std::vector<const Index*> src;
    for (Size m = 0; m < x.order(); ++m) {
        if (m != mode) {
            out_dims.push_back(x.dim(m));
            src.push_back(plan.sorted.mode_indices(m).data());
        }
    }
    // Bulk pattern materialization: one slot per fiber, filled in
    // parallel from the fiber heads — no per-element append.
    const Size num_fibers = plan.fibers.num_fibers();
    plan.out_pattern = CooTensor(std::move(out_dims));
    CooBulkFill out = plan.out_pattern.bulk_fill(num_fibers);
    const auto& fptr = plan.fibers.fptr;
    parallel_for_ranges(0, num_fibers, [&](Size first, Size last) {
        for (Size f = first; f < last; ++f) {
            const Size head = fptr[f];
            for (Size s = 0; s < src.size(); ++s)
                out.modes[s][f] = src[s][head];
            out.values[f] = 0;
        }
    });
    return plan;
}

void
ttv_exec_coo(const CooTtvPlan& plan, const DenseVector& v, CooTensor& out)
{
    PASTA_CHECK_MSG(v.size() == plan.sorted.dim(plan.mode),
                    "vector length " << v.size() << " != mode extent "
                                     << plan.sorted.dim(plan.mode));
    PASTA_CHECK_MSG(out.nnz() == plan.fibers.num_fibers(),
                    "output nnz mismatch");
    if (obs::counters_enabled()) {
        const Size m = plan.sorted.nnz();
        const Size mf = plan.fibers.num_fibers();
        obs::counter("ttv.flops").add(2 * m);
        obs::counter("ttv.bytes").add(12 * m + 12 * mf);
    }
    const Value* xv = plan.sorted.values().data();
    const Index* kind = plan.sorted.mode_indices(plan.mode).data();
    const Value* vv = v.data();
    Value* yv = out.values().data();
    const auto& fptr = plan.fibers.fptr;
    const simd::Isa isa = simd::note_kernel();
    parallel_for(
        0, plan.fibers.num_fibers(), Schedule::kDynamic,
        [&](Size f) {
            const Size first = fptr[f];
            const Size last = fptr[f + 1];
            yv[f] = simd::vdot_gather(isa, xv + first, kind + first, vv,
                                      last - first);
        },
        64);
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
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(x.order() >= 2, "TTV needs an order >= 2 tensor");

    PASTA_SPAN("plan.ttv_hicoo");
    HicooTtvPlan plan;
    plan.mode = mode;
    std::vector<bool> compressed(x.order(), true);
    compressed[mode] = false;
    plan.input = coo_to_ghicoo(x, compressed, block_bits);
    const GHiCooTensor& g = plan.input;

    // Fiber boundaries: a new fiber starts at each block boundary and
    // whenever any compressed element coordinate changes.
    plan.fptr.clear();
    std::vector<Index> out_dims;
    for (Size m = 0; m < x.order(); ++m)
        if (m != mode)
            out_dims.push_back(x.dim(m));
    plan.out_pattern = HiCooTensor(out_dims, block_bits);

    std::vector<BIndex> out_block(out_dims.size());
    std::vector<EIndex> out_elem(out_dims.size());
    for (Size b = 0; b < g.num_blocks(); ++b) {
        // Output block coordinates mirror the input block's compressed
        // coordinates.
        Size s = 0;
        for (Size m : g.compressed_modes())
            out_block[s++] = g.block_index(m, b);
        plan.out_pattern.append_block(out_block.data());
        Size prev = kNoMode;
        for (Size p = g.bptr()[b]; p < g.bptr()[b + 1]; ++p) {
            bool boundary = (p == g.bptr()[b]);
            if (!boundary) {
                for (Size m : g.compressed_modes()) {
                    if (g.element_index(m, p) !=
                        g.element_index(m, prev)) {
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
                plan.out_pattern.append_entry(out_elem.data(), 0);
            }
            prev = p;
        }
    }
    plan.fptr.push_back(g.nnz());
    return plan;
}

void
ttv_exec_hicoo(const HicooTtvPlan& plan, const DenseVector& v,
               HiCooTensor& out)
{
    const GHiCooTensor& g = plan.input;
    PASTA_CHECK_MSG(v.size() == g.dim(plan.mode),
                    "vector length mismatch");
    const Size num_fibers = plan.fptr.size() - 1;
    PASTA_CHECK_MSG(out.nnz() == num_fibers, "output nnz mismatch");
    if (obs::counters_enabled()) {
        obs::counter("ttv.flops").add(2 * g.nnz());
        obs::counter("ttv.bytes").add(12 * g.nnz() + 12 * num_fibers);
    }
    const Value* xv = g.values().data();
    const Index* kind = g.raw_indices(plan.mode).data();
    const Value* vv = v.data();
    Value* yv = out.values().data();
    const auto& fptr = plan.fptr;
    const simd::Isa isa = simd::note_kernel();
    parallel_for(
        0, num_fibers, Schedule::kDynamic,
        [&](Size f) {
            const Size first = fptr[f];
            const Size last = fptr[f + 1];
            yv[f] = simd::vdot_gather(isa, xv + first, kind + first, vv,
                                      last - first);
        },
        64);
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
