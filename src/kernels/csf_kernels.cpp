#include "kernels/csf_kernels.hpp"

#include <vector>

#include "common/error.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

namespace {

/// Recursive SPLATT-style accumulation for one subtree.
///
/// Computes, for the subtree rooted at node `id` of level `level`, the
/// R-vector
///   acc(r) = sum over leaves under id of value * prod over levels
///            below `level` of U^(mode at that level)(idx, r)
/// i.e. the Khatri-Rao partial product of everything strictly below
/// this node.
void
accumulate_subtree(const CsfTensor& x, const FactorList& factors,
                   Size level, Size id, Value* acc, Size rank,
                   Value* scratch, simd::Isa isa)
{
    const Size n = x.order();
    if (level + 1 == n) {
        // Leaf: value times the leaf mode's factor row.
        const Value* row =
            factors[x.mode_order()[level]]->row(x.level(level).idx[id]);
        simd::vscale(isa, acc, row, x.values()[id], rank);
        return;
    }
    simd::vfill(isa, acc, 0, rank);
    Value* child_acc = scratch + level * rank;
    const Size child_first = x.level(level).ptr[id];
    const Size child_last = x.level(level).ptr[id + 1];
    const CsfLevel& child_level = x.level(level + 1);
    const DenseMatrix* child_factor =
        level + 2 < n ? factors[x.mode_order()[level + 1]] : nullptr;
    for (Size child = child_first; child < child_last; ++child) {
        accumulate_subtree(x, factors, level + 1, child, child_acc, rank,
                           scratch, isa);
        if (child_factor == nullptr) {
            // Child is a leaf: child_acc already includes its factor row.
            simd::vadd_inplace(isa, acc, child_acc, rank);
        } else {
            simd::vfma_rows(isa, acc, child_acc,
                            child_factor->row(child_level.idx[child]),
                            rank);
        }
    }
}

/// Per-worker accumulation scratch, reused across every fiber a worker
/// processes: one allocation per thread for the whole kernel instead of
/// one per tree root inside the parallel body.
Value*
csf_worker_scratch(Size needed)
{
    static thread_local std::vector<Value> buf;
    if (buf.size() < needed)
        buf.resize(needed);
    return buf.data();
}

}  // namespace

void
mttkrp_csf(const CsfTensor& x, const FactorList& factors, Size mode,
           DenseMatrix& out)
{
    const Size rank = check_factors(x.dims(), factors);
    PASTA_CHECK_MSG(mode < x.order(), "mode out of range");
    PASTA_CHECK_MSG(!x.mode_order().empty() && x.mode_order()[0] == mode,
                    "CSF MTTKRP requires a tree rooted at the output "
                    "mode; this tree is rooted at mode "
                        << (x.mode_order().empty() ? kNoMode
                                                   : x.mode_order()[0]));
    PASTA_CHECK_MSG(out.rows() == x.dim(mode) && out.cols() == rank,
                    "output matrix shape mismatch");
    out.fill(0);
    if (x.nnz() == 0)
        return;

    const Size n = x.order();
    const simd::Isa isa = simd::note_kernel();
    parallel_for(
        0, x.level_size(0), Schedule::kDynamic,
        [&](Size root) {
            // Each root owns one distinct output row: race-free.
            // Layout of the worker scratch: n*rank child accumulators
            // followed by the rank-wide root accumulator.
            Value* scratch = csf_worker_scratch((n + 1) * rank);
            Value* acc = scratch + n * rank;
            if (n == 1) {
                // Degenerate order-1 MTTKRP: out(i, r) += value.
                Value* out_row = out.row(x.level(0).idx[root]);
                for (Size r = 0; r < rank; ++r)
                    out_row[r] += x.values()[root];
                return;
            }
            accumulate_subtree(x, factors, 0, root, acc, rank, scratch,
                               isa);
            // acc holds sum over children c of (subtree(c) * U(idx_c)):
            // accumulate_subtree at level 0 already applied the level-1
            // factor rows, so acc is the full Khatri-Rao partial.
            Value* out_row = out.row(x.level(0).idx[root]);
            simd::vadd_inplace(isa, out_row, acc, rank);
        },
        8);
}

CooTensor
ttv_csf(const CsfTensor& x, const DenseVector& v, Size mode)
{
    const Size n = x.order();
    PASTA_CHECK_MSG(n >= 2, "TTV needs an order >= 2 tensor");
    PASTA_CHECK_MSG(mode < n, "mode out of range");
    PASTA_CHECK_MSG(x.mode_order().back() == mode,
                    "CSF TTV requires a tree with the product mode at "
                    "the leaves");
    PASTA_CHECK_MSG(v.size() == x.dim(mode), "vector length mismatch");

    // Output dims: original dims minus the contracted mode.
    std::vector<Index> out_dims;
    for (Size m = 0; m < n; ++m)
        if (m != mode)
            out_dims.push_back(x.dim(m));
    CooTensor out(out_dims);
    if (x.nnz() == 0)
        return out;

    // One output non-zero per level-(n-2) node.  Reconstruct each node's
    // ancestor path to recover the full output coordinate.
    const Size fibers = x.level_size(n - 2);
    out.resize_nnz(fibers);

    // Parent pointers per level for coordinate reconstruction.
    std::vector<std::vector<Size>> parent(n);
    for (Size l = 0; l + 1 < n; ++l) {
        parent[l + 1].resize(x.level_size(l + 1));
        for (Size id = 0; id < x.level_size(l); ++id)
            for (Size c = x.level(l).ptr[id]; c < x.level(l).ptr[id + 1];
                 ++c)
                parent[l + 1][c] = id;
    }

    // Output mode slot for each retained level.
    std::vector<Size> out_slot(n, kNoMode);
    {
        // The output coordinate order follows the original mode
        // numbering with `mode` removed.
        std::vector<Size> remaining;
        for (Size m = 0; m < n; ++m)
            if (m != mode)
                remaining.push_back(m);
        for (Size l = 0; l + 1 < n; ++l) {
            const Size orig_mode = x.mode_order()[l];
            for (Size s = 0; s < remaining.size(); ++s)
                if (remaining[s] == orig_mode)
                    out_slot[l] = s;
        }
    }

    const Value* xv = x.values().data();
    const Index* leaf_idx = x.level(n - 1).idx.data();
    const Value* vv = v.data();
    const simd::Isa isa = simd::note_kernel();
    parallel_for(
        0, fibers, Schedule::kDynamic,
        [&](Size f) {
            const Size first = x.level(n - 2).ptr[f];
            const Size last = x.level(n - 2).ptr[f + 1];
            out.values()[f] = simd::vdot_gather(
                isa, xv + first, leaf_idx + first, vv, last - first);
            // Walk ancestors to fill the output coordinate.
            Size id = f;
            for (Size l = n - 1; l-- > 0;) {
                out.mode_indices(out_slot[l])[f] = x.level(l).idx[id];
                if (l > 0)
                    id = parent[l][id];
            }
        },
        64);
    out.sort_lexicographic();
    return out;
}

}  // namespace pasta
