#include "kernels/mttkrp.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/membudget.hpp"
#include "kernels/rank_scratch.hpp"
#include "obs/counters.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

Size
check_factors(const std::vector<Index>& dims, const FactorList& factors)
{
    PASTA_CHECK_MSG(factors.size() == dims.size(),
                    "expected " << dims.size() << " factor matrices, got "
                                << factors.size());
    PASTA_CHECK_MSG(!factors.empty(), "no factor matrices");
    const Size rank = factors[0]->cols();
    PASTA_CHECK_MSG(rank > 0, "factor rank must be positive");
    for (Size m = 0; m < dims.size(); ++m) {
        PASTA_CHECK_MSG(factors[m] != nullptr, "null factor matrix");
        PASTA_CHECK_MSG(factors[m]->cols() == rank,
                        "factor rank mismatch on mode " << m);
        PASTA_CHECK_MSG(factors[m]->rows() == dims[m],
                        "factor rows " << factors[m]->rows()
                                       << " != dim " << dims[m]
                                       << " on mode " << m);
    }
    return rank;
}

const char*
mttkrp_variant_name(MttkrpVariant v)
{
    switch (v) {
      case MttkrpVariant::kAtomic:
        return "atomic";
      case MttkrpVariant::kPrivatized:
        return "privatized";
      case MttkrpVariant::kBlockOwner:
        return "block-owner";
    }
    return "?";
}

namespace {

/// Cap on the total replicated-output footprint the privatized
/// schedule may allocate (values, not bytes): 2^24 floats = 64 MiB.
constexpr Size kPrivatizedBudgetValues = Size{1} << 24;

/// Validates the factors, `mode` and the output shape; returns the rank.
Size
check_mttkrp_args(const std::vector<Index>& dims, const FactorList& factors,
                  const DenseMatrix& out, Size mode)
{
    const Size rank = check_factors(dims, factors);
    PASTA_CHECK_MSG(mode < dims.size(), "mode out of range");
    PASTA_CHECK_MSG(out.rows() == dims[mode] && out.cols() == rank,
                    "output matrix shape mismatch");
    return rank;
}

/// Marks row `r` as written in a begin_accumulate() mask; concurrent
/// writers may mark the same row.
inline void
mark_row(std::uint8_t* mask, Size r)
{
    std::atomic_ref<std::uint8_t>(mask[r]).store(1,
                                                 std::memory_order_relaxed);
}

/// Table I COO-MTTKRP model counters (flops = NMR, bytes = 4NMR +
/// 4(N+1)M), recorded once per kernel invocation when counters are armed.
void
note_mttkrp_coo(Size order, Size nnz, Size rank)
{
    if (!obs::counters_enabled())
        return;
    const double n = static_cast<double>(order);
    const double m = static_cast<double>(nnz);
    const double r = static_cast<double>(rank);
    obs::counter("mttkrp.flops").add(
        static_cast<std::uint64_t>(n * m * r));
    obs::counter("mttkrp.bytes").add(
        static_cast<std::uint64_t>(4 * n * m * r + 4 * (n + 1) * m));
}

/// tmp = xval * prod of the non-mode factor rows of non-zero p.  The
/// first factor row folds the xval broadcast into a vscale; an order-1
/// tensor (no other modes) degenerates to the broadcast alone.
inline void
khatri_rao_row(simd::Isa isa, const CooTensor& x,
               const FactorList& factors, Size mode, Size order, Size p,
               Value xval, Value* tmp, Size rank)
{
    bool first = true;
    for (Size m = 0; m < order; ++m) {
        if (m == mode)
            continue;
        const Value* row = factors[m]->row(x.index(m, p));
        if (first) {
            simd::vscale(isa, tmp, row, xval, rank);
            first = false;
        } else {
            simd::vmul_accumulate(isa, tmp, row, rank);
        }
    }
    if (first)
        simd::vfill(isa, tmp, xval, rank);
}

}  // namespace

MttkrpVariant
mttkrp_contention(Index dim_mode, Size nnz, Size rank, int threads,
                  Size owner_groups)
{
    const Size t = static_cast<Size>(std::max(threads, 1));
    const Size dim = static_cast<Size>(dim_mode);
    // One worker owns every output tile: the owner schedule needs
    // neither copies nor atomics.
    if (owner_groups > 0 && t == 1)
        return MttkrpVariant::kBlockOwner;
    // The copies are not reserved with the memory governor, so it is
    // asked here: copies it would refuse route the call to a schedule
    // that allocates nothing.  The copies cost a reduce sweep over
    // threads x dim_mode rows, plus a zero pass when a copy is below
    // kDenseMapBytes (a mapped copy arrives zeroed and pays only its
    // first-touch faults), and the sweep overwrites every output row;
    // the atomic path (with run fusion) costs roughly one atomic set per
    // distinct output row per chunk, and zeroes only the rows its
    // previous call wrote.  Privatize only when the stream is dense
    // enough in output rows for the sweep to be clearly amortized.
    const Size copies = t * dim * rank;
    if (copies <= kPrivatizedBudgetValues &&
        membudget::would_fit(std::uint64_t{4} * copies) &&
        2 * t * dim <= nnz)
        return MttkrpVariant::kPrivatized;
    // Owner groups keep the workers busy only when there are enough of
    // them; with fewer, the dynamic loop serializes and atomics win back.
    if (owner_groups >= 2 * t)
        return MttkrpVariant::kBlockOwner;
    return MttkrpVariant::kAtomic;
}

MttkrpVariant
mttkrp_coo(const CooTensor& x, const FactorList& factors, Size mode,
           DenseMatrix& out)
{
    const Size rank = check_mttkrp_args(x.dims(), factors, out, mode);
    const MttkrpVariant pick = mttkrp_contention(x.dim(mode), x.nnz(), rank,
                                                 num_threads(), 0);
    obs::set_label("mttkrp.variant", mttkrp_variant_name(pick));
    note_mttkrp_coo(x.order(), x.nnz(), rank);
    if (pick == MttkrpVariant::kPrivatized)
        mttkrp_coo_privatized(x, factors, mode, out);
    else
        mttkrp_coo_atomic(x, factors, mode, out);
    return pick;
}

void
mttkrp_coo_atomic(const CooTensor& x, const FactorList& factors, Size mode,
                  DenseMatrix& out)
{
    const Size rank = check_mttkrp_args(x.dims(), factors, out, mode);
    std::uint8_t* mask = out.begin_accumulate();

    const Size order = x.order();
    const Value* xv = x.values().data();
    const Index* out_idx = x.mode_indices(mode).data();
    const simd::Isa isa = simd::note_kernel();
    // Runs of equal output index (ubiquitous when the stream is sorted
    // with `mode` leading, frequent otherwise) are accumulated locally
    // and flushed with one atomic set per run, not one per non-zero;
    // contiguous static ranges preserve the runs.  Correct for arbitrary
    // streams: an unsorted stream just flushes more often.
    parallel_for_ranges(0, x.nnz(), [&](Size first, Size last) {
        RankScratch acc_buf(rank);
        RankScratch tmp_buf(rank);
        Value* acc = acc_buf.data();
        Value* tmp = tmp_buf.data();
        Index run_row = 0;
        bool in_run = false;
        Size flushes = 0;
        const auto flush = [&] {
            ++flushes;
            mark_row(mask, run_row);
            Value* out_row = out.row(run_row);
            for (Size r = 0; r < rank; ++r)
                atomic_add(out_row + r, acc[r]);
        };
        for (Size p = first; p < last; ++p) {
            khatri_rao_row(isa, x, factors, mode, order, p, xv[p], tmp,
                           rank);
            if (in_run && out_idx[p] == run_row) {
                simd::vadd_inplace(isa, acc, tmp, rank);
            } else {
                if (in_run)
                    flush();
                run_row = out_idx[p];
                in_run = true;
                // The freshly computed row becomes the run accumulator;
                // the old accumulator is dead and will be fully
                // overwritten as the next tmp.
                std::swap(acc, tmp);
            }
        }
        if (in_run)
            flush();
        obs::add("mttkrp.atomics", flushes * rank);
        obs::add_worker("mttkrp.worker_items", worker_id(), last - first);
    });
    out.end_accumulate();
}

namespace {

/// Shared per-block body of the HiCOO kernels (Algorithm 3, line 3) over
/// the block's non-zeros [first, last): per-block factor base rows so the
/// inner loop decodes only 8-bit element offsets.  `add(row, acc)` is the
/// output-update policy for output row `row` — a vadd_inplace into an
/// owned tile or a private copy, per-element omp atomics for the
/// contended schedule — inlined via template, not dispatched.
template <typename AddFn>
inline void
hicoo_process_block(const HiCooTensor& x, const FactorList& factors,
                    Size mode, Size rank, Size b, Size first, Size last,
                    simd::Isa isa, Value* acc, AddFn add)
{
    const Size order = x.order();
    const unsigned bits = x.block_bits();
    const Value* xv = x.values().data();
    const Value* base[8];
    const Size out_first = static_cast<Size>(x.block_index(mode, b)) << bits;
    for (Size m = 0; m < order; ++m)
        base[m] = factors[m]->row(
            static_cast<Size>(x.block_index(m, b)) << bits);
    for (Size p = first; p < last; ++p) {
        const Value xval = xv[p];
        bool first_factor = true;
        for (Size m = 0; m < order; ++m) {
            if (m == mode)
                continue;
            const Value* row =
                base[m] + static_cast<Size>(x.element_index(m, p)) * rank;
            if (first_factor) {
                simd::vscale(isa, acc, row, xval, rank);
                first_factor = false;
            } else {
                simd::vmul_accumulate(isa, acc, row, rank);
            }
        }
        if (first_factor)
            simd::vfill(isa, acc, xval, rank);
        add(out_first + x.element_index(mode, p), acc);
    }
}

/// Table I HiCOO-MTTKRP model counters: flops = NMR, bytes = 4NR
/// min{n_b B, M} + (4+N)M + (4N+8) n_b.
void
note_mttkrp_hicoo(const HiCooTensor& x, Size rank)
{
    if (!obs::counters_enabled())
        return;
    const double n = static_cast<double>(x.order());
    const double m = static_cast<double>(x.nnz());
    const double r = static_cast<double>(rank);
    const double nb = static_cast<double>(x.num_blocks());
    const double block = static_cast<double>(x.block_size());
    obs::counter("mttkrp.flops").add(
        static_cast<std::uint64_t>(n * m * r));
    obs::counter("mttkrp.bytes").add(static_cast<std::uint64_t>(
        4 * n * r * std::min(nb * block, m) + (4 + n) * m +
        (4 * n + 8) * nb));
}

/// Block-owner HiCOO MTTKRP over `sched`: one thread owns every block of
/// a group, and a group's blocks are the only writers of its output
/// tile, so no atomics are needed.  The dynamic schedule absorbs the
/// group-size skew.
void
mttkrp_hicoo_owner(const HiCooTensor& x, const FactorList& factors,
                   Size mode, Size rank, const OwnerSchedule& sched,
                   DenseMatrix& out)
{
    note_mttkrp_hicoo(x, rank);
    std::uint8_t* mask = out.begin_accumulate();
    Value* dst = out.data();
    const simd::Isa isa = simd::note_kernel();
    const auto& bptr = x.bptr();
    const auto add = [=](Size i, const Value* row) {
        mark_row(mask, i);
        simd::vadd_inplace(isa, dst + i * rank, row, rank);
    };
    parallel_for(
        0, sched.groups(), Schedule::kDynamic,
        [&](Size g) {
            RankScratch acc(rank);
            Size items = 0;
            for (Size s = sched.group_ptr[g]; s < sched.group_ptr[g + 1];
                 ++s) {
                const Size b = sched.blocks[s];
                items += bptr[b + 1] - bptr[b];
                hicoo_process_block(x, factors, mode, rank, b, bptr[b],
                                    bptr[b + 1], isa, acc.data(), add);
            }
            obs::add_worker("mttkrp.worker_items", worker_id(), items);
        },
        1);
    out.end_accumulate();
}

/// The privatized schedule of both formats: each worker takes one
/// contiguous range of the non-zeros and runs `body(local, first, last)`,
/// which accumulates them into `local`, the worker's private +0 copy of
/// the output (rank columns).  Copies are keyed by worker id — chunk
/// identity would alias if the runtime delivered fewer threads than
/// requested.  A race-free parallel reduction over output rows then
/// overwrites every row: dst = private[0] + private[1] + ...  This is
/// bit-identical to adding the copies onto +0, as they start at +0 and
/// so never hold -0 (a round-to-nearest sum is -0 only when both terms
/// are).  The ranges and the summation order depend only on the thread
/// count, so the bits are fixed at a fixed thread count.
template <typename RangeFn>
void
mttkrp_privatized(Size nnz, Size rank, simd::Isa isa, DenseMatrix& out,
                  RangeFn body)
{
    const int threads = num_threads();
    std::vector<DenseMatrix> privates;
    privates.reserve(threads);
    for (int t = 0; t < threads; ++t)
        privates.emplace_back(out.rows(), rank);
    parallel_for_worker_ranges(
        0, nnz, [&](int worker, Size first, Size last) {
            obs::add_worker("mttkrp.worker_items", worker, last - first);
            body(privates[worker].data(), first, last);
        });
    const std::vector<DenseMatrix>& locals = privates;
    Value* dst_base = out.data();
    parallel_for(0, out.rows(), Schedule::kStatic, [&](Size i) {
        Value* dst = dst_base + i * rank;
        std::copy_n(locals[0].row(i), rank, dst);
        for (Size t = 1; t < locals.size(); ++t)
            simd::vadd_inplace(isa, dst, locals[t].row(i), rank);
    });
}

}  // namespace

MttkrpVariant
mttkrp_hicoo(const HiCooTensor& x, const FactorList& factors, Size mode,
             DenseMatrix& out)
{
    const Size rank = check_mttkrp_args(x.dims(), factors, out, mode);
    PASTA_CHECK_MSG(x.order() <= 8, "HiCOO MTTKRP supports order <= 8");
    const OwnerSchedule& sched = x.owner_schedule(mode);
    const MttkrpVariant pick = mttkrp_contention(
        x.dim(mode), x.nnz(), rank, num_threads(), sched.groups());
    obs::set_label("mttkrp.variant", mttkrp_variant_name(pick));
    switch (pick) {
      case MttkrpVariant::kBlockOwner:
        mttkrp_hicoo_owner(x, factors, mode, rank, sched, out);
        break;
      case MttkrpVariant::kPrivatized:
        mttkrp_hicoo_privatized(x, factors, mode, out);
        break;
      case MttkrpVariant::kAtomic:
        mttkrp_hicoo_atomic(x, factors, mode, out);
        break;
    }
    return pick;
}

void
mttkrp_hicoo_atomic(const HiCooTensor& x, const FactorList& factors,
                    Size mode, DenseMatrix& out)
{
    const Size rank = check_mttkrp_args(x.dims(), factors, out, mode);
    PASTA_CHECK_MSG(x.order() <= 8, "HiCOO MTTKRP supports order <= 8");
    note_mttkrp_hicoo(x, rank);
    obs::add("mttkrp.atomics", x.nnz() * rank);
    std::uint8_t* mask = out.begin_accumulate();
    Value* dst = out.data();

    const simd::Isa isa = simd::note_kernel();
    // Hoisted registry lookup: the per-block body runs once per block,
    // too hot for a per-call map access when counters are armed.
    obs::Counter* witems = obs::counters_enabled()
                               ? &obs::counter("mttkrp.worker_items")
                               : nullptr;
    const auto& bptr = x.bptr();
    const auto add = [=](Size i, const Value* row) {
        mark_row(mask, i);
        Value* out_row = dst + i * rank;
        for (Size r = 0; r < rank; ++r)
            atomic_add(out_row + r, row[r]);
    };
    parallel_for(
        0, x.num_blocks(), Schedule::kDynamic,
        [&](Size b) {
            if (witems)
                witems->add_worker(worker_id(), bptr[b + 1] - bptr[b]);
            RankScratch acc(rank);
            hicoo_process_block(x, factors, mode, rank, b, bptr[b],
                                bptr[b + 1], isa, acc.data(), add);
        },
        8);
    out.end_accumulate();
}

void
mttkrp_hicoo_privatized(const HiCooTensor& x, const FactorList& factors,
                        Size mode, DenseMatrix& out)
{
    const Size rank = check_mttkrp_args(x.dims(), factors, out, mode);
    PASTA_CHECK_MSG(x.order() <= 8, "HiCOO MTTKRP supports order <= 8");
    note_mttkrp_hicoo(x, rank);
    const simd::Isa isa = simd::note_kernel();
    const auto& bptr = x.bptr();
    // Ranges are balanced by non-zeros, not blocks: a range may start or
    // end inside a block, so one hot block is split between workers.
    mttkrp_privatized(
        x.nnz(), rank, isa, out, [&](Value* local, Size first, Size last) {
            RankScratch acc(rank);
            const auto add = [=](Size i, const Value* row) {
                simd::vadd_inplace(isa, local + i * rank, row, rank);
            };
            Size b = static_cast<Size>(
                std::upper_bound(bptr.begin(), bptr.end(), first) -
                bptr.begin() - 1);
            for (; bptr[b] < last; ++b)
                hicoo_process_block(x, factors, mode, rank, b,
                                    std::max(first, bptr[b]),
                                    std::min(last, bptr[b + 1]), isa,
                                    acc.data(), add);
        });
}

void
mttkrp_coo_privatized(const CooTensor& x, const FactorList& factors,
                      Size mode, DenseMatrix& out)
{
    const Size rank = check_mttkrp_args(x.dims(), factors, out, mode);
    const Size order = x.order();
    const Value* xv = x.values().data();
    const Index* out_idx = x.mode_indices(mode).data();
    const simd::Isa isa = simd::note_kernel();
    mttkrp_privatized(
        x.nnz(), rank, isa, out, [&](Value* local, Size first, Size last) {
            RankScratch acc_buf(rank);
            Value* acc = acc_buf.data();
            for (Size p = first; p < last; ++p) {
                khatri_rao_row(isa, x, factors, mode, order, p, xv[p],
                               acc, rank);
                simd::vadd_inplace(isa, local + out_idx[p] * rank, acc,
                                   rank);
            }
        });
}

void
mttkrp_coo_seq(const CooTensor& x, const FactorList& factors, Size mode,
               DenseMatrix& out)
{
    const Size rank = check_factors(x.dims(), factors);
    PASTA_CHECK_MSG(mode < x.order(), "mode out of range");
    PASTA_CHECK_MSG(out.rows() == x.dim(mode) && out.cols() == rank,
                    "output matrix shape mismatch");
    out.fill(0);
    // Deliberately scalar: this is the reference the differential
    // oracles and the SIMD bit-compare tests measure against.
    std::vector<Value> acc(rank);
    for (Size p = 0; p < x.nnz(); ++p) {
        const Value xval = x.value(p);
        for (Size r = 0; r < rank; ++r)
            acc[r] = xval;
        for (Size m = 0; m < x.order(); ++m) {
            if (m == mode)
                continue;
            const Value* row = factors[m]->row(x.index(m, p));
            for (Size r = 0; r < rank; ++r)
                acc[r] *= row[r];
        }
        Value* out_row = out.row(x.index(mode, p));
        for (Size r = 0; r < rank; ++r)
            out_row[r] += acc[r];
    }
}

}  // namespace pasta
