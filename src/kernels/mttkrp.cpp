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

// ---- fused bodies ------------------------------------------------------
//
// One body per ISA walks a range of non-zeros.  For each it forms the
// Khatri-Rao product x(p) * prod_{m != mode} U^(m)(i_m, :) one vector
// stripe at a time, in a register, and adds the stripe onto its
// destination row.  The ISA is chosen once per kernel call
// (fused_body), so the per-non-zero loop has no dispatch and no
// out-of-line call.  The element order is the scalar loop's: the value
// times the first non-mode factor, times each further one in mode
// order, then added onto the destination, with separate IEEE multiplies
// and adds (fp-contract off).  So every ISA gives the scalar body's
// bits.  GCC lambdas do not inherit target attributes, so each body is
// a named function.  A body works on local copies of its stream and
// destination: an output store could alias their fields in memory, so
// copies keep them in registers.

/// The non-zeros a fused body walks, as plain pointers: the value and
/// output row of non-zero p, and the rows of its `nf` non-mode factors
/// in mode order.  COO indexes each factor by the global index; a HiCOO
/// block by the 8-bit element offset from the block's base rows.
template <typename Idx>
struct NnzStream {
    const Value* val;
    const Idx* out;           ///< output-mode index of each non-zero
    Size out_base;            ///< output row of index 0
    Size rank;
    Size nf;                  ///< non-mode factors: order - 1
    const Idx* const* idx;    ///< [nf] non-mode index arrays
    const Value* const* fac;  ///< [nf] factor row of index 0

    Size out_row(Size p) const { return out_base + out[p]; }
};

/// Where a fused body adds the product of each non-zero.
enum class Sink {
    kAdd,  ///< onto its output row of `dst`: a private copy or owned tile
    kRun,  ///< onto a run accumulator, flushed into `dst` with atomics
};

/// Destination of one fused body call.  begin(i) returns the row that
/// the product of a non-zero with output row i is added onto, and
/// whether that row starts fresh (is overwritten, not added onto):
///   kAdd: row i of `dst`, never fresh; marks `mask` when there is one;
///   kRun: the run accumulator `acc`.  Consecutive non-zeros with one
///         output row add up there; a new row first flushes the run
///         into `dst` with one atomic add per rank column.
template <Sink K>
struct Dest {
    Value* dst;
    std::uint8_t* mask;
    Value* acc;
    Size rank;
    Size flushes = 0;
    Size run_row = 0;
    bool in_run = false;

    Value* begin(Size i, bool& fresh)
    {
        if constexpr (K == Sink::kAdd) {
            if (mask)
                mark_row(mask, i);
            fresh = false;
            return dst + i * rank;
        } else {
            fresh = !in_run || i != run_row;
            if (fresh) {
                finish();
                run_row = i;
                in_run = true;
            }
            return acc;
        }
    }

    /// Flushes the open run (kRun); the body calls it after its range.
    void finish()
    {
        if constexpr (K == Sink::kRun) {
            if (!in_run)
                return;
            ++flushes;
            mark_row(mask, run_row);
            Value* out_row = dst + run_row * rank;
            for (Size r = 0; r < rank; ++r)
                atomic_add(out_row + r, acc[r]);
            in_run = false;
        }
    }
};

/// A fused body's view of the non-mode factor rows.  With the factor
/// count NF fixed at compile time the index and factor pointers are
/// copied into the body's frame, so the unrolled mode loop keeps them in
/// registers instead of reloading them after every output store; NF = 0
/// reads the count and the pointers from the stream.
template <typename Idx, Size NF>
struct FactorRows {
    Size rank;
    Size nf;
    const Idx* idx[NF > 0 ? NF : 1] = {};
    const Value* fac[NF > 0 ? NF : 1] = {};
    const Idx* const* any_idx;
    const Value* const* any_fac;

    explicit FactorRows(const NnzStream<Idx>& s)
        : rank(s.rank), nf(NF > 0 ? NF : s.nf), any_idx(s.idx),
          any_fac(s.fac)
    {
        for (Size k = 0; k < NF; ++k) {
            idx[k] = s.idx[k];
            fac[k] = s.fac[k];
        }
    }

    const Value* row(Size k, Size p) const
    {
        if constexpr (NF > 0)
            return fac[k] + static_cast<Size>(idx[k][p]) * rank;
        else
            return any_fac[k] + static_cast<Size>(any_idx[k][p]) * rank;
    }
};

/// The bit reference: one element at a time.
template <Sink K, typename Idx, Size NF>
PASTA_SCALAR_REF void
fused_scalar(NnzStream<Idx> s, Size first, Size last, Dest<K>& dest)
{
    const FactorRows<Idx, NF> f(s);
    Dest<K> d = dest;
    for (Size p = first; p < last; ++p) {
        bool fresh = false;
        Value* row = d.begin(s.out_row(p), fresh);
        for (Size r = 0; r < f.rank; ++r) {
            Value v = s.val[p];
            for (Size k = 0; k < f.nf; ++k)
                v *= f.row(k, p)[r];
            row[r] = fresh ? v : row[r] + v;
        }
    }
    d.finish();
    dest = d;
}

#if PASTA_SIMD_X86

/// 8-lane stripes; the tail runs the scalar element loop.
template <Sink K, typename Idx, Size NF>
PASTA_TARGET_AVX2 void
fused_avx2(NnzStream<Idx> s, Size first, Size last, Dest<K>& dest)
{
    const FactorRows<Idx, NF> f(s);
    Dest<K> d = dest;
    for (Size p = first; p < last; ++p) {
        bool fresh = false;
        Value* row = d.begin(s.out_row(p), fresh);
        const Value xval = s.val[p];
        Size r = 0;
        for (; r + 8 <= f.rank; r += 8) {
            __m256 v = _mm256_set1_ps(xval);
            for (Size k = 0; k < f.nf; ++k)
                v = _mm256_mul_ps(v, _mm256_loadu_ps(f.row(k, p) + r));
            if (!fresh)
                v = _mm256_add_ps(_mm256_loadu_ps(row + r), v);
            _mm256_storeu_ps(row + r, v);
        }
        for (; r < f.rank; ++r) {
            Value v = xval;
            for (Size k = 0; k < f.nf; ++k)
                v *= f.row(k, p)[r];
            row[r] = fresh ? v : row[r] + v;
        }
    }
    d.finish();
    dest = d;
}

/// 16-lane stripes; the tail stripe is masked.
template <Sink K, typename Idx, Size NF>
PASTA_TARGET_AVX512 void
fused_avx512(NnzStream<Idx> s, Size first, Size last, Dest<K>& dest)
{
    const FactorRows<Idx, NF> f(s);
    Dest<K> d = dest;
    const Size full = f.rank & ~Size{15};
    const __mmask16 tail =
        static_cast<__mmask16>((1u << (f.rank - full)) - 1u);
    for (Size p = first; p < last; ++p) {
        bool fresh = false;
        Value* row = d.begin(s.out_row(p), fresh);
        const __m512 xval = _mm512_set1_ps(s.val[p]);
        for (Size r = 0; r < f.rank; r += 16) {
            const __mmask16 m = r < full ? __mmask16{0xffff} : tail;
            __m512 v = xval;
            for (Size k = 0; k < f.nf; ++k)
                v = _mm512_mul_ps(v,
                                  _mm512_maskz_loadu_ps(m, f.row(k, p) + r));
            if (!fresh)
                v = _mm512_add_ps(_mm512_maskz_loadu_ps(m, row + r), v);
            _mm512_mask_storeu_ps(row + r, m, v);
        }
    }
    d.finish();
    dest = d;
}

#endif  // PASTA_SIMD_X86

template <Sink K, typename Idx>
using FusedBody = void (*)(NnzStream<Idx>, Size, Size, Dest<K>&);

template <Sink K, typename Idx, Size NF>
FusedBody<K, Idx>
fused_body_isa(simd::Isa isa)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case simd::Isa::kAvx512:
        return &fused_avx512<K, Idx, NF>;
      case simd::Isa::kAvx2:
        return &fused_avx2<K, Idx, NF>;
      default:
        break;
    }
#endif
    (void)isa;
    return &fused_scalar<K, Idx, NF>;
}

/// The fused body of `isa` for `nf` non-mode factors, chosen once per
/// kernel call.  Third-order tensors, the common case, get bodies with
/// the factor count fixed at two.
template <Sink K, typename Idx>
FusedBody<K, Idx>
fused_body(simd::Isa isa, Size nf)
{
    return nf == 2 ? fused_body_isa<K, Idx, 2>(isa)
                   : fused_body_isa<K, Idx, 0>(isa);
}

/// A COO tensor's non-zeros as one stream, with the pointer arrays it
/// refers to.
class CooNnz {
  public:
    CooNnz(const CooTensor& x, const FactorList& factors, Size mode,
           Size rank)
    {
        for (Size m = 0; m < x.order(); ++m) {
            if (m == mode)
                continue;
            idx_.push_back(x.mode_indices(m).data());
            fac_.push_back(factors[m]->data());
        }
        stream_ = {x.values().data(), x.mode_indices(mode).data(), 0, rank,
                   idx_.size(),       idx_.data(), fac_.data()};
    }
    CooNnz(const CooNnz&) = delete;
    CooNnz& operator=(const CooNnz&) = delete;

    const NnzStream<Index>& stream() const { return stream_; }

  private:
    std::vector<const Index*> idx_;
    std::vector<const Value*> fac_;
    NnzStream<Index> stream_{};
};

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
    Value* dst = out.data();
    const CooNnz nz(x, factors, mode, rank);
    const auto body = fused_body<Sink::kRun, Index>(simd::note_kernel(),
                                                    x.order() - 1);
    // Runs of equal output index (ubiquitous when the stream is sorted
    // with `mode` leading, frequent otherwise) add up in the run
    // accumulator and are flushed with one atomic set per run, not one
    // per non-zero; contiguous static ranges preserve the runs.  Correct
    // for arbitrary streams: an unsorted stream just flushes more often.
    parallel_for_ranges(0, x.nnz(), [&](Size first, Size last) {
        RankScratch acc(rank);
        Dest<Sink::kRun> d{dst, mask, acc.data(), rank};
        body(nz.stream(), first, last, d);
        obs::add("mttkrp.atomics", d.flushes * rank);
        obs::add_worker("mttkrp.worker_items", worker_id(), last - first);
    });
    out.end_accumulate();
}

namespace {

/// A HiCOO tensor's non-zeros as one stream per block (Algorithm 3,
/// line 3): per-block factor base rows, so the body decodes only 8-bit
/// element offsets.  One fused body serves the owner, privatized and
/// atomic schedules.
class HicooNnz {
  public:
    HicooNnz(const HiCooTensor& x, const FactorList& factors, Size mode,
             Size rank)
        : x_(x), factors_(factors), mode_(mode)
    {
        for (Size m = 0; m < x.order(); ++m) {
            if (m == mode)
                continue;
            modes_.push_back(m);
            eidx_.push_back(x.element_indices(m).data());
        }
        proto_ = {x.values().data(), x.element_indices(mode).data(),
                  0,                 rank,
                  eidx_.size(),      eidx_.data(),
                  nullptr};
    }
    HicooNnz(const HicooNnz&) = delete;
    HicooNnz& operator=(const HicooNnz&) = delete;

    /// Runs `body` over the non-zeros [first, last) of block b.
    template <Sink K>
    void run(FusedBody<K, EIndex> body, Size b, Size first, Size last,
             Dest<K>& d) const
    {
        const unsigned bits = x_.block_bits();
        const Value* base[8] = {};
        NnzStream<EIndex> s = proto_;
        s.out_base = static_cast<Size>(x_.block_index(mode_, b)) << bits;
        for (Size k = 0; k < modes_.size(); ++k)
            base[k] = factors_[modes_[k]]->row(
                static_cast<Size>(x_.block_index(modes_[k], b)) << bits);
        s.fac = base;
        body(s, first, last, d);
    }

  private:
    const HiCooTensor& x_;
    const FactorList& factors_;
    Size mode_;
    std::vector<Size> modes_;
    std::vector<const EIndex*> eidx_;
    NnzStream<EIndex> proto_{};
};

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
    const HicooNnz nz(x, factors, mode, rank);
    const auto body = fused_body<Sink::kAdd, EIndex>(simd::note_kernel(),
                                                     x.order() - 1);
    const auto& bptr = x.bptr();
    parallel_for(
        0, sched.groups(), Schedule::kDynamic,
        [&](Size g) {
            Dest<Sink::kAdd> d{dst, mask, nullptr, rank};
            Size items = 0;
            for (Size s = sched.group_ptr[g]; s < sched.group_ptr[g + 1];
                 ++s) {
                const Size b = sched.blocks[s];
                items += bptr[b + 1] - bptr[b];
                nz.run(body, b, bptr[b], bptr[b + 1], d);
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
    std::uint8_t* mask = out.begin_accumulate();
    Value* dst = out.data();
    const HicooNnz nz(x, factors, mode, rank);
    const auto body = fused_body<Sink::kRun, EIndex>(simd::note_kernel(),
                                                     x.order() - 1);
    // Hoisted registry lookups: the per-block body runs once per block,
    // too hot for a per-call map access when counters are armed.
    const bool counted = obs::counters_enabled();
    obs::Counter* witems =
        counted ? &obs::counter("mttkrp.worker_items") : nullptr;
    obs::Counter* atomics =
        counted ? &obs::counter("mttkrp.atomics") : nullptr;
    const auto& bptr = x.bptr();
    // Runs of one output row within a block add up before their atomic
    // set, as in mttkrp_coo_atomic.
    parallel_for(
        0, x.num_blocks(), Schedule::kDynamic,
        [&](Size b) {
            RankScratch acc(rank);
            Dest<Sink::kRun> d{dst, mask, acc.data(), rank};
            nz.run(body, b, bptr[b], bptr[b + 1], d);
            if (counted) {
                witems->add_worker(worker_id(), bptr[b + 1] - bptr[b]);
                atomics->add(d.flushes * rank);
            }
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
    const HicooNnz nz(x, factors, mode, rank);
    const auto body = fused_body<Sink::kAdd, EIndex>(isa, x.order() - 1);
    const auto& bptr = x.bptr();
    // Ranges are balanced by non-zeros, not blocks: a range may start or
    // end inside a block, so one hot block is split between workers.
    mttkrp_privatized(
        x.nnz(), rank, isa, out, [&](Value* local, Size first, Size last) {
            Dest<Sink::kAdd> d{local, nullptr, nullptr, rank};
            Size b = static_cast<Size>(
                std::upper_bound(bptr.begin(), bptr.end(), first) -
                bptr.begin() - 1);
            for (; bptr[b] < last; ++b)
                nz.run(body, b, std::max(first, bptr[b]),
                       std::min(last, bptr[b + 1]), d);
        });
}

void
mttkrp_coo_privatized(const CooTensor& x, const FactorList& factors,
                      Size mode, DenseMatrix& out)
{
    const Size rank = check_mttkrp_args(x.dims(), factors, out, mode);
    const simd::Isa isa = simd::note_kernel();
    const CooNnz nz(x, factors, mode, rank);
    const auto body = fused_body<Sink::kAdd, Index>(isa, x.order() - 1);
    mttkrp_privatized(
        x.nnz(), rank, isa, out, [&](Value* local, Size first, Size last) {
            Dest<Sink::kAdd> d{local, nullptr, nullptr, rank};
            body(nz.stream(), first, last, d);
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
