#include "kernels/ttm_scoo.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "core/fibers.hpp"
#include "core/sort_radix.hpp"
#include "obs/counters.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

namespace {

/// Sparse-slot chunks of the fused two-mode TTM: a constant, so the
/// summation order of the core never follows the thread count.
constexpr Size kFusedChunks = 16;

}  // namespace

ScooTensor
ttm_scoo(const ScooTensor& x, const DenseMatrix& u, Size mode)
{
    PASTA_CHECK_MSG(mode < x.order(), "mode out of range");
    const auto& sparse = x.sparse_modes();
    const auto slot_it = std::find(sparse.begin(), sparse.end(), mode);
    PASTA_CHECK_MSG(slot_it != sparse.end(),
                    "mode " << mode << " is dense in this sCOO tensor");
    PASTA_CHECK_MSG(sparse.size() >= 2,
                    "contracting the last sparse mode would leave no "
                    "sparse part");
    PASTA_CHECK_MSG(u.rows() == x.dim(mode),
                    "matrix rows " << u.rows() << " != mode extent "
                                   << x.dim(mode));
    const Size rank = u.cols();
    const Size slot = static_cast<Size>(slot_it - sparse.begin());

    // Output shape: mode extent becomes R and joins the dense set.
    std::vector<Index> out_dims = x.dims();
    out_dims[mode] = static_cast<Index>(rank);
    std::vector<Size> out_dense = x.dense_modes();
    out_dense.insert(
        std::lower_bound(out_dense.begin(), out_dense.end(), mode), mode);
    ScooTensor out(out_dims, out_dense);

    // Stripe offset mapping: output dense modes are input dense modes
    // with `mode` inserted; in the row-major (ascending-mode) stripe
    // layout, the input offset o splits at `mode`'s insertion point into
    // prefix = o / suffix_vol and suffix = o % suffix_vol, and
    //   out_off = (prefix * R + r) * suffix_vol + suffix.
    Size suffix_vol = 1;
    for (Size dm : x.dense_modes())
        if (dm > mode)
            suffix_vol *= x.dim(dm);
    const Size in_vol = x.stripe_volume();

    // Group sparse coordinates into mode-`mode` fibers: a stable radix
    // sort by the other sparse coordinates, then by `mode`.
    const auto& idx = x.sparse_indices_view();
    std::vector<Index> slot_dims;
    std::vector<Size> columns;
    for (Size s = 0; s < sparse.size(); ++s) {
        slot_dims.push_back(x.dim(sparse[s]));
        if (s != slot)
            columns.push_back(s);
    }
    columns.push_back(slot);
    const std::vector<Size> perm =
        radix::sort_order(radix::lex_layout(slot_dims, columns), idx);
    const std::vector<Size> fptr =
        run_pointers(perm.size(), {}, [&](Size i) {
            for (Size s = 0; s < sparse.size(); ++s)
                if (s != slot && idx[s][perm[i]] != idx[s][perm[i - 1]])
                    return true;
            return false;
        });

    // One output stripe per fiber, its sparse coordinates taken from the
    // fiber head.
    const Size num_fibers = fptr.size() - 1;
    const ScooBulkFill heads = out.bulk_fill_stripes(num_fibers);
    parallel_for_ranges(0, num_fibers, [&](Size first, Size last) {
        for (Size f = first; f < last; ++f) {
            const Size head = perm[fptr[f]];
            Size t = 0;
            for (Size s = 0; s < sparse.size(); ++s)
                if (s != slot)
                    heads.sparse[t++][f] = idx[s][head];
        }
    });

    const simd::Isa isa = simd::note_kernel();
    parallel_for(
        0, num_fibers, Schedule::kDynamic,
        [&](Size f) {
            Value* yb = out.stripe(f);
            for (Size i = fptr[f]; i < fptr[f + 1]; ++i) {
                const Size p = perm[i];
                const Value* urow = u.row(x.sparse_index(slot, p));
                const Value* xs = x.stripe(p);
                if (suffix_vol == 1) {
                    // Contiguous rank stripes: one vaxpy per non-zero
                    // dense slot.
                    for (Size o = 0; o < in_vol; ++o) {
                        if (xs[o] == 0)
                            continue;
                        simd::vaxpy(isa, yb + o * rank, xs[o], urow,
                                    rank);
                    }
                    continue;
                }
                for (Size o = 0; o < in_vol; ++o) {
                    const Size prefix = o / suffix_vol;
                    const Size suffix = o % suffix_vol;
                    const Value xval = xs[o];
                    if (xval == 0)
                        continue;
                    Value* base =
                        yb + prefix * rank * suffix_vol + suffix;
                    for (Size r = 0; r < rank; ++r)
                        base[r * suffix_vol] += xval * urow[r];
                }
            }
        },
        16);
    return out;
}

CooTensor
ttm_scoo_fused2(const ScooTensor& x, const DenseMatrix& ua, Size mode_a,
                const DenseMatrix& ub, Size mode_b)
{
    PASTA_CHECK_MSG(mode_a < x.order() && mode_b < x.order(),
                    "mode out of range");
    PASTA_CHECK_MSG(mode_a != mode_b, "fused TTM modes must differ");
    const auto& sparse = x.sparse_modes();
    PASTA_CHECK_MSG(sparse.size() == 2,
                    "fused two-mode TTM needs exactly two sparse modes");
    // Normalize to ascending mode order (sparse_modes() is ascending).
    const DenseMatrix& u_lo = mode_a < mode_b ? ua : ub;
    const DenseMatrix& u_hi = mode_a < mode_b ? ub : ua;
    const Size lo = std::min(mode_a, mode_b);
    const Size hi = std::max(mode_a, mode_b);
    PASTA_CHECK_MSG(sparse[0] == lo && sparse[1] == hi,
                    "fused TTM modes must be exactly the sCOO sparse "
                    "modes");
    PASTA_CHECK_MSG(u_lo.rows() == x.dim(lo) && u_hi.rows() == x.dim(hi),
                    "fused TTM matrix rows mismatch");

    const Size ra = u_lo.cols();
    const Size rb = u_hi.cols();
    const Size in_vol = x.stripe_volume();

    // Output: every mode dense.  Row-major over ascending modes, the
    // input stripe offset o splits around the two contracted slots into
    //   o = (p1 * vol2 + p2) * vol3 + p3
    // (vol2/vol3 = dense volume strictly between lo and hi / above hi)
    // and the output offset is
    //   ((((p1 * Ra + qa) * vol2 + p2) * Rb + qb) * vol3 + p3.
    Size vol2 = 1;
    Size vol3 = 1;
    for (Size dm : x.dense_modes()) {
        if (dm > hi)
            vol3 *= x.dim(dm);
        else if (dm > lo)
            vol2 *= x.dim(dm);
    }
    const Size out_vol = in_vol * ra * rb;
    std::vector<Index> out_dims = x.dims();
    out_dims[lo] = static_cast<Index>(ra);
    out_dims[hi] = static_cast<Index>(rb);

    if (obs::counters_enabled()) {
        // Both contractions run per stripe slot: 2 RaRb flops each.
        obs::counter("ttm.flops").add(2 * x.num_sparse() * in_vol * ra *
                                      rb);
        obs::counter("ttm.bytes").add(4 * x.num_sparse() * in_vol +
                                      4 * out_vol);
    }
    const simd::Isa isa = simd::note_kernel();
    const Index* ia = x.sparse_mode_indices(0).data();
    const Index* ib = x.sparse_mode_indices(1).data();

    // The dense accumulator is core-sized (every extent already
    // contracted to a rank), so one partial per chunk is cheap and the
    // sweep needs no atomics.  The chunks are a fixed split of the sparse
    // slots, independent of the thread count, and their partials are
    // summed in chunk order, so the core is bit-identical at any thread
    // count.
    const Size slots = x.num_sparse();
    const Size chunks = std::clamp<Size>(slots, 1, kFusedChunks);
    const Size per = (slots + chunks - 1) / chunks;
    std::vector<std::vector<Value>> partials(
        chunks, std::vector<Value>(out_vol, 0));
    parallel_for(
        0, chunks, Schedule::kDynamic,
        [&](Size chunk) {
            Value* D = partials[chunk].data();
            const Size last = std::min(slots, (chunk + 1) * per);
            for (Size p = chunk * per; p < last; ++p) {
                const Value* arow = u_lo.row(ia[p]);
                const Value* brow = u_hi.row(ib[p]);
                const Value* xs = x.stripe(p);
                for (Size o = 0; o < in_vol; ++o) {
                    const Value xval = xs[o];
                    if (xval == 0)
                        continue;
                    const Size p3 = o % vol3;
                    const Size p2 = (o / vol3) % vol2;
                    const Size p1 = o / (vol2 * vol3);
                    for (Size qa = 0; qa < ra; ++qa) {
                        const Value coeff = xval * arow[qa];
                        Value* base =
                            D +
                            ((((p1 * ra + qa) * vol2 + p2) * rb) * vol3 +
                             p3);
                        if (vol3 == 1) {
                            simd::vaxpy(isa, base, coeff, brow, rb);
                        } else {
                            for (Size qb = 0; qb < rb; ++qb)
                                base[qb * vol3] += coeff * brow[qb];
                        }
                    }
                }
            }
        },
        1);
    Value* D = partials[0].data();
    for (Size c = 1; c < chunks; ++c)
        simd::vadd_inplace(isa, D, partials[c].data(), out_vol);

    // Emit as COO: row-major offset order over ascending modes IS
    // lexicographic order, zeros skipped (same contract as
    // ScooTensor::to_coo, no sort needed).
    CooTensor out(out_dims);
    Coordinate c(x.order());
    for (Size off = 0; off < out_vol; ++off) {
        if (D[off] == 0)
            continue;
        Size rem = off;
        for (Size m = x.order(); m-- > 0;) {
            const Index extent = out_dims[m];
            c[m] = static_cast<Index>(rem % extent);
            rem /= extent;
        }
        out.append(c, D[off]);
    }
    return out;
}

}  // namespace pasta
