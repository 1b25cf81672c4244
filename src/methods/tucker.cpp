#include "methods/tucker.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/fibers.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttm_scoo.hpp"
#include "methods/linalg.hpp"

namespace pasta {

CooTensor
ttm_chain(const CooTensor& x, const std::vector<DenseMatrix>& mats,
          Size skip_mode, bool fuse)
{
    PASTA_CHECK_MSG(mats.size() == x.order(),
                    "ttm_chain needs one matrix per mode");
    // Contract small-rank modes first: each TTM shrinks (or keeps) the
    // mode extent, so ordering by ascending rank keeps intermediates
    // small.
    std::vector<Size> order;
    for (Size m = 0; m < x.order(); ++m)
        if (m != skip_mode)
            order.push_back(m);
    std::sort(order.begin(), order.end(), [&](Size a, Size b) {
        return mats[a].cols() < mats[b].cols();
    });
    for (Size m : order)
        PASTA_CHECK_MSG(mats[m].rows() == x.dim(m),
                        "ttm_chain matrix rows mismatch on mode " << m);
    if (order.empty())
        return x;

    // First TTM produces a semi-sparse intermediate; later TTMs stay in
    // sCOO (ttm_scoo) while at least two sparse modes remain, avoiding
    // the stripe-volume blowup of expanding back to COO each step.
    ScooTensor semi = ttm_coo(x, mats[order[0]], order[0]);
    for (Size k = 1; k < order.size(); ++k) {
        const Size m = order[k];
        // Fused endgame: when exactly the last two contractions remain
        // and they are exactly the intermediate's two sparse modes,
        // contract both in one stripe sweep and emit the final COO
        // directly — no intermediate sCOO and no to_coo() round trip.
        if (fuse && k + 2 == order.size() &&
            semi.sparse_modes().size() == 2) {
            const Size m2 = order[k + 1];
            const auto& sp = semi.sparse_modes();
            if ((sp[0] == std::min(m, m2) && sp[1] == std::max(m, m2)))
                return ttm_scoo_fused2(semi, mats[m], m, mats[m2], m2);
        }
        if (semi.sparse_modes().size() >= 2) {
            semi = ttm_scoo(semi, mats[m], m);
        } else {
            ScooTensor next = ttm_coo(semi.to_coo(), mats[m], m);
            semi = std::move(next);
        }
    }
    return semi.to_coo();
}

namespace {

/// Leading `rank` left singular directions of the mode-`mode`
/// matricization of `y`, via subspace power iteration on the implicit
/// Gram G = Y_(m) Y_(m)^T (never materialized).
DenseMatrix
leading_subspace(const CooTensor& y, Size mode, Size rank, Size iterations,
                 Rng& rng)
{
    const Size n = y.dim(mode);
    DenseMatrix q = DenseMatrix::random(n, rank, rng);
    orthonormalize_columns(q);
    // Fibers are found once; every iteration reuses the grouping.
    const FiberView fibers(y, mode);
    const FiberArrays a = fibers.arrays();
    for (Size iter = 0; iter < iterations; ++iter) {
        DenseMatrix gq(n, rank, 0);
        for (Size f = 0; f < a.num_fibers; ++f) {
            const Size start = a.fptr[f];
            const Size end = a.fptr[f + 1];
            for (Size r = 0; r < rank; ++r) {
                double t = 0.0;
                for (Size p = start; p < end; ++p)
                    t += static_cast<double>(a.values[p]) *
                         q(a.indices[p], r);
                for (Size p = start; p < end; ++p)
                    gq(a.indices[p], r) +=
                        static_cast<Value>(a.values[p] * t);
            }
        }
        q = std::move(gq);
        orthonormalize_columns(q);
    }
    return q;
}

}  // namespace

TuckerResult
tucker_hooi(const CooTensor& x, const TuckerOptions& options)
{
    PASTA_CHECK_MSG(x.nnz() > 0, "tucker_hooi needs a non-empty tensor");
    const Size n = x.order();
    std::vector<Size> core_dims = options.core_dims;
    if (core_dims.empty())
        core_dims.assign(n, options.rank);
    PASTA_CHECK_MSG(core_dims.size() == n, "core_dims arity mismatch");
    for (Size m = 0; m < n; ++m) {
        PASTA_CHECK_MSG(core_dims[m] >= 1, "core extent must be >= 1");
        core_dims[m] = std::min<Size>(core_dims[m], x.dim(m));
    }

    TuckerResult result;
    Rng rng(options.seed);
    for (Size m = 0; m < n; ++m) {
        result.factors.push_back(
            DenseMatrix::random(x.dim(m), core_dims[m], rng));
        orthonormalize_columns(result.factors.back());
    }

    double prev_norm = 0.0;
    for (Size pass = 0; pass < options.max_passes; ++pass) {
        for (Size mode = 0; mode < n; ++mode) {
            const CooTensor projected =
                ttm_chain(x, result.factors, mode);
            result.factors[mode] =
                leading_subspace(projected, mode, core_dims[mode],
                                 options.power_iterations, rng);
        }
        result.core = ttm_chain(x, result.factors, kNoMode);
        result.core_norm = std::sqrt(frobenius_norm_squared(result.core));
        result.core_norm_history.push_back(result.core_norm);
        result.passes = pass + 1;
        if (pass > 0 &&
            std::abs(result.core_norm - prev_norm) <
                options.tolerance * std::max(1.0, prev_norm))
            break;
        prev_norm = result.core_norm;
    }
    return result;
}

}  // namespace pasta
