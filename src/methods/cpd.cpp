#include "methods/cpd.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "kernels/mttkrp.hpp"
#include "methods/linalg.hpp"
#include "obs/trace.hpp"

namespace pasta {

CpdResult
cp_als(const CooTensor& x, const CpdOptions& options)
{
    PASTA_CHECK_MSG(options.rank > 0, "rank must be positive");
    PASTA_CHECK_MSG(x.nnz() > 0, "cp_als needs a non-empty tensor");
    const Size n = x.order();
    const Size rank = options.rank;

    CpdResult result;
    Rng rng(options.seed);
    for (Size m = 0; m < n; ++m)
        result.factors.push_back(
            DenseMatrix::random(x.dim(m), rank, rng));
    result.lambdas.assign(rank, 1.0);

    // Pre-convert once when HiCOO MTTKRP is selected.
    HiCooTensor hicoo;
    if (options.mttkrp_format == Format::kHicoo)
        hicoo = coo_to_hicoo(x, options.block_bits);

    // Cached Grams of every factor (updated after each mode sweep).
    std::vector<std::vector<double>> grams(n);
    for (Size m = 0; m < n; ++m)
        grams[m] = gram_matrix(result.factors[m]);

    // The FactorList is built once: every solve writes its factor matrix
    // in place, so the pointers stay valid.  One MTTKRP output buffer per
    // mode is allocated up front and reused across sweeps (the kernels
    // zero it on entry).
    FactorList factors;
    for (const auto& f : result.factors)
        factors.push_back(&f);
    std::vector<DenseMatrix> outs;
    outs.reserve(n);
    for (Size m = 0; m < n; ++m)
        outs.emplace_back(x.dim(m), rank);
    // Hadamard-product reuse across consecutive mode solves: suffix[m]
    // is the elementwise product of the (pre-update) Grams of modes
    // m..n-1, rebuilt once per sweep; the running prefix folds in each
    // mode's refreshed Gram right after its solve.  V for a mode is then
    // one Hadamard (prefix o suffix[mode+1]) instead of n-1.
    std::vector<std::vector<double>> suffix(n + 1);

    const double norm_x_sq = frobenius_norm_squared(x);
    double prev_fit = 0.0;

    for (Size sweep = 0; sweep < options.max_sweeps; ++sweep) {
        suffix[n].assign(rank * rank, 1.0);
        for (Size m = n; m-- > 0;) {
            suffix[m] = suffix[m + 1];
            hadamard_inplace(suffix[m], grams[m]);
        }
        std::vector<double> prefix(rank * rank, 1.0);
        for (Size mode = 0; mode < n; ++mode) {
            {
                PASTA_SPAN("cp_als.mttkrp");
                if (options.mttkrp_format == Format::kHicoo)
                    mttkrp_hicoo(hicoo, factors, mode, outs[mode]);
                else
                    mttkrp_coo(x, factors, mode, outs[mode]);
            }
            {
                // V = Hadamard of the other modes' Grams; U = M V^-1.
                PASTA_SPAN("cp_als.solve");
                std::vector<double> v = prefix;
                hadamard_inplace(v, suffix[mode + 1]);
                matmul_small(outs[mode], invert_matrix(std::move(v), rank),
                             result.factors[mode]);
            }
            {
                PASTA_SPAN("cp_als.normalize");
                result.lambdas = normalize_columns(result.factors[mode]);
            }
            PASTA_SPAN("cp_als.gram");
            grams[mode] = gram_matrix(result.factors[mode]);
            hadamard_inplace(prefix, grams[mode]);
        }

        // Fit via the standard CP identity (no reconstruction):
        //   <X, X_hat> = sum_{i,r} M(i,r) lambda_r U^(last)(i,r)
        // where M is the final mode's MTTKRP result computed above
        // (with the *pre-update* factors for the other modes — after the
        // sweep, M corresponds to the current factors).
        PASTA_SPAN("cp_als.fit");
        const Size last = n - 1;
        const DenseMatrix& last_out = outs[last];
        const DenseMatrix& u = result.factors[last];
        const double inner =
            dense_block_sum(
                x.dim(last), dense_row_block(rank), 1,
                [&](Size first, Size end, double* part) {
                    for (Size i = first; i < end; ++i)
                        for (Size r = 0; r < rank; ++r)
                            *part += static_cast<double>(last_out(i, r)) *
                                     result.lambdas[r] * u(i, r);
                })[0];
        // After the sweep the running prefix is exactly the Hadamard of
        // every refreshed Gram, which is the h the fit needs.
        const std::vector<double>& h = prefix;
        double model_sq = 0.0;
        for (Size r = 0; r < rank; ++r)
            for (Size s = 0; s < rank; ++s)
                model_sq += result.lambdas[r] * result.lambdas[s] *
                            h[r * rank + s];
        const double residual_sq =
            std::max(0.0, norm_x_sq - 2.0 * inner + model_sq);
        const double fit =
            1.0 - std::sqrt(residual_sq) / std::sqrt(norm_x_sq);
        result.fit_history.push_back(fit);
        result.fit = fit;
        result.sweeps = sweep + 1;
        if (sweep > 0 && std::abs(fit - prev_fit) < options.tolerance)
            break;
        prev_fit = fit;
    }
    return result;
}

double
cpd_value_at(const CpdResult& model, const Coordinate& coords)
{
    PASTA_CHECK_MSG(coords.size() == model.factors.size(),
                    "coordinate arity mismatch");
    const Size rank = model.lambdas.size();
    double total = 0.0;
    for (Size r = 0; r < rank; ++r) {
        double term = model.lambdas[r];
        for (Size m = 0; m < model.factors.size(); ++m)
            term *= model.factors[m](coords[m], r);
        total += term;
    }
    return total;
}

}  // namespace pasta
