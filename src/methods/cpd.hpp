/// \file
/// CANDECOMP/PARAFAC decomposition by alternating least squares (CP-ALS),
/// one of the "more complete tensor methods" the paper schedules for the
/// suite (§VII).  MTTKRP — the paper's most expensive CPD kernel (§II-E)
/// — dominates each sweep; the format used for it is selectable so the
/// method doubles as an end-to-end format benchmark.
#pragma once

#include <vector>

#include "analysis/cost_model.hpp"
#include "core/coo_tensor.hpp"
#include "core/dense.hpp"

namespace pasta {

/// CP-ALS configuration.
struct CpdOptions {
    Size rank = 16;
    Size max_sweeps = 20;
    double tolerance = 1e-5;     ///< stop when fit improves less than this
    Format mttkrp_format = Format::kCoo;  ///< COO or HiCOO MTTKRP
    unsigned block_bits = 7;     ///< HiCOO block size when selected
    std::uint64_t seed = 1;      ///< factor initialization
};

/// CP decomposition result: X ~= sum_r lambda_r u^(1)_r o ... o u^(N)_r.
struct CpdResult {
    std::vector<DenseMatrix> factors;  ///< one I_m x R matrix per mode
    std::vector<double> lambdas;       ///< column scales, length R
    double fit = 0;                    ///< 1 - |X - X_hat| / |X|
    Size sweeps = 0;                   ///< sweeps executed
    std::vector<double> fit_history;   ///< fit after each sweep
};

/// Runs CP-ALS on `x`.  Each sweep performs one MTTKRP per mode plus
/// R x R Gram/Hadamard/inverse updates; the fit is computed exactly from
/// <X, X_hat> and the factor Grams (no dense reconstruction).
CpdResult cp_als(const CooTensor& x, const CpdOptions& options = {});

/// Reconstructs the value of the CP model at one coordinate (tests,
/// small-scale validation).
double cpd_value_at(const CpdResult& model, const Coordinate& coords);

}  // namespace pasta
