/// \file
/// Differential oracle checking for the five benchmark kernels.
///
/// Each diff_* helper recomputes one kernel (TEW/TS/TTV/TTM/MTTKRP) with a
/// serial double-precision COO oracle and compares the benchmarked output
/// against it.  The tolerance is ULP-aware and scales with reduction
/// depth: a result accumulated from `terms` products in float is accepted
/// within eps32 * slack * (terms + 2) * sum|term| plus an absolute floor,
/// the standard deterministic forward-error bound for recursive summation
/// (Higham, Accuracy and Stability of Numerical Algorithms, §4.2), so
/// reassociation by OpenMP reductions, atomics, or the simulated GPU never
/// trips the check while a wrong index or dropped non-zero always does.
/// Sparse outputs are canonicalized (sorted, duplicates summed) before the
/// compare, and a coordinate absent on either side is treated as 0.
///
/// These checks run only under PASTA_VALIDATE=kernel|full (see
/// validate.hpp); failures throw ValidationError and surface as the
/// `validation` failure class in the trial journal.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "kernels/ops.hpp"
#include "validate/validate.hpp"

namespace pasta {
class DenseMatrix;
class DenseVector;
}  // namespace pasta

namespace pasta::validate {

/// One entry the oracle produced: the double-precision value plus the
/// error-bound bookkeeping (number of accumulated terms and the sum of
/// their magnitudes).
struct OracleEntry {
    double value = 0.0;
    double abs_sum = 0.0;
    Size terms = 0;
};

/// One tolerance violation: where, what the oracle says, what the kernel
/// produced, and the bound that was exceeded.
struct DiffMismatch {
    std::string where;     ///< coordinate, e.g. "(3,0,7)" or "out(5,2)"
    double expected = 0.0;
    double actual = 0.0;
    double error = 0.0;    ///< |expected - actual|
    double bound = 0.0;    ///< tolerance that was exceeded
};

/// Outcome of one differential check.
struct DiffReport {
    /// Reports keep the first kMaxMismatches violations.
    static constexpr Size kMaxMismatches = 8;

    std::string label;     ///< e.g. "TTV vs coo-serial oracle"
    Size compared = 0;     ///< output entries compared
    Size mismatched = 0;   ///< entries outside tolerance
    double max_excess = 0.0;  ///< worst error/bound ratio observed
    std::vector<DiffMismatch> mismatches;

    bool ok() const { return mismatched == 0; }

    /// Records a violation (keeps the first kMaxMismatches).
    void add(std::string where, double expected, double actual,
             double bound);

    /// One-line result, listing retained mismatches when failing.
    std::string summary() const;

    /// Throws ValidationError carrying summary() when !ok().
    void require() const;
};

/// Element-wise tensor (TEW): checks z[i] ~= x[i] op y[i] for n entries.
DiffReport diff_tew(EwOp op, const Value* x, const Value* y,
                    const Value* z, Size n);

/// General-pattern TEW (different shapes/patterns): recomputes the sorted
/// merge of x op y with a serial double-precision two-pointer oracle —
/// union semantics for add/sub, intersection for mul/div — and compares
/// the canonicalized `z` against it.  Covers every merged path (CPU
/// merged-64key/merged-cmp, HiCOO re-blocked, simulated-GPU two-phase).
DiffReport diff_tew_general(EwOp op, const CooTensor& x, const CooTensor& y,
                            const CooTensor& z);

/// Tensor-scalar (TS): checks out[i] ~= x[i] op s for n entries.
DiffReport diff_ts(TsOp op, const Value* x, Value s, const Value* out,
                   Size n);

/// TTV: checks `actual` against the serial COO oracle of x ×̄_mode v.
DiffReport diff_ttv(const CooTensor& x, const DenseVector& v, Size mode,
                    const CooTensor& actual);

/// TTM: checks `actual` (semi-sparse, dense mode `mode`) against the
/// serial COO oracle of x ×_mode U.
DiffReport diff_ttm(const CooTensor& x, const DenseMatrix& u, Size mode,
                    const ScooTensor& actual);

/// MTTKRP: checks the dense `actual` matrix against the serial COO oracle
/// for the given mode and factor list.  The oracle covers only the output
/// rows the non-zeros touch; every other row must be exactly 0 (-0
/// passes), not merely within the absolute floor.
DiffReport diff_mttkrp(const CooTensor& x,
                       const std::vector<const DenseMatrix*>& factors,
                       Size mode, const DenseMatrix& actual);

}  // namespace pasta::validate
