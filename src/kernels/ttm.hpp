/// \file
/// Tensor-times-matrix (TTM / n-mode product, paper §II-D).
///
/// y = x ×_mode u with u in R^{I_mode x R} (the transposed convention of
/// the paper's footnote 2).  By the sparse-dense property the contracted
/// mode becomes dense with extent R, so the output is semi-sparse: sCOO for
/// the COO path, sHiCOO for the HiCOO path, one R-stripe per mode-`mode`
/// fiber of x.  A plan is a fiber view of the input (core/fibers) plus
/// the output pattern, bulk-filled from the fiber heads; the exec phase
/// is the timed fiber-parallel rank-R accumulation, one stripe loop
/// shared by both formats.
#pragma once

#include "common/parallel.hpp"
#include "core/coo_tensor.hpp"
#include "core/dense.hpp"
#include "core/fibers.hpp"
#include "core/scoo_tensor.hpp"
#include "core/shicoo_tensor.hpp"

namespace pasta {

/// Pre-processed state of COO-TTM.
struct CooTtmPlan {
    Size rank = 0;           ///< R, the matrix column count
    FiberView fibers;        ///< fibers-last sorted input + fptr
    ScooTensor out_pattern;  ///< semi-sparse output with zeroed stripes
};

/// Builds the COO-TTM plan for contracting `mode` of `x` with an
/// I_mode x rank matrix.
CooTtmPlan ttm_plan_coo(const CooTensor& x, Size mode, Size rank);

/// COO-TTM-OMP timed kernel (fiber-parallel, simd over rank).
void ttm_exec_coo(const CooTtmPlan& plan, const DenseMatrix& u,
                  ScooTensor& out);

/// Convenience one-shot COO-TTM.
ScooTensor ttm_coo(const CooTensor& x, const DenseMatrix& u, Size mode);

/// Pre-processed state of HiCOO-TTM.
struct HicooTtmPlan {
    Size rank = 0;
    GFiberView fibers;         ///< gHiCOO input (`mode` uncompressed) + fptr
    SHiCooTensor out_pattern;  ///< semi-sparse HiCOO output
};

/// Builds the HiCOO-TTM plan.
HicooTtmPlan ttm_plan_hicoo(const CooTensor& x, Size mode, Size rank,
                            unsigned block_bits = 7);

/// HiCOO-TTM-OMP timed kernel: the COO kernel's stripe loop over the
/// gHiCOO view.
void ttm_exec_hicoo(const HicooTtmPlan& plan, const DenseMatrix& u,
                    SHiCooTensor& out);

/// Convenience one-shot HiCOO-TTM.
SHiCooTensor ttm_hicoo(const CooTensor& x, const DenseMatrix& u, Size mode,
                       unsigned block_bits = 7);

}  // namespace pasta
