/// \file
/// Tensor-times-vector (TTV, paper §II-C, Algorithms 1 and 2).
///
/// y = x ×_mode v contracts one mode away.  The sparse-dense property
/// (§III-B1) makes the output pattern predictable: one output non-zero per
/// mode-`mode` fiber of x, with the fiber's remaining coordinates.  A plan
/// (the paper's pre-processing) is a fiber view of the input (core/fibers)
/// plus the output pattern, bulk-filled from the fiber heads; the exec
/// phase is the timed fiber-parallel accumulation, one loop shared by
/// both formats.
///
/// The HiCOO path follows §III-D1: its view is gHiCOO with the product
/// mode left uncompressed, so every block holds whole fibers and the
/// fiber loop runs with no inter-block race; the output is an
/// (N-1)-order HiCOO tensor whose blocks mirror the input blocks.
#pragma once

#include "common/parallel.hpp"
#include "core/coo_tensor.hpp"
#include "core/dense.hpp"
#include "core/fibers.hpp"
#include "core/hicoo_tensor.hpp"

namespace pasta {

/// Pre-processed state of COO-TTV (Algorithm 1, lines 1-2).
struct CooTtvPlan {
    FiberView fibers;       ///< fibers-last sorted input + fptr
    CooTensor out_pattern;  ///< (N-1)-order output, indices set, values 0
};

/// Builds the COO-TTV plan for contracting `mode` of `x`.
CooTtvPlan ttv_plan_coo(const CooTensor& x, Size mode);

/// COO-TTV-OMP timed kernel: accumulates into `out` (same pattern as
/// plan.out_pattern; values are overwritten).  Fiber-parallel with a
/// dynamic schedule (fiber lengths are imbalanced); each output value is
/// written by one worker, so the result is identical at any thread count.
void ttv_exec_coo(const CooTtvPlan& plan, const DenseVector& v,
                  CooTensor& out);

/// Convenience one-shot COO-TTV.
CooTensor ttv_coo(const CooTensor& x, const DenseVector& v, Size mode);

/// Pre-processed state of HiCOO-TTV.
struct HicooTtvPlan {
    GFiberView fibers;        ///< gHiCOO input (`mode` uncompressed) + fptr
    HiCooTensor out_pattern;  ///< (N-1)-order HiCOO output pattern
};

/// Builds the HiCOO-TTV plan (gHiCOO conversion + fiber discovery +
/// output pre-allocation).
HicooTtvPlan ttv_plan_hicoo(const CooTensor& x, Size mode,
                            unsigned block_bits =
                                HiCooTensor::kDefaultBlockBits);

/// HiCOO-TTV-OMP timed kernel: the COO kernel's fiber loop over the
/// gHiCOO view.
void ttv_exec_hicoo(const HicooTtvPlan& plan, const DenseVector& v,
                    HiCooTensor& out);

/// Convenience one-shot HiCOO-TTV.
HiCooTensor ttv_hicoo(const CooTensor& x, const DenseVector& v, Size mode,
                      unsigned block_bits =
                          HiCooTensor::kDefaultBlockBits);

}  // namespace pasta
