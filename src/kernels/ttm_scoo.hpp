/// \file
/// TTM over semi-sparse (sCOO) inputs.
///
/// A TTM output is semi-sparse (the contracted mode turns dense,
/// §III-B1); chaining TTMs — the Tucker use case the paper highlights —
/// therefore needs TTM *on* semi-sparse tensors, or every intermediate
/// must be expanded back to COO (inflating the non-zero count by the
/// stripe volume).  This kernel contracts a sparse mode of an sCOO
/// tensor directly: output stripes grow by a factor R and the contracted
/// mode joins the dense set, exactly the repeated-TTM pattern
/// Y = X x_{m1} U1 x_{m2} U2 ... of the Tucker decomposition.
#pragma once

#include "common/parallel.hpp"
#include "core/coo_tensor.hpp"
#include "core/dense.hpp"
#include "core/scoo_tensor.hpp"

namespace pasta {

/// Contracts sparse mode `mode` of the semi-sparse tensor `x` with
/// `u` in R^{I_mode x R}: returns a semi-sparse tensor whose dense modes
/// are x's dense modes plus `mode` (with extent R), and whose sparse
/// coordinates are x's mode-`mode` fibers.  Throws when `mode` is dense
/// in `x` or when it is x's only sparse mode (the result would have no
/// sparse part; expand to dense yourself in that case).
ScooTensor ttm_scoo(const ScooTensor& x, const DenseMatrix& u, Size mode);

/// Fused endgame of a TTM chain: contracts BOTH sparse modes of a
/// two-sparse-mode sCOO tensor in one sweep, accumulating straight into
/// a (small, fully dense) core-shaped buffer and emitting the final COO
/// result — no intermediate sCOO stripe materialization and no
/// to_coo()/re-sort round trip between the two contractions.  `mode_a`/
/// `mode_b` (either order) must be exactly the tensor's sparse modes.
/// The sparse slots are summed in a fixed number of chunks, in chunk
/// order, so the result is bit-identical at any thread count.
CooTensor ttm_scoo_fused2(const ScooTensor& x, const DenseMatrix& ua,
                          Size mode_a, const DenseMatrix& ub, Size mode_b);

}  // namespace pasta
