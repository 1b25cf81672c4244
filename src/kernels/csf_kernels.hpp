/// \file
/// CSF-based kernels (SPLATT-style), the suite extension the paper's §VII
/// schedules "in the near future".
///
/// CSF is mode-specific: a tree rooted at the output mode makes MTTKRP
/// race-free (every root owns its output row — no atomics, unlike
/// COO-MTTKRP-OMP) and prefix compression skips redundant factor-row
/// reloads along shared index prefixes.  TTV contracts the *leaf* mode,
/// where each level-(N-2) node owns one output non-zero.
#pragma once

#include "common/parallel.hpp"
#include "core/coo_tensor.hpp"
#include "core/csf_tensor.hpp"
#include "core/dense.hpp"
#include "kernels/mttkrp.hpp"

namespace pasta {

/// CSF-MTTKRP-OMP for the tree's root mode (x.mode_order()[0]).
/// Parallel over root nodes; no atomic operations are needed because
/// distinct roots update distinct output rows.  Throws when `mode` is not
/// the root mode — build the tree for the mode you need.
void mttkrp_csf(const CsfTensor& x, const FactorList& factors, Size mode,
                DenseMatrix& out);

/// CSF-TTV-OMP contracting the tree's leaf mode
/// (x.mode_order().back()).  Returns the (N-1)-order result in COO.
/// Parallel over the next-to-leaf fibers.
CooTensor ttv_csf(const CsfTensor& x, const DenseVector& v, Size mode);

}  // namespace pasta
