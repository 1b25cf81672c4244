/// \file
/// Conversions between the suite's sparse tensor formats.
///
/// Conversions are part of pre-processing, never of timed kernels: the
/// paper's algorithms take tensors already laid out in the target format.
/// All conversions are lossless (round-trips are exercised by tests).
#pragma once

#include <vector>

#include "core/coo_tensor.hpp"
#include "core/ghicoo_tensor.hpp"
#include "core/hicoo_tensor.hpp"
#include "core/scoo_tensor.hpp"
#include "core/shicoo_tensor.hpp"

namespace pasta {

/// Converts COO to HiCOO with block edge 2^block_bits.  Internally sorts a
/// copy of `x` into Morton block order (the HiCOO invariant) and splits it
/// into non-empty blocks.
HiCooTensor coo_to_hicoo(const CooTensor& x,
                         unsigned block_bits = HiCooTensor::kDefaultBlockBits);

/// Expands HiCOO back to COO (lexicographically sorted).
CooTensor hicoo_to_coo(const HiCooTensor& x);

/// Converts COO to gHiCOO.  `compressed[m]` selects block compression for
/// mode m.  Entries are ordered Morton-by-compressed-block, then
/// lexicographically by compressed element coordinates, then by the
/// uncompressed modes — so when exactly one mode is uncompressed, each
/// block holds whole fibers of that mode, contiguously (the property
/// HiCOO-TTV/TTM rely on).
GHiCooTensor coo_to_ghicoo(const CooTensor& x, std::vector<bool> compressed,
                           unsigned block_bits =
                               HiCooTensor::kDefaultBlockBits);

/// Expands gHiCOO back to COO (lexicographically sorted).
CooTensor ghicoo_to_coo(const GHiCooTensor& x);

/// Compacts a COO tensor whose mode `dense_mode` is (treated as) dense
/// into sCOO: groups non-zeros sharing all other coordinates into one
/// stripe.  Requires no special ordering of `x` (a sorted copy is made).
/// Under an armed memory governor it throws HostOomError naming
/// "scoo.convert" when the fiber view plus one stripe per fiber (I_n
/// values and N - 1 sparse indices) would not fit.
ScooTensor coo_to_scoo(const CooTensor& x, Size dense_mode);

/// Converts sCOO to sHiCOO (blocking the sparse modes).
SHiCooTensor scoo_to_shicoo(const ScooTensor& x,
                            unsigned block_bits =
                                HiCooTensor::kDefaultBlockBits);

/// True when the two tensors hold the same non-zeros with values equal to
/// within `tol` (both are canonicalized by lexicographic sort internally).
bool tensors_almost_equal(const CooTensor& a, const CooTensor& b,
                          double tol = 1e-4);

}  // namespace pasta
