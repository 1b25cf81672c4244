/// \file
/// Sparse tensor index reordering (relabeling).
///
/// Table I's traffic figures are irregular-access upper bounds; the paper
/// notes "data reuse could happen if its access has or gains a good
/// localized pattern naturally or from reordering techniques [23], [33]".
/// This module provides the mode-index relabelings that realize that
/// gain: degree (non-zero count) ordering clusters hub indices together,
/// which densifies HiCOO blocks and improves factor-row reuse in MTTKRP.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/coo_tensor.hpp"

namespace pasta {

/// A relabeling of one mode: perm[old_index] = new_index (a bijection on
/// [0, dim)).
using Relabeling = std::vector<Index>;

/// Relabeling that sorts mode `mode`'s indices by descending non-zero
/// count (hubs first); ties keep ascending original order.
Relabeling degree_relabeling(const CooTensor& x, Size mode);

/// Uniformly random relabeling of extent `n` (ablation baseline).
Relabeling random_relabeling(Size n, Rng& rng);

/// Returns a copy of `x` with mode `mode` relabeled by `perm`
/// (lexicographically re-sorted).
CooTensor relabel_mode(const CooTensor& x, Size mode,
                       const Relabeling& perm);

/// Applies degree relabeling to every mode of `x`.
CooTensor degree_reorder(const CooTensor& x);

/// Validates that `perm` is a bijection on [0, n); throws PastaError.
void check_relabeling(const Relabeling& perm, Size n);

}  // namespace pasta
