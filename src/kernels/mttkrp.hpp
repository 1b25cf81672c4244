/// \file
/// Matricized tensor times Khatri-Rao product (MTTKRP, paper §II-E,
/// Algorithm 3).
///
/// For an Nth-order tensor x and factor matrices U^(m) in R^{I_m x R},
/// the mode-n MTTKRP updates row i_n of the output by
///   out(i_n, r) += x(i_1..i_N) * prod_{m != n} U^(m)(i_m, r).
/// The Khatri-Rao product is never materialized (paper §II-E): the kernel
/// fuses it into the sparse traversal.
///
/// Output-contention strategy.  The paper's reference kernels protect the
/// shared output matrix with atomics (the ParTI strategy); this suite
/// additionally provides atomic-free schedules and picks between them
/// automatically, because contention policy dominates MTTKRP throughput
/// (Nguyen et al., arXiv:2201.12523):
///   - COO: thread-private output copies merged by a race-free parallel
///     reduction (kPrivatized), chosen when the extra
///     threads x I_mode x R buffer is cheap relative to the per-non-zero
///     atomic traffic it eliminates;
///   - HiCOO: a block-owner partition (kBlockOwner) — blocks grouped by
///     block_index(mode), one thread per group, so no two threads ever
///     share an output tile.  The grouping is built once at conversion
///     and cached on the tensor (HiCooTensor::owner_schedule).
/// The explicit *_atomic entry points remain for ablations, and every
/// kernel returns the MttkrpVariant it executed so benchmark profiles can
/// report the crossover.
///
/// Output zeroing.  Every kernel leaves `out` = the MTTKRP, with the rows
/// no non-zero maps to at +0; the bits equal those of zeroing `out` in
/// full and then accumulating.  The atomic and block-owner kernels use
/// DenseMatrix's accumulate protocol (core/dense.hpp), so a call zeroes
/// only the rows a previous call left non-zero, or nothing on a freshly
/// constructed output; the privatized kernel overwrites every row with
/// its reduction; the sequential kernel fills `out` in full.
#pragma once

#include <vector>

#include "common/parallel.hpp"
#include "core/coo_tensor.hpp"
#include "core/dense.hpp"
#include "core/hicoo_tensor.hpp"

namespace pasta {

/// Factor matrix list: one DenseMatrix per tensor mode, all with R columns
/// and factors[m].rows() == x.dim(m).
using FactorList = std::vector<const DenseMatrix*>;

/// Validates factor shapes against `dims`; throws PastaError on mismatch.
/// Returns the common rank R.
Size check_factors(const std::vector<Index>& dims, const FactorList& factors);

/// Which output-contention strategy an MTTKRP call executed.
enum class MttkrpVariant {
    kAtomic,      ///< shared output, per-update omp atomic
    kPrivatized,  ///< per-thread private outputs + parallel reduction
    kBlockOwner,  ///< HiCOO owner-partitioned blocks, no atomics
};

/// Short stable name for profiles/benchmark labels ("atomic",
/// "privatized", "block-owner").
const char* mttkrp_variant_name(MttkrpVariant v);

/// The COO contention heuristic: privatize when the replicated output
/// (threads x dim_mode x rank) stays within budget and the non-zero
/// stream is dense enough in output rows (2 x threads x dim_mode <= nnz)
/// to amortize zeroing the private copies and the reduce sweep over
/// them; atomics otherwise.  Exposed so benches can report the
/// crossover without running both variants.
MttkrpVariant mttkrp_coo_pick(Index dim_mode, Size nnz, Size rank);

/// COO-MTTKRP-OMP timed kernel: leaves `out` (I_mode x R) = MTTKRP,
/// untouched rows +0.  Dispatches between the atomic and privatized
/// schedules via mttkrp_coo_pick; returns the variant it ran.
MttkrpVariant mttkrp_coo(const CooTensor& x, const FactorList& factors,
                         Size mode, DenseMatrix& out);

/// Parallel-over-non-zeros COO MTTKRP with atomic output updates (the
/// paper's reference strategy), available directly for ablations.
/// Contiguous per-worker ranges fuse runs of equal output index into a
/// local accumulator flushed by one atomic set per run, so a stream
/// sorted with `mode` leading pays roughly one atomic set per distinct
/// output row instead of one per non-zero.
void mttkrp_coo_atomic(const CooTensor& x, const FactorList& factors,
                       Size mode, DenseMatrix& out);

/// HiCOO-MTTKRP-OMP timed kernel (Algorithm 3): parallel over blocks.
/// Uses the cached block-owner schedule when it offers enough parallel
/// groups, atomics otherwise; returns the variant it ran.
MttkrpVariant mttkrp_hicoo(const HiCooTensor& x, const FactorList& factors,
                           Size mode, DenseMatrix& out);

/// Block-parallel HiCOO MTTKRP with atomic output updates, available
/// directly for ablations.
void mttkrp_hicoo_atomic(const HiCooTensor& x, const FactorList& factors,
                         Size mode, DenseMatrix& out);

/// Sequential COO-MTTKRP (no atomics), used as a deterministic baseline by
/// tests and by the single-thread crossover ablation.
void mttkrp_coo_seq(const CooTensor& x, const FactorList& factors, Size mode,
                    DenseMatrix& out);

/// Privatized COO-MTTKRP-OMP: each worker accumulates into a private
/// copy of the output matrix (indexed by worker id, so buffers can never
/// alias under any schedule), merged by a race-free parallel reduction.
/// Trades O(threads x I_mode x R) extra memory for atomic-free updates.
void mttkrp_coo_privatized(const CooTensor& x, const FactorList& factors,
                           Size mode, DenseMatrix& out);

}  // namespace pasta
