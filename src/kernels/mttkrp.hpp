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
/// with one policy for both formats (mttkrp_contention), because
/// contention policy dominates MTTKRP throughput (Nguyen et al.,
/// arXiv:2201.12523):
///   - privatized (COO and HiCOO): each worker accumulates a contiguous,
///     non-zero-balanced range of the stream into a private output copy;
///     a race-free parallel reduction merges the copies.  HiCOO ranges
///     may start or end inside a block, so one hot block does not
///     serialize the call (work split by non-zeros, as F-COO does, Liu
///     et al. arXiv:1705.09905);
///   - block-owner (HiCOO only): blocks grouped by block_index(mode), one
///     thread per group, so no two threads ever share an output tile.
///     The grouping is built once at conversion and cached on the tensor
///     (HiCooTensor::owner_schedule);
///   - atomic: the paper's strategy, where neither of the others pays.
/// The explicit *_atomic and *_privatized entry points force a variant
/// for ablations and tests, and every dispatching kernel returns the
/// MttkrpVariant it executed so benchmark profiles can report the
/// crossover.
///
/// Execution.  Every schedule runs one fused loop per worker range (COO)
/// or block (HiCOO), with the ISA (simd/simd.hpp) picked once per call:
/// per non-zero it forms the Khatri-Rao product one 16-lane (AVX-512) or
/// 8-lane (AVX2) stripe at a time in a register and adds it onto the
/// output row, a private copy's row, or the atomic schedules' run
/// accumulator.  Every ISA does the scalar loop's multiplies and adds in
/// the same order, with no FMA, so the ISA does not change output bits.
///
/// Output bits.  The block-owner and sequential kernels give the same
/// bits at any thread count.  The privatized kernels give fixed bits at a
/// fixed thread count, but their ranges and reduction order follow the
/// thread count, so the bits differ across thread counts.  Atomics on
/// several threads are not deterministic.
///
/// Output zeroing.  Every kernel leaves `out` = the MTTKRP, with the rows
/// no non-zero maps to at +0; the bits equal those of zeroing `out` in
/// full and then accumulating.  The atomic and block-owner kernels use
/// DenseMatrix's accumulate protocol (core/dense.hpp), so a call zeroes
/// only the rows a previous call left non-zero, or nothing on a freshly
/// constructed output; the privatized kernels overwrite every row with
/// their reduction; the sequential kernel fills `out` in full.
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

/// The MTTKRP contention policy of both formats, for a mode of
/// `dim_mode` output rows, `nnz` non-zeros, rank `rank` and `threads`
/// workers; `owner_groups` is the HiCOO owner schedule's group count
/// (0 for COO, which has no owner schedule).  In order:
///   1. block-owner when there are owner groups and one worker, which
///      then needs neither copies nor atomics;
///   2. privatized when the replicated output (threads x dim_mode x rank
///      values) fits a 2^24-value (64 MiB) budget and the memory
///      governor, and the stream is dense enough in output rows
///      (2 x threads x dim_mode <= nnz) to amortize the reduce sweep;
///   3. block-owner with at least 2 x threads owner groups, enough to
///      keep the workers busy;
///   4. atomic otherwise.
/// Exposed so benches can report the crossover without running the
/// variants.
MttkrpVariant mttkrp_contention(Index dim_mode, Size nnz, Size rank,
                                int threads, Size owner_groups);

/// COO-MTTKRP-OMP timed kernel: leaves `out` (I_mode x R) = MTTKRP,
/// untouched rows +0.  Dispatches between the atomic and privatized
/// schedules via mttkrp_contention; returns the variant it ran.
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

/// HiCOO-MTTKRP-OMP timed kernel (Algorithm 3): parallel over blocks, or
/// over non-zero ranges when privatized.  Dispatches between the
/// block-owner, privatized and atomic schedules via mttkrp_contention;
/// returns the variant it ran.
MttkrpVariant mttkrp_hicoo(const HiCooTensor& x, const FactorList& factors,
                           Size mode, DenseMatrix& out);

/// Block-parallel HiCOO MTTKRP with atomic output updates, available
/// directly for ablations.  As in mttkrp_coo_atomic, consecutive
/// non-zeros of a block with one output row add up locally and are
/// flushed with one atomic set per run.
void mttkrp_hicoo_atomic(const HiCooTensor& x, const FactorList& factors,
                         Size mode, DenseMatrix& out);

/// Sequential COO-MTTKRP (no atomics), used as a deterministic baseline by
/// tests and by the single-thread crossover ablation.
void mttkrp_coo_seq(const CooTensor& x, const FactorList& factors, Size mode,
                    DenseMatrix& out);

/// Privatized COO-MTTKRP-OMP: each worker accumulates a contiguous range
/// of non-zeros into a private copy of the output matrix (indexed by
/// worker id, so buffers can never alias under any schedule), merged by
/// a race-free parallel reduction.  Trades O(threads x I_mode x R) extra
/// memory for atomic-free updates.
void mttkrp_coo_privatized(const CooTensor& x, const FactorList& factors,
                           Size mode, DenseMatrix& out);

/// Privatized HiCOO-MTTKRP-OMP: the same private copies and reduction as
/// mttkrp_coo_privatized, over non-zero-balanced ranges of the blocked
/// stream that may split a block.
void mttkrp_hicoo_privatized(const HiCooTensor& x, const FactorList& factors,
                             Size mode, DenseMatrix& out);

}  // namespace pasta
