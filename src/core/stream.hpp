/// \file
/// Chunked out-of-core kernels over coordinate partitions (ROADMAP item
/// 1; streaming scheme after "Efficient, Out-of-Memory Sparse MTTKRP on
/// Massively Parallel Architectures", PAPERS.md).
///
/// The partition scheme reuses the radix-key machinery: pick one *lead*
/// mode, split its index range by its top bits into P = 2^k partitions,
/// and sweep the tensor one partition at a time.  Because the lead mode
/// is the most significant field of the lexicographic sort key, each
/// partition is a contiguous range of the globally sorted order — so a
/// per-chunk stable sort is exactly the restriction of the global stable
/// sort, and concatenating per-chunk results reproduces the in-memory
/// kernel's output bit for bit:
///
///  - coalesce_streamed leads with mode 0: duplicates share all
///    coordinates, hence a partition; per-chunk canonicalize(kSum) sums
///    each duplicate run serially in stream order, same as the global
///    coalesce.  Output goes to a PSTB v3 file, written section-wise
///    with a two-pass sweep so no full tensor is ever resident.
///  - mttkrp_coo_stream leads with the product mode: output rows are
///    disjoint across partitions; within a chunk a stable single-key
///    radix sort groups rows, and each row accumulates serially in
///    stream order — bit-identical to mttkrp_coo_seq at every thread
///    count (parallelism is across row runs, never within one).
///  - ttv_coo_stream leads with the first *kept* mode: a fiber fixes all
///    kept modes, so fibers never span partitions; each chunk runs the
///    ordinary ttv plan/exec and chunk outputs concatenate into
///    ttv_coo's exact output.
///
/// Bit-identity rests on the stable radix sort (core/sort_radix), which
/// every sort takes at any key width.
///
/// The *_budgeted entry points consult the memory governor: when the
/// whole tensor fits the remaining budget (and the trial harness has not
/// armed degraded mode after a HostOomError), they materialize and run
/// the in-memory kernel; otherwise they stream.  The decision is
/// recorded as an obs label "stream.variant" (e.g. "mttkrp_stream_p16",
/// "ttv_inmem") so journals and CSV profiles carry the routing, exactly
/// like MTTKRP's contention variant.
///
/// mttkrp_coo_stream optionally checkpoints to
/// StreamOptions::checkpoint_path as an append-only log (PSCK v2): a
/// header fixing the sweep (mode, P, output shape), then one
/// FNV-checksummed record per finished partition carrying only the
/// output rows that partition owns, appended and fsync'd before the
/// progress hook fires.  A sweep therefore writes O(output) bytes, not
/// O(P x output).  A rerun pointing at the same path replays the valid
/// prefix of records, truncates any torn or corrupt tail, and resumes at
/// the first incomplete partition — this is what lets a killed
/// out-of-core trial restart without redoing finished work.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/coo_tensor.hpp"
#include "core/dense.hpp"
#include "io/binary_io.hpp"
#include "kernels/mttkrp.hpp"

namespace pasta::stream {

/// Knobs for one streamed sweep.
struct StreamOptions {
    /// Cap on the partition count P (power of two; planning doubles P
    /// until the largest chunk fits the budget or this cap is hit).
    Size max_partitions = 4096;

    /// Called after each completed partition with (done, total).  A
    /// throwing hook aborts the sweep — tests use this to simulate a
    /// kill between checkpoints.
    std::function<void(Size done, Size total)> progress;

    /// When non-empty, mttkrp_coo_stream keeps a PSCK v2 log here: the
    /// header is published once (write-temp + fsync + rename + dir
    /// fsync), then each finished partition appends its own rows as an
    /// FNV-checksummed record and fsyncs.  The next run replays records
    /// from partition 0 on until the first missing, torn or corrupt one,
    /// truncates the file there and appends from that point; a missing,
    /// foreign-version or mismatched header starts a fresh log.  A stale
    /// `<path>.tmp` left by a SIGKILL'd writer is removed at sweep
    /// entry.
    std::string checkpoint_path;
};

/// How a budgeted entry point routed and how far it got; mirrored into
/// the obs label "stream.variant" and the journal's partition fields.
struct StreamDecision {
    bool streamed = false;    ///< false: in-memory kernel ran
    Size partitions = 1;      ///< P of the sweep (1 for in-memory)
    Size resumed_from = 0;    ///< partitions skipped via checkpoint
    std::string variant;      ///< e.g. "mttkrp_stream_p16"
};

/// Partition table over one lead mode of a mapped tensor: partition of a
/// non-zero = lead index >> shift.
struct PartitionPlan {
    Size lead_mode = 0;
    unsigned shift = 0;          ///< bits_for(dim) - log2(partitions)
    Size partitions = 1;
    std::vector<Size> counts;    ///< per-partition non-zero counts
    Size max_count = 0;          ///< largest partition
};

/// Builds the partition plan for `lead_mode`: the smallest power-of-two
/// P (up to `max_partitions`) whose largest chunk's COO footprint fits
/// `chunk_budget_bytes`.  A zero budget plans a single partition.
/// Throws membudget::HostOomError when even the finest split does not
/// fit.
PartitionPlan plan_partitions(const MappedCooTensor& x, Size lead_mode,
                              std::uint64_t chunk_budget_bytes,
                              Size max_partitions);

/// Materializes partition `p` (stream order preserved, governor-
/// checked).  The chunk is neither sorted nor coalesced.
CooTensor gather_partition(const MappedCooTensor& x,
                           const PartitionPlan& plan, Size p);

/// Streamed canonicalize-sum: sorts and coalesces `x` partition by
/// partition and writes the result to `out_path` as PSTB v3, never
/// holding more than one chunk resident.  Bit-identical to
/// to_coo().canonicalize(kSum) on the stable sort path.  Returns the
/// sweep decision (variant "coalesce_stream_pN").
StreamDecision coalesce_streamed(const MappedCooTensor& x,
                                 const std::string& out_path,
                                 const StreamOptions& opts = {});

/// Streaming mode-`mode` MTTKRP: sweeps partitions of the product mode,
/// accumulating disjoint row blocks of `out`.  Bit-identical to
/// mttkrp_coo_seq at every thread count.  Honors
/// StreamOptions::checkpoint_path for kill/resume.
StreamDecision mttkrp_coo_stream(const MappedCooTensor& x,
                                 const FactorList& factors, Size mode,
                                 DenseMatrix& out,
                                 const StreamOptions& opts = {});

/// Streaming TTV contracting `mode`: sweeps partitions of the first
/// kept mode, running the ordinary COO-TTV plan/exec per chunk; chunk
/// outputs concatenate into ttv_coo's exact output (which must fit in
/// memory — it is one non-zero per fiber; the *input* working set is
/// what stays bounded).  Requires order >= 2.
StreamDecision ttv_coo_stream(const MappedCooTensor& x,
                              const DenseVector& v, Size mode,
                              CooTensor& out,
                              const StreamOptions& opts = {});

/// Budgeted MTTKRP over a mapped tensor: materializes and runs the
/// in-memory kernel when the governor grants the full COO footprint and
/// degraded mode is off; streams otherwise.  Sets obs label
/// "stream.variant" either way.
StreamDecision mttkrp_coo_budgeted(const MappedCooTensor& x,
                                   const FactorList& factors, Size mode,
                                   DenseMatrix& out,
                                   const StreamOptions& opts = {});

/// Budgeted TTV over a mapped tensor (see mttkrp_coo_budgeted).
StreamDecision ttv_coo_budgeted(const MappedCooTensor& x,
                                const DenseVector& v, Size mode,
                                CooTensor& out,
                                const StreamOptions& opts = {});

/// Budgeted canonicalize-sum to a PSTB v3 file (see mttkrp_coo_budgeted).
StreamDecision coalesce_budgeted(const MappedCooTensor& x,
                                 const std::string& out_path,
                                 const StreamOptions& opts = {});

}  // namespace pasta::stream
