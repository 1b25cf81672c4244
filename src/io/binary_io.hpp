/// \file
/// Compact binary tensor format for fast dataset caching and
/// memory-mapped out-of-core access.
///
/// PSTB v3 layout (little-endian, host-order):
///   magic "PSTB" | u32 version | u64 order | u64 nnz | u32 dims[order] |
///   u64 section_offset[order+1] | u64 header_checksum |
///   zero pad to section_offset[0] |
///   Index indices[0][nnz] ... Index indices[order-1][nnz] |
///   Value values[nnz] | u64 payload_checksum
/// Each section (one mode-major index array per mode, then the value
/// array) starts at a page-aligned (4 KiB) file offset recorded in the
/// header's section table, so a reader can mmap the file and hand out
/// typed pointers directly: loading then costs address space, not RAM.
/// The header checksum (FNV-1a over order/nnz/dims/section table) lets a
/// reader reject a corrupt section table before trusting any offset, and
/// the file size is validated against the header-declared section sizes
/// *up front* — a truncated file fails before any allocation or read,
/// never mid-read with a partial tensor.  The trailing payload checksum
/// covers dims + index arrays + values; full reads verify it, while mmap
/// opens skip it by default (verifying would page the whole file in) and
/// offer verify_checksum() for callers that want the end-to-end
/// guarantee.
///
/// Only v3 is read; the registry regenerates an older cache entry on its
/// usual self-healing path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/coo_tensor.hpp"

namespace pasta {

/// FNV-1a 64-bit over `n` bytes, chainable via `seed`.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t seed = 1469598103934665603ULL);

/// Writes `x` to `path` in PSTB v3 format; throws PastaError on IO
/// failure.
void write_binary_file(const std::string& path, const CooTensor& x);

/// Reads a PSTB v3 file fully into memory; throws PastaError on
/// IO/format/checksum errors and membudget::HostOomError when the
/// resident tensor would not fit the armed memory budget.
CooTensor read_binary_file(const std::string& path);

/// Streaming concatenation for the out-of-core sweeps: writes the union
/// of `parts` (PSTB v3 files whose dims all equal `dims`, disjoint and
/// globally ordered in list order) to `out_path` as one PSTB v3 file.
/// Sections are copied part by part through mmap and the page cache, so
/// no full tensor is ever resident.
void concat_binary_files(const std::string& out_path,
                         const std::vector<Index>& dims,
                         const std::vector<std::string>& parts);

/// Read-only COO tensor backed by an mmap of a PSTB v3 file.
///
/// Construction validates the header, the section table, and the file
/// size (all up front, via the "io.mmap" fault point), then maps the
/// whole file MAP_PRIVATE/PROT_READ.  Index and value arrays are served
/// straight from the page cache: touching a section pages in only what
/// is accessed, which is what lets the out-of-core kernels in
/// src/core/stream sweep coordinate partitions of a tensor bigger than
/// the memory budget.  Move-only; the mapping is released on
/// destruction.
class MappedCooTensor {
  public:
    /// Maps `path`; throws PastaError on malformed/truncated files or
    /// mmap failure.
    explicit MappedCooTensor(const std::string& path);

    MappedCooTensor(const MappedCooTensor&) = delete;
    MappedCooTensor& operator=(const MappedCooTensor&) = delete;
    MappedCooTensor(MappedCooTensor&& other) noexcept;
    MappedCooTensor& operator=(MappedCooTensor&& other) noexcept;
    ~MappedCooTensor();

    Size order() const { return dims_.size(); }
    const std::vector<Index>& dims() const { return dims_; }
    Index dim(Size mode) const { return dims_[mode]; }
    Size nnz() const { return nnz_; }
    const std::string& path() const { return path_; }

    /// Pointer to one mode's whole index array (nnz entries).
    const Index* mode_indices(Size mode) const;

    /// Pointer to the value array (nnz entries).
    const Value* values() const;

    /// Materializes non-zeros [lo, hi) as an in-memory tensor (governor-
    /// checked).  The slice preserves stream order; it is NOT coalesced
    /// or re-sorted.
    CooTensor slice(Size lo, Size hi) const;

    /// Materializes the whole tensor (governor-checked).
    CooTensor to_coo() const;

    /// Recomputes the trailing payload checksum (pages the whole file
    /// in); true when it matches the stored value.
    bool verify_checksum() const;

    /// Total mapped file size in bytes.
    std::uint64_t file_bytes() const { return map_bytes_; }

  private:
    void unmap() noexcept;

    std::string path_;
    std::vector<Index> dims_;
    Size nnz_ = 0;
    void* map_ = nullptr;
    std::uint64_t map_bytes_ = 0;
    std::vector<std::uint64_t> section_offsets_;  ///< order+1 entries
    std::uint64_t stored_checksum_ = 0;
};

}  // namespace pasta
