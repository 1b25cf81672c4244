/// \file
/// Coordinate (COO) format for arbitrary-order sparse tensors (paper §III-A,
/// Fig. 1a).
///
/// Values live in one array; each mode contributes one 32-bit index array of
/// the same length.  Storage of an Nth-order tensor with M non-zeros is
/// 4(N+1)M bytes, exactly the figure the paper's Table I analysis assumes.
/// COO is mode-generic: a single representation serves computations along
/// every mode, which is why the suite builds on it.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace pasta {

namespace radix {
struct KeyLayout;
}

/// What to do with duplicate coordinates during canonicalization.
/// Producers (file readers, generators) must choose explicitly instead of
/// assuming their input is duplicate-free.
enum class DuplicatePolicy {
    kReject,  ///< throw PastaError naming the first duplicate coordinate
    kSum,     ///< merge duplicates by summing their values (coalesce)
};

/// Raw mutable views into one tensor's arrays for bulk parallel fills:
/// one pointer per mode plus the value pointer, all `nnz` long.  Obtained
/// from CooTensor::bulk_fill; every slot must be written before the
/// tensor is used (contents are unspecified until then).
struct CooBulkFill {
    std::vector<Index*> modes;
    Value* values = nullptr;
    Size nnz = 0;
};

/// Arbitrary-order sparse tensor in coordinate format.
class CooTensor {
  public:
    CooTensor() = default;

    /// Creates an empty tensor with the given per-mode dimension sizes.
    explicit CooTensor(std::vector<Index> dims);

    /// Number of modes (the tensor order N).
    Size order() const { return dims_.size(); }

    /// Per-mode dimension sizes.
    const std::vector<Index>& dims() const { return dims_; }

    /// Dimension size of one mode.
    Index dim(Size mode) const { return dims_[mode]; }

    /// Number of stored non-zeros M.
    Size nnz() const { return values_.size(); }

    /// Reserves space for `n` non-zeros.
    void reserve(Size n);

    /// Appends one non-zero.  `coords` must have order() entries, each in
    /// range for its mode.  Duplicate coordinates are permitted until
    /// coalesce() is called.  (Deliberately no raw-pointer overload: a
    /// braced `{0}` would silently convert to a null pointer.)
    void append(const Coordinate& coords, Value value);

    /// Resizes to `n` non-zeros (new entries zero-valued at the origin).
    /// Used by pre-processing stages that fill indices afterwards.
    void resize_nnz(Size n);

    /// Resizes to exactly `n` non-zeros and returns raw pointers for a
    /// bulk parallel fill.  This is the append-free materialization path
    /// used by the merge engine and the TTV/TTM plan builders: workers
    /// write disjoint slots directly instead of serializing on append.
    /// The caller is responsible for writing every slot with in-range
    /// indices (validate() checks after the fact).
    CooBulkFill bulk_fill(Size n);

    /// Index of non-zero `pos` along `mode`.
    Index index(Size mode, Size pos) const { return indices_[mode][pos]; }

    /// Mutable/const access to one mode's whole index array.
    std::vector<Index>& mode_indices(Size mode) { return indices_[mode]; }
    const std::vector<Index>& mode_indices(Size mode) const
    {
        return indices_[mode];
    }

    /// All index arrays at once ([mode][pos]), the layout the radix key
    /// builders and the merge engine consume.
    const std::vector<std::vector<Index>>& indices_view() const
    {
        return indices_;
    }

    /// Value of non-zero `pos`.
    Value value(Size pos) const { return values_[pos]; }
    Value& value(Size pos) { return values_[pos]; }

    /// Mutable/const access to the value array.
    std::vector<Value>& values() { return values_; }
    const std::vector<Value>& values() const { return values_; }

    /// Full coordinate of non-zero `pos` (allocates; use in tests/IO only).
    Coordinate coordinate(Size pos) const;

    /// Sorts non-zeros lexicographically by mode order 0,1,...,N-1.
    /// Every sort here is a stable radix sort (core/sort_radix):
    /// duplicate coordinates keep their input order.
    void sort_lexicographic();

    /// Sorts lexicographically by the given permutation of modes
    /// (`mode_order[0]` is the most significant mode).
    void sort_by_mode_order(const std::vector<Size>& mode_order);

    /// Sorts so that non-zeros of one mode-`mode` fiber are contiguous and
    /// ordered by that mode within the fiber: lexicographic by all modes
    /// except `mode`, then by `mode`.  This is the pre-processing order
    /// required by TTV/TTM (Algorithm 1, line 1).
    void sort_fibers_last(Size mode);

    /// Sorts non-zeros by the Morton order of their block coordinates with
    /// blocks of edge 2^block_bits, breaking ties lexicographically inside
    /// a block.  This is the ordering HiCOO conversion relies on.
    void sort_morton(unsigned block_bits);

    /// True when non-zeros are sorted lexicographically (mode order
    /// 0..N-1) with no duplicate coordinates.
    bool is_sorted_lexicographic() const;

    /// Merges duplicate coordinates by summing their values.  Requires the
    /// tensor to be lexicographically sorted first.  Parallel two-pass
    /// (count run heads -> exclusive scan -> fill); each duplicate run is
    /// summed serially in stream order, so the result is bit-identical
    /// for every worker count.
    void coalesce();

    /// Number of non-zeros sharing a coordinate with an earlier non-zero.
    /// Requires the tensor to be lexicographically sorted first.
    Size count_duplicates() const;

    /// Sorts lexicographically and applies `policy` to duplicate
    /// coordinates: kReject throws PastaError naming the first duplicate,
    /// kSum coalesces.  Afterwards is_sorted_lexicographic() holds.
    void canonicalize(DuplicatePolicy policy);

    /// Looks up the value at `coords`, 0 when absent.  Linear scan; for
    /// tests and small tensors only.
    Value at(const Coordinate& coords) const;

    /// Storage footprint in bytes: 4(N+1)M (32-bit indices + 32-bit vals).
    Size storage_bytes() const;

    /// True when `other` has identical order, dims, and coordinates (in
    /// the same order); values may differ.
    bool same_pattern(const CooTensor& other) const;

    /// Validates internal invariants (index ranges, array lengths); throws
    /// PastaError when violated.  Used by IO paths and tests.
    void validate() const;

    /// One-line human-readable description ("3-order 16x16x16, 42 nnz").
    std::string describe() const;

    /// Generates a tensor with `nnz` distinct uniform-random coordinates
    /// and uniform values in [0,1), lexicographically sorted.
    static CooTensor random(const std::vector<Index>& dims, Size nnz,
                            Rng& rng);

    /// Applies `perm` (a permutation of [0,nnz)) to all arrays:
    /// new position p holds old non-zero perm[p].
    void apply_permutation(const std::vector<Size>& perm);

  private:
    /// Sorts by the keys `layout` packs; `kind` names the order in the
    /// `sort.path` label.
    void sort_by_key(const radix::KeyLayout& layout, const char* kind);

    std::vector<Index> dims_;
    std::vector<std::vector<Index>> indices_;  ///< indices_[mode][pos]
    std::vector<Value> values_;
};

}  // namespace pasta
