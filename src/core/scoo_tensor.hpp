/// \file
/// Semi-sparse COO (sCOO) format (paper §III-A, Fig. 1b).
///
/// A semi-sparse tensor has one or more *dense* modes: every fiber along a
/// dense mode is a fully dense vector.  sCOO keeps COO index arrays for the
/// sparse modes only and stores, per sparse coordinate, a dense stripe of
/// values covering the dense modes.  The TTM output Y = X x_n U is exactly
/// such a tensor: mode n becomes dense with extent R (sparse-dense
/// property, §III-B1).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/coo_tensor.hpp"

namespace pasta {

/// Raw mutable views for bulk parallel stripe fills: one pointer per
/// sparse-mode slot, `num_sparse` coordinates each, stripes zero-filled.
/// Obtained from ScooTensor::bulk_fill_stripes.
struct ScooBulkFill {
    std::vector<Index*> sparse;
    Size num_sparse = 0;
};

/// Arbitrary-order semi-sparse tensor with dense mode(s).
class ScooTensor {
  public:
    ScooTensor() = default;

    /// Creates an empty semi-sparse tensor.  `dense_modes` lists the modes
    /// stored densely (ascending, at least one, fewer than order).
    ScooTensor(std::vector<Index> dims, std::vector<Size> dense_modes);

    /// Total number of modes (sparse + dense).
    Size order() const { return dims_.size(); }

    const std::vector<Index>& dims() const { return dims_; }
    Index dim(Size mode) const { return dims_[mode]; }

    /// Modes stored sparsely / densely, each ascending.
    const std::vector<Size>& sparse_modes() const { return sparse_modes_; }
    const std::vector<Size>& dense_modes() const { return dense_modes_; }

    /// Number of stored sparse coordinates (one dense stripe each).
    Size num_sparse() const { return values_.empty() && stripe_volume() == 0
                                  ? 0
                                  : values_.size() / stripe_volume(); }

    /// Product of dense-mode extents: values per stripe.
    Size stripe_volume() const { return stripe_volume_; }

    /// Reserves room for `n` sparse coordinates.
    void reserve(Size n);

    /// Appends one sparse coordinate (arity = sparse_modes().size()) with a
    /// zero-filled stripe; returns its position.
    Size append_stripe(const Index* sparse_coords);

    /// Resizes to exactly `n` sparse coordinates (stripes zero-filled)
    /// and returns raw index pointers for a bulk parallel fill — the
    /// append-free path the TTM plan builder uses.  Every slot must be
    /// written with in-range indices.
    ScooBulkFill bulk_fill_stripes(Size n);

    /// Index of sparse coordinate `pos` along sparse mode slot `s`
    /// (s indexes into sparse_modes()).
    Index sparse_index(Size s, Size pos) const
    {
        return sparse_indices_[s][pos];
    }

    std::vector<Index>& sparse_mode_indices(Size s)
    {
        return sparse_indices_[s];
    }
    const std::vector<Index>& sparse_mode_indices(Size s) const
    {
        return sparse_indices_[s];
    }

    /// All sparse index arrays at once ([slot][pos]), the columns the
    /// radix key builder consumes.
    const std::vector<std::vector<Index>>& sparse_indices_view() const
    {
        return sparse_indices_;
    }

    /// Pointer to the dense stripe of sparse coordinate `pos`
    /// (stripe_volume() contiguous values, row-major over dense modes in
    /// dense_modes() order).
    Value* stripe(Size pos) { return values_.data() + pos * stripe_volume_; }
    const Value* stripe(Size pos) const
    {
        return values_.data() + pos * stripe_volume_;
    }

    std::vector<Value>& values() { return values_; }
    const std::vector<Value>& values() const { return values_; }

    /// Element lookup by full coordinate; 0 when the sparse part is absent.
    /// Linear scan over sparse coordinates; tests/small tensors only.
    Value at(const Coordinate& coords) const;

    /// Storage bytes: sparse indices + dense value stripes.
    Size storage_bytes() const;

    /// Expands to plain COO, dropping exact zeros inside stripes.
    CooTensor to_coo() const;

    /// Validates invariants; throws PastaError on violation.
    void validate() const;

    std::string describe() const;

  private:
    std::vector<Index> dims_;
    std::vector<Size> sparse_modes_;
    std::vector<Size> dense_modes_;
    Size stripe_volume_ = 0;
    std::vector<std::vector<Index>> sparse_indices_;  ///< [slot][pos]
    std::vector<Value> values_;  ///< num_sparse x stripe_volume
};

}  // namespace pasta
