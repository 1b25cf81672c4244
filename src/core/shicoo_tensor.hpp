/// \file
/// Semi-sparse HiCOO (sHiCOO) format (paper §III-C, Fig. 2c).
///
/// The HiCOO analogue of sCOO: the dense mode(s) are stored as a dense
/// value stripe per sparse coordinate, while the sparse modes are
/// block-compressed HiCOO style (32-bit block indices shared by a block,
/// 8-bit element offsets per sparse coordinate).  HiCOO-TTM produces its
/// output in this format.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/block_math.hpp"
#include "core/scoo_tensor.hpp"

namespace pasta {

/// Arbitrary-order semi-sparse tensor: blocked sparse modes + dense modes.
class SHiCooTensor {
  public:
    SHiCooTensor() = default;

    /// Creates an empty sHiCOO tensor.  `dense_modes` ascending; the
    /// remaining modes are block-compressed with edge 2^block_bits.
    SHiCooTensor(std::vector<Index> dims, std::vector<Size> dense_modes,
                 unsigned block_bits);

    Size order() const { return dims_.size(); }
    const std::vector<Index>& dims() const { return dims_; }
    Index dim(Size mode) const { return dims_[mode]; }

    unsigned block_bits() const { return block_bits_; }
    Index block_size() const { return Index{1} << block_bits_; }

    const std::vector<Size>& sparse_modes() const { return sparse_modes_; }
    const std::vector<Size>& dense_modes() const { return dense_modes_; }

    /// Number of sparse coordinates (each owning one dense stripe).
    Size num_sparse() const
    {
        return stripe_volume_ == 0 ? 0 : values_.size() / stripe_volume_;
    }

    /// Values per stripe (product of dense extents).
    Size stripe_volume() const { return stripe_volume_; }

    Size num_blocks() const { return bptr_.empty() ? 0 : bptr_.size() - 1; }
    const std::vector<Size>& bptr() const { return bptr_; }

    /// Block index of block `b` along sparse-mode slot `s`
    /// (s indexes into sparse_modes()).
    BIndex block_index(Size s, Size b) const { return binds_[s][b]; }

    /// Element index of sparse coordinate `pos` along sparse slot `s`.
    EIndex element_index(Size s, Size pos) const { return einds_[s][pos]; }

    /// Reconstructed full index of sparse coordinate `pos` in block `b`
    /// along sparse slot `s`.
    Index sparse_coordinate(Size s, Size b, Size pos) const
    {
        return (static_cast<Index>(binds_[s][b]) << block_bits_) |
               einds_[s][pos];
    }

    /// Pointer to the dense stripe of sparse coordinate `pos`.
    Value* stripe(Size pos) { return values_.data() + pos * stripe_volume_; }
    const Value* stripe(Size pos) const
    {
        return values_.data() + pos * stripe_volume_;
    }

    std::vector<Value>& values() { return values_; }
    const std::vector<Value>& values() const { return values_; }

    /// Appends a block given block coordinates over sparse slots
    /// (arity = sparse_modes().size()); returns block id.
    Size append_block(const BIndex* block_coords);

    /// Appends one sparse coordinate (8-bit offsets per sparse slot) with
    /// a zero-filled stripe to the last block; returns its position.
    Size append_entry(const EIndex* element_coords);

    /// Resizes to `num_blocks` blocks and `num_sparse` zero-filled
    /// stripes and returns raw pointers for a bulk parallel fill of the
    /// pattern (the append-free path the HiCOO-TTM plan uses).
    BlockBulkFill bulk_fill(Size num_blocks, Size num_sparse);

    /// Storage bytes: block metadata + element offsets + value stripes.
    Size storage_bytes() const;

    /// Expands to sCOO (same dense modes).
    ScooTensor to_scoo() const;

    /// Validates invariants; throws PastaError on violation.
    void validate() const;

    std::string describe() const;

  private:
    std::vector<Index> dims_;
    std::vector<Size> sparse_modes_;
    std::vector<Size> dense_modes_;
    unsigned block_bits_ = 7;
    Size stripe_volume_ = 0;
    std::vector<std::vector<BIndex>> binds_;  ///< [sparse slot][block]
    std::vector<Size> bptr_;
    std::vector<std::vector<EIndex>> einds_;  ///< [sparse slot][pos]
    std::vector<Value> values_;               ///< num_sparse x stripe_volume
};

}  // namespace pasta
