/// \file
/// Hierarchical COO (HiCOO) format (paper §III-C, Fig. 2a; Li et al. SC'18).
///
/// HiCOO partitions the index space into cubical blocks of edge B = 2^bits
/// (the paper fixes B = 128) and stores each non-zero as (block, element):
/// 32-bit block indices shared by all non-zeros of a block, plus 8-bit
/// element offsets per non-zero.  A block pointer array `bptr` delimits the
/// non-zeros of each block.  Blocks are kept in Morton order, which is what
/// gives HiCOO its locality advantage.  Storage for an Nth-order tensor:
/// n_b(4N + 8) bytes of block metadata + M(N + 4) bytes of elements.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/block_math.hpp"

namespace pasta {

class CooTensor;

/// Atomic-free MTTKRP schedule for one mode: block ids grouped by their
/// output block index along that mode.  Blocks inside one group all write
/// the same B x R output tile; blocks in different groups write disjoint
/// tiles, so one thread per group needs no atomics.  Groups keep the
/// tensor's Morton block order internally (the grouping sort is stable),
/// preserving HiCOO's locality within a group.
struct OwnerSchedule {
    std::vector<Size> blocks;     ///< block ids, grouped by owner tile
    std::vector<Size> group_ptr;  ///< group boundaries, size groups()+1
    Size max_group_blocks = 0;    ///< largest group (load-balance signal)

    Size groups() const
    {
        return group_ptr.empty() ? 0 : group_ptr.size() - 1;
    }
};

/// Arbitrary-order sparse tensor in HiCOO format.
class HiCooTensor {
  public:
    /// Default HiCOO block edge (2^7 = 128), the paper's fixed choice that
    /// keeps per-block matrix tiles inside the last-level cache.
    static constexpr unsigned kDefaultBlockBits = 7;

    HiCooTensor() = default;

    /// Creates an empty HiCOO tensor with the given dims and block bits.
    /// Block edge is 2^block_bits and must fit the 8-bit element index,
    /// i.e. block_bits <= 8.
    HiCooTensor(std::vector<Index> dims, unsigned block_bits);

    Size order() const { return dims_.size(); }
    const std::vector<Index>& dims() const { return dims_; }
    Index dim(Size mode) const { return dims_[mode]; }

    /// log2 of the block edge.
    unsigned block_bits() const { return block_bits_; }

    /// Block edge B.
    Index block_size() const { return Index{1} << block_bits_; }

    /// Number of stored non-zeros M.
    Size nnz() const { return values_.size(); }

    /// Number of non-empty blocks n_b.
    Size num_blocks() const { return bptr_.empty() ? 0 : bptr_.size() - 1; }

    /// Block pointer array, size num_blocks()+1.
    const std::vector<Size>& bptr() const { return bptr_; }

    /// Block index of block `b` along `mode`.
    BIndex block_index(Size mode, Size b) const { return binds_[mode][b]; }

    /// Element index of non-zero `pos` along `mode`.
    EIndex element_index(Size mode, Size pos) const
    {
        return einds_[mode][pos];
    }

    /// Element indices of every non-zero along `mode`.
    const std::vector<EIndex>& element_indices(Size mode) const
    {
        return einds_[mode];
    }

    /// Value of non-zero `pos`.
    Value value(Size pos) const { return values_[pos]; }
    Value& value(Size pos) { return values_[pos]; }

    std::vector<Value>& values() { return values_; }
    const std::vector<Value>& values() const { return values_; }

    /// Appends a block with the given block coordinates (arity = order),
    /// whose entries will follow via append_entry; returns block id.
    Size append_block(const BIndex* block_coords);

    /// Appends one non-zero to the most recently appended block.
    void append_entry(const EIndex* element_coords, Value value);

    /// Resizes to `num_blocks` blocks and `nnz` zero-valued non-zeros and
    /// returns raw pointers for a bulk parallel fill of the pattern (the
    /// append-free path the HiCOO-TTV plan uses).
    BlockBulkFill bulk_fill(Size num_blocks, Size nnz);

    /// Reconstructs the full coordinate of non-zero `pos` in block `b`.
    Index coordinate(Size mode, Size b, Size pos) const
    {
        return (static_cast<Index>(binds_[mode][b]) << block_bits_) |
               element_index(mode, pos);
    }

    /// Non-zeros in the largest block; drives the GPU block-parallel
    /// MTTKRP load imbalance the paper's Observation 4 discusses.
    Size max_block_nnz() const;

    /// Mean non-zeros per block (the alpha_b compression indicator of the
    /// HiCOO paper; low values mean hyper-sparse tensors HiCOO dislikes).
    double mean_block_nnz() const;

    /// Storage bytes: n_b(4N+8) + M(N+4).
    Size storage_bytes() const;

    /// The block-owner MTTKRP schedule for `mode`.  Built on first use
    /// (coo_to_hicoo prebuilds every mode so timed kernels never pay the
    /// construction) and cached on the tensor; append_block invalidates
    /// the cache.
    const OwnerSchedule& owner_schedule(Size mode) const;

    /// Validates invariants; throws PastaError on violation.
    void validate() const;

    std::string describe() const;

  private:
    std::vector<Index> dims_;
    unsigned block_bits_ = kDefaultBlockBits;
    std::vector<std::vector<BIndex>> binds_;  ///< [mode][block]
    std::vector<Size> bptr_;                  ///< block boundaries, n_b+1
    std::vector<std::vector<EIndex>> einds_;  ///< [mode][pos]
    std::vector<Value> values_;

    /// Lazily built per-mode owner schedules (empty until first use).
    mutable std::vector<OwnerSchedule> owner_cache_;
    mutable std::vector<bool> owner_built_;
};

}  // namespace pasta
