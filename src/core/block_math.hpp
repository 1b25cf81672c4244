/// \file
/// Overflow-safe block arithmetic for the blocked formats (HiCOO family).
///
/// Block counts are `ceil(dim / 2^bits)`.  Computing that in 32-bit Index
/// arithmetic wraps for dims near UINT32_MAX (`dim + block_size - 1`
/// overflows), silently reporting ~0 blocks for the largest dimensions the
/// type can describe.  These helpers widen to 64-bit Size first, which can
/// never overflow for Index dims and block bits in [1, 8].
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pasta {

/// Thrown when a dimension cannot be partitioned into blocks (zero extent
/// or unusable block bits).  Names the mode and dim so the offending input
/// is identifiable from the failure record.
class BlockRangeError : public PastaError {
  public:
    explicit BlockRangeError(const std::string& what) : PastaError(what) {}
};

/// Raw mutable views into a blocked tensor's index arrays for a bulk
/// parallel fill: one block-coordinate and one element-offset pointer
/// per blocked mode, plus the block pointer (num_blocks + 1 entries).
/// Obtained from HiCooTensor::bulk_fill or SHiCooTensor::bulk_fill; every
/// slot must be written before the tensor is used.
struct BlockBulkFill {
    std::vector<BIndex*> blocks;
    std::vector<EIndex*> elements;
    Size* bptr = nullptr;
};

/// Number of blocks of edge 2^bits covering a dimension of extent `dim`,
/// computed in 64-bit arithmetic: `(dim + 2^bits - 1) >> bits` cannot wrap.
inline Size
block_count(Index dim, unsigned bits)
{
    const Size edge = Size{1} << bits;
    return (static_cast<Size>(dim) + edge - 1) >> bits;
}

/// Validates that mode `mode` of extent `dim` can be blocked with
/// 2^bits-edge blocks; throws BlockRangeError naming the mode and dim.
inline void
check_blockable(Index dim, unsigned bits, Size mode)
{
    if (bits < 1 || bits > 8)
        throw BlockRangeError("block bits " + std::to_string(bits) +
                              " out of range [1,8] blocking mode " +
                              std::to_string(mode) + " (dim " +
                              std::to_string(dim) + ")");
    if (dim == 0)
        throw BlockRangeError("mode " + std::to_string(mode) +
                              " has zero extent; cannot block dim " +
                              std::to_string(dim));
}

}  // namespace pasta
