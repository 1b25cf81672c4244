/// \file
/// Morton (Z-order) encoding of multi-mode block coordinates.
///
/// HiCOO sorts tensor blocks in Morton order (paper §III-D1: "data locality
/// is enhanced due to blocking and Morton order sorting implied by the
/// HiCOO format").  The encoding interleaves the bits of the per-mode block
/// indices so that nearby blocks in the tensor stay nearby in memory.
#pragma once

#include <bit>
#include <cstdint>

#include "common/types.hpp"

namespace pasta {

/// 128-bit Morton key: enough for 4 modes x 32-bit block indices.
struct MortonKey {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    friend bool operator<(const MortonKey& a, const MortonKey& b)
    {
        return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    }
    friend bool operator==(const MortonKey& a, const MortonKey& b)
    {
        return a.hi == b.hi && a.lo == b.lo;
    }
};

/// Interleaves the bits of `coords[0..order)` (little-endian bit 0 of mode 0
/// first) into a 128-bit Morton key.  Works for any order >= 1; for order
/// above 4, higher bits that overflow 128 bits are dropped, which only
/// weakens locality, never correctness (the key is used for sorting only).
inline MortonKey
morton_encode(const Index* coords, Size order)
{
    MortonKey key;
    if (order == 0)
        return key;
    // bit position b of mode m lands at interleaved position b*order + m.
    for (Size bit = 0; bit < 32; ++bit) {
        for (Size m = 0; m < order; ++m) {
            const std::uint64_t src = (coords[m] >> bit) & 1ULL;
            const Size pos = bit * order + m;
            if (pos < 64)
                key.lo |= src << pos;
            else if (pos < 128)
                key.hi |= src << (pos - 64);
        }
    }
    return key;
}

/// Exact three-way Morton comparison of two coordinates of any order:
/// the highest interleaved bit where they differ decides (bit b of mode m
/// sits at b * order + m), so nothing is truncated.  Agrees with
/// comparing morton_encode keys wherever those are exact (order <= 4).
inline int
morton_compare(const Index* a, const Index* b, Size order)
{
    Size top = order;
    Size top_pos = 0;
    for (Size m = 0; m < order; ++m) {
        const Index diff = a[m] ^ b[m];
        if (diff == 0)
            continue;
        const Size pos =
            static_cast<Size>(std::bit_width(diff) - 1) * order + m;
        if (top == order || pos > top_pos) {
            top = m;
            top_pos = pos;
        }
    }
    if (top == order)
        return 0;
    return a[top] < b[top] ? -1 : 1;
}

/// Convenience overload.
inline MortonKey
morton_encode(const Coordinate& coords)
{
    return morton_encode(coords.data(), coords.size());
}

}  // namespace pasta
