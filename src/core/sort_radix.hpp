/// \file
/// Parallel LSD radix sort on multi-word packed coordinate keys.
///
/// Every format conversion the suite benchmarks begins with a sort of the
/// COO stream — lexicographic for CSF/sCOO, Morton for HiCOO and its
/// variants (paper §III-C/D).  Each order is one KeyLayout: an optional
/// Morton group (block coordinates bit-interleaved) followed by
/// concatenated coordinate fields, most significant first.  build_keys
/// packs every non-zero's coordinate into W = ceil(bits / 64) 64-bit
/// words, and sort_perm runs a stable least-significant-digit radix sort
/// over 8-bit digits, least significant word first: per-chunk histograms
/// in parallel, one serial 256 x chunks exclusive scan, then a stable
/// parallel scatter.  Stable passes over the concatenated fields give
/// exactly the order a comparator over the same fields gives, so no
/// comparator sort is needed at any key width; and a stable sort's
/// output permutation is unique, so results are bit-identical for every
/// thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pasta::radix {

/// Number of key bits needed to represent coordinates in [0, dim).
unsigned bits_for(Index dim);

/// One concatenated key field: the low `width` bits of a column's index.
struct KeyField {
    Size column = 0;
    unsigned width = 0;
};

/// Bit layout of a sort key, most significant part first.  Columns name
/// index arrays of the stream being sorted (tensor modes, or sCOO sparse
/// slots).
struct KeyLayout {
    /// Morton group: each column's `index >> block_bits`, bit-interleaved
    /// at `group_width` bits per column (bit b of group[s] lands at
    /// b * group.size() + s above the fields, as in common/morton.hpp).
    std::vector<Size> group;
    unsigned block_bits = 0;
    unsigned group_width = 0;
    /// Concatenated fields below the group, most significant first.
    std::vector<KeyField> fields;

    /// Total key bits.
    unsigned bits() const;
    /// 64-bit words per key (at least one).
    Size words() const;
    /// The `sort.path` label of a sort over this layout: "<kind>-radix64"
    /// for one-word keys, "<kind>-radix128" for two, and so on.
    std::string path_label(const char* kind) const;
};

/// Appends the full coordinates of `columns` (first most significant);
/// columns with dims[c] <= 1 contribute no bits.
void append_lex_fields(KeyLayout& layout, const std::vector<Index>& dims,
                       const std::vector<Size>& columns);

/// Lexicographic order over `columns`, first most significant.
KeyLayout lex_layout(const std::vector<Index>& dims,
                     const std::vector<Size>& columns);

/// Morton order of the `group` columns' blocks of edge 2^block_bits,
/// then their in-block offsets (group order) — lexicographic inside a
/// block.  The group width is the widest block coordinate among them.
KeyLayout morton_layout(const std::vector<Index>& dims,
                        const std::vector<Size>& group, unsigned block_bits);

/// Multi-word keys, one array per word; words[0] holds the least
/// significant 64 bits of every key.
using KeyWords = std::vector<std::vector<std::uint64_t>>;

/// Packs every position of `columns[c][pos]` under `layout`, in
/// parallel.  Bits above a field's width are dropped.
KeyWords build_keys(const KeyLayout& layout,
                    const std::vector<std::vector<Index>>& columns);

/// Stable parallel LSD radix sort by the W-word keys (ascending); `perm`
/// receives the applied permutation (perm[p] = original position of the
/// element now at p).  Word 0 is sorted first; each later word is
/// gathered through the running permutation before its passes.  Skips
/// the digit passes above each word's largest key.  On return the most
/// significant word is in sorted order; the others are scratch.
/// Deterministic: output is independent of the worker count.
void sort_perm(KeyWords& words, std::vector<Size>& perm);

/// One-word form: `keys` are sorted in place.
void sort_perm(std::vector<std::uint64_t>& keys, std::vector<Size>& perm);

/// The stable sorting permutation of `columns` under `layout`.
std::vector<Size> sort_order(const KeyLayout& layout,
                             const std::vector<std::vector<Index>>& columns);

/// Bytes a sort_order over `n` elements holds at its peak: 8·W per
/// element of key words, plus the permutation and the key and
/// permutation buffers the passes ping-pong through (24 per element).
std::uint64_t sort_order_bytes(const KeyLayout& layout, Size n);

}  // namespace pasta::radix
