#include "core/sort_radix.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/membudget.hpp"
#include "common/parallel.hpp"
#include "obs/counters.hpp"

namespace pasta::radix {

unsigned
bits_for(Index dim)
{
    if (dim <= 1)
        return 0;
    return static_cast<unsigned>(std::bit_width(
        static_cast<std::uint32_t>(dim - 1)));
}

namespace {

constexpr unsigned kDigitBits = 8;
constexpr Size kBuckets = Size{1} << kDigitBits;

/// Elements per chunk below which one more worker costs more in fork and
/// join than it saves: a digit pass over 2048 keys takes about as long
/// as one parallel region's fork and join.
constexpr Size kMinChunk = 2048;

/// Chunks of a fixed partition of n elements, at most one per worker.
Size
chunk_count(Size n)
{
    return std::clamp<Size>(n / kMinChunk, 1,
                            static_cast<Size>(std::max(1, num_threads())));
}

/// Runs body(c, first, last) over `chunks` equal ranges of [0, n): inline
/// for a single chunk, one parallel_for task per chunk otherwise.
template <typename Body>
void
for_chunks(Size n, Size chunks, Body body)
{
    const Size per = (n + chunks - 1) / chunks;
    auto run = [&](Size c) {
        const Size first = c * per;
        const Size last = std::min(n, first + per);
        if (first < last)
            body(c, first, last);
    };
    if (chunks == 1)
        run(0);
    else
        parallel_for(0, chunks, Schedule::kStatic, run);
}

}  // namespace

unsigned
KeyLayout::bits() const
{
    unsigned total = static_cast<unsigned>(group.size()) * group_width;
    for (const KeyField& f : fields)
        total += f.width;
    return total;
}

Size
KeyLayout::words() const
{
    return std::max<Size>(1, (bits() + 63) / 64);
}

std::string
KeyLayout::path_label(const char* kind) const
{
    return std::string(kind) + "-radix" + std::to_string(64 * words());
}

void
append_lex_fields(KeyLayout& layout, const std::vector<Index>& dims,
                  const std::vector<Size>& columns)
{
    for (Size c : columns)
        if (const unsigned width = bits_for(dims[c]); width > 0)
            layout.fields.push_back({c, width});
}

KeyLayout
lex_layout(const std::vector<Index>& dims, const std::vector<Size>& columns)
{
    KeyLayout layout;
    append_lex_fields(layout, dims, columns);
    return layout;
}

KeyLayout
morton_layout(const std::vector<Index>& dims, const std::vector<Size>& group,
              unsigned block_bits)
{
    KeyLayout layout;
    layout.group = group;
    layout.block_bits = block_bits;
    for (Size c : group) {
        const Index blocks =
            static_cast<Index>(((dims[c] - 1) >> block_bits) + 1);
        layout.group_width = std::max(layout.group_width, bits_for(blocks));
    }
    // Every group column keeps its offset field, as every block edge is
    // block_bits wide whatever the mode's extent.
    if (block_bits > 0)
        for (Size c : group)
            layout.fields.push_back({c, block_bits});
    return layout;
}

KeyWords
build_keys(const KeyLayout& layout,
           const std::vector<std::vector<Index>>& columns)
{
    const Size n = columns.empty() ? 0 : columns[0].size();
    const Size num_words = layout.words();
    KeyWords words(num_words);
    for (auto& word : words)
        word.resize(n);

    // Bit offset of each field's least significant bit; the last field
    // owns the lowest bits and the group sits above every field.
    std::vector<unsigned> field_lsb(layout.fields.size());
    unsigned low = 0;
    for (Size i = layout.fields.size(); i-- > 0;) {
        field_lsb[i] = low;
        low += layout.fields[i].width;
    }
    const unsigned group_lsb = low;
    const auto group_size = static_cast<unsigned>(layout.group.size());

    // Column-wise OR passes over tiles that stay in L1: each inner loop
    // moves one field (or one interleaved bit) of one column into one
    // word, which vectorizes.
    constexpr Size kTile = 1024;
    for_chunks(n, chunk_count(n), [&](Size, Size first, Size last) {
        for (Size begin = first; begin < last; begin += kTile) {
            const Size end = std::min(last, begin + kTile);
            for (unsigned s = 0; s < group_size; ++s) {
                const Index* col = columns[layout.group[s]].data();
                for (unsigned b = 0; b < layout.group_width; ++b) {
                    const unsigned pos = group_lsb + b * group_size + s;
                    const unsigned src = layout.block_bits + b;
                    std::uint64_t* out = words[pos / 64].data();
                    for (Size p = begin; p < end; ++p)
                        out[p] |= static_cast<std::uint64_t>(
                                      (col[p] >> src) & 1u)
                                  << (pos % 64);
                }
            }
            for (Size i = 0; i < layout.fields.size(); ++i) {
                const Index* col = columns[layout.fields[i].column].data();
                const unsigned width = layout.fields[i].width;
                const Index mask =
                    width >= 32 ? kMaxIndex : (Index{1} << width) - 1;
                const unsigned lsb = field_lsb[i];
                std::uint64_t* out = words[lsb / 64].data();
                for (Size p = begin; p < end; ++p)
                    out[p] |= static_cast<std::uint64_t>(col[p] & mask)
                              << (lsb % 64);
                // A field of at most 32 bits straddles at most one word
                // boundary.
                if (lsb % 64 + width > 64) {
                    std::uint64_t* next = words[lsb / 64 + 1].data();
                    for (Size p = begin; p < end; ++p)
                        next[p] |= static_cast<std::uint64_t>(col[p] & mask)
                                   >> (64 - lsb % 64);
                }
            }
        }
    });
    return words;
}

void
sort_perm(KeyWords& words, std::vector<Size>& perm)
{
    const Size n = words.empty() ? 0 : words[0].size();
    // Sort scratch: the permutation plus the double-buffered key and
    // permutation arrays the LSD passes ping-pong through.
    membudget::check(std::uint64_t{24} * n, "sort.scratch");
    // Fixed chunk partition shared by every phase.  Stability makes the
    // result independent of the partition (and hence of the thread
    // count): a stable sort's permutation is unique.
    const Size chunks = chunk_count(n);
    perm.resize(n);
    for_chunks(n, chunks, [&](Size, Size first, Size last) {
        for (Size p = first; p < last; ++p)
            perm[p] = p;
    });
    if (n < 2)
        return;

    // Largest key of every word, per chunk, so each word skips the
    // digit passes above its own bit width.
    const Size num_words = words.size();
    std::vector<std::uint64_t> chunk_max(chunks * num_words, 0);
    for_chunks(n, chunks, [&](Size c, Size first, Size last) {
        for (Size w = 0; w < num_words; ++w) {
            std::uint64_t m = 0;
            for (Size p = first; p < last; ++p)
                m = std::max(m, words[w][p]);
            chunk_max[w * chunks + c] = m;
        }
    });

    std::vector<std::uint64_t> keys_out(n);
    std::vector<Size> perm_out(n);
    std::vector<Size> hist(chunks * kBuckets);
    unsigned total_passes = 0;

    for (Size w = 0; w < num_words; ++w) {
        const std::uint64_t max_key =
            *std::max_element(chunk_max.begin() + w * chunks,
                              chunk_max.begin() + (w + 1) * chunks);
        const unsigned passes =
            (static_cast<unsigned>(std::bit_width(max_key)) + kDigitBits -
             1) /
            kDigitBits;
        if (passes == 0)
            continue;  // an all-zero word orders nothing
        std::vector<std::uint64_t>& keys = words[w];
        if (total_passes > 0) {
            // Bring this word into the order the lower words left.
            for_chunks(n, chunks, [&](Size, Size first, Size last) {
                for (Size p = first; p < last; ++p)
                    keys_out[p] = keys[perm[p]];
            });
            keys.swap(keys_out);
        }
        for (unsigned pass = 0; pass < passes; ++pass) {
            const unsigned shift = pass * kDigitBits;
            std::fill(hist.begin(), hist.end(), 0);
            // Phase 1: per-chunk digit histograms.
            for_chunks(n, chunks, [&](Size c, Size first, Size last) {
                Size* h = hist.data() + c * kBuckets;
                for (Size p = first; p < last; ++p)
                    ++h[(keys[p] >> shift) & (kBuckets - 1)];
            });
            // Phase 2: exclusive scan in (digit, chunk) order, so chunk
            // c's elements with digit d land after every earlier chunk's.
            Size running = 0;
            for (Size d = 0; d < kBuckets; ++d) {
                for (Size c = 0; c < chunks; ++c) {
                    Size& slot = hist[c * kBuckets + d];
                    const Size count = slot;
                    slot = running;
                    running += count;
                }
            }
            // Phase 3: stable parallel scatter.
            for_chunks(n, chunks, [&](Size c, Size first, Size last) {
                Size* h = hist.data() + c * kBuckets;
                for (Size p = first; p < last; ++p) {
                    const Size pos =
                        h[(keys[p] >> shift) & (kBuckets - 1)]++;
                    keys_out[pos] = keys[p];
                    perm_out[pos] = perm[p];
                }
            });
            keys.swap(keys_out);
            perm.swap(perm_out);
        }
        total_passes += passes;
    }
    obs::add("sort.radix_passes", total_passes);
    obs::add("sort.radix_keys", n);
}

void
sort_perm(std::vector<std::uint64_t>& keys, std::vector<Size>& perm)
{
    KeyWords words(1);
    words[0].swap(keys);
    sort_perm(words, perm);
    keys.swap(words[0]);
}

std::uint64_t
sort_order_bytes(const KeyLayout& layout, Size n)
{
    return (std::uint64_t{8} * layout.words() + 24) * n;
}

std::vector<Size>
sort_order(const KeyLayout& layout,
           const std::vector<std::vector<Index>>& columns)
{
    KeyWords words = build_keys(layout, columns);
    std::vector<Size> perm;
    sort_perm(words, perm);
    return perm;
}

}  // namespace pasta::radix
