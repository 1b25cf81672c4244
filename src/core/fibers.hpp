/// \file
/// Mode-n fibers: the one grouping of non-zeros by every coordinate but
/// one.
///
/// A mode-n fiber is the set of non-zeros sharing every coordinate except
/// the mode-n one (paper §II).  TTV and TTM share one pre-processing step
/// (Algorithm 1, lines 1-2): order the non-zeros so every fiber is
/// contiguous, find the number of fibers M_F and the fiber pointer array
/// `fptr`, and give each fiber one output slot (the sparse-dense
/// property).  Two views hold that result, one per input format:
///
///  - FiberView: a fibers-last sorted COO copy plus `fptr` (COO-TTV/TTM,
///    sCOO conversion, Tucker, the cost model's M_F);
///  - GFiberView: gHiCOO with the product mode left uncompressed plus
///    `fptr`, so no fiber crosses a block (HiCOO-TTV/TTM, §III-D1).
///
/// Both hand the kernels the same FiberArrays (plain pointers), so TTV
/// and TTM each run one fiber loop whatever the format.  run_pointers is
/// the one scan that finds group heads; every grouping by "all
/// coordinates but one" in the library goes through it.
#pragma once

#include <algorithm>
#include <vector>

#include "common/parallel.hpp"
#include "common/types.hpp"
#include "core/block_math.hpp"
#include "core/coo_tensor.hpp"
#include "core/ghicoo_tensor.hpp"

namespace pasta {

/// What a fiber loop reads: non-zeros stored fiber by fiber.
struct FiberArrays {
    const Value* values = nullptr;   ///< non-zero values
    const Index* indices = nullptr;  ///< product-mode index per non-zero
    const Size* fptr = nullptr;      ///< fiber f is [fptr[f], fptr[f+1])
    Size num_fibers = 0;             ///< M_F
    Size nnz = 0;                    ///< M
    Index extent = 0;                ///< product-mode extent
};

/// Run starts over positions [0, n): position 0, every entry of `cuts`
/// (ascending; entries >= n are ignored), and every p with `differs(p)`
/// true (p differs from p - 1), followed by n.  Scanned in parallel over
/// fixed chunks whose heads are concatenated in order, so the result is
/// the same at every thread count; a single chunk runs inline, without a
/// parallel region.
template <typename Differs>
std::vector<Size>
run_pointers(Size n, const std::vector<Size>& cuts, Differs differs)
{
    // Below this many positions per chunk a fork costs more than it saves
    // (the radix sort's threshold).
    constexpr Size kMinChunk = 2048;
    const Size chunks = std::clamp<Size>(
        n / kMinChunk, 1, static_cast<Size>(std::max(1, num_threads())));
    const Size per = (n + chunks - 1) / chunks;
    std::vector<std::vector<Size>> heads(chunks);
    auto scan = [&](Size c) {
        const Size first = c * per;
        const Size last = std::min(n, first + per);
        auto cut = std::lower_bound(cuts.begin(), cuts.end(), first);
        for (Size p = first; p < last; ++p) {
            while (cut != cuts.end() && *cut < p)
                ++cut;
            if (p == 0 || (cut != cuts.end() && *cut == p) || differs(p))
                heads[c].push_back(p);
        }
    };
    if (chunks == 1)
        scan(0);
    else
        parallel_for(0, chunks, Schedule::kStatic, scan);
    std::vector<Size> ptr = std::move(heads[0]);
    for (Size c = 1; c < chunks; ++c)
        ptr.insert(ptr.end(), heads[c].begin(), heads[c].end());
    ptr.push_back(n);
    return ptr;
}

/// Mode-`mode` fibers of a COO tensor: a fibers-last sorted copy
/// (sort_fibers_last) and its fiber pointers.
class FiberView {
  public:
    FiberView() = default;

    /// Sorts a copy of `x` fibers-last and groups it.
    FiberView(const CooTensor& x, Size mode);

    Size mode() const { return mode_; }
    const CooTensor& sorted() const { return sorted_; }
    const std::vector<Size>& fptr() const { return fptr_; }
    Size num_fibers() const { return fptr_.empty() ? 0 : fptr_.size() - 1; }
    FiberArrays arrays() const;

    /// Writes each fiber head's coordinates along the other modes (in
    /// ascending mode order) to dst[s][f], in parallel: the output
    /// pattern of a fiber kernel.
    void copy_heads(const std::vector<Index*>& dst) const;

    /// Sorted copy plus fptr.
    Size storage_bytes() const;

  private:
    Size mode_ = 0;
    CooTensor sorted_;
    std::vector<Size> fptr_;
};

/// Mode-`mode` fibers of gHiCOO with only `mode` uncompressed: blocks
/// hold whole fibers, and a fiber starts at every block start and
/// wherever a compressed element offset changes.
class GFiberView {
  public:
    GFiberView() = default;

    /// Converts `x` (coo_to_ghicoo) and groups it.
    GFiberView(const CooTensor& x, Size mode, unsigned block_bits);

    Size mode() const { return mode_; }
    const GHiCooTensor& tensor() const { return tensor_; }
    const std::vector<Size>& fptr() const { return fptr_; }
    Size num_fibers() const { return fptr_.empty() ? 0 : fptr_.size() - 1; }
    FiberArrays arrays() const;

    /// Fills a blocked pattern over the compressed modes whose blocks
    /// mirror this view's: block coordinates, the fiber pointer of each
    /// block, and each fiber head's element offsets; in parallel over
    /// blocks.
    void copy_heads(const BlockBulkFill& dst) const;

    /// gHiCOO storage plus fptr.
    Size storage_bytes() const;

  private:
    Size mode_ = 0;
    GHiCooTensor tensor_;
    std::vector<Size> fptr_;
};

}  // namespace pasta
