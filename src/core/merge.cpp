#include "core/merge.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/sort_radix.hpp"
#include "obs/counters.hpp"

namespace pasta::merge {

const char*
merge_path_name(MergePath path)
{
    switch (path) {
      case MergePath::kMerged64Key: return "merged-64key";
      case MergePath::kMergedCmp: return "merged-cmp";
    }
    return "?";
}

Size
exclusive_scan(std::vector<Size>& counts)
{
    Size running = 0;
    for (Size& c : counts) {
        const Size count = c;
        c = running;
        running += count;
    }
    return running;
}

MergeKeys::MergeKeys(const CooTensor& x, const CooTensor& y,
                     const std::vector<Index>& out_dims)
    : na_(x.nnz()), nb_(y.nnz()), order_(out_dims.size())
{
    PASTA_ASSERT_MSG(x.order() == order_ && y.order() == order_,
                     "merge operands must share the output order");
    // Both streams must be packed with identical per-mode field widths or
    // their keys would not be comparable; out_dims (the per-mode max)
    // covers every coordinate of either operand.
    std::vector<Size> mode_order(order_);
    for (Size m = 0; m < order_; ++m)
        mode_order[m] = m;
    const radix::KeyLayout layout = radix::lex_layout(out_dims, mode_order);
    if (layout.words() == 1) {
        path_ = MergePath::kMerged64Key;
        obs::set_label("merge.path", merge_path_name(path_));
        kx_ = std::move(radix::build_keys(layout, x.indices_view())[0]);
        ky_ = std::move(radix::build_keys(layout, y.indices_view())[0]);
        return;
    }
    path_ = MergePath::kMergedCmp;
    obs::set_label("merge.path", merge_path_name(path_));
    xi_.resize(order_);
    yi_.resize(order_);
    for (Size m = 0; m < order_; ++m) {
        xi_[m] = x.mode_indices(m).data();
        yi_[m] = y.mode_indices(m).data();
    }
}

std::pair<Size, Size>
MergeKeys::diagonal_split(Size d) const
{
    // Binary search for the number of x elements among the first d merged
    // elements.  compare(a, b) <= 0 means x[a] merges at-or-before y[b]
    // (ties to x), so the searched predicate is monotone along the
    // diagonal.
    Size lo = d > nb_ ? d - nb_ : 0;
    Size hi = std::min(d, na_);
    while (lo < hi) {
        const Size mid = lo + (hi - lo) / 2;
        if (compare(mid, d - 1 - mid) <= 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    Size a = lo;
    Size b = d - lo;
    // With ties-to-x, a matched pair (x[a-1], y[b]) sits adjacent in the
    // merged order; a cut between them would hand the two halves of one
    // output to different segments.  Pull y's half left of the cut.
    if (a > 0 && b < nb_ && compare(a - 1, b) == 0)
        ++b;
    return {a, b};
}

MergePartition
MergeKeys::partition(Size segments) const
{
    const Size total = na_ + nb_;
    segments = std::max<Size>(1, std::min(segments, std::max<Size>(total, 1)));
    MergePartition part;
    part.a.resize(segments + 1);
    part.b.resize(segments + 1);
    part.a[0] = 0;
    part.b[0] = 0;
    part.a[segments] = na_;
    part.b[segments] = nb_;
    for (Size s = 1; s < segments; ++s) {
        const auto [a, b] = diagonal_split(total * s / segments);
        part.a[s] = a;
        part.b[s] = b;
    }
    return part;
}

Size
MergeKeys::count_segment(const MergePartition& part, Size s,
                         MergeSemantics semantics) const
{
    Size a = part.a[s];
    Size b = part.b[s];
    const Size a_end = part.a[s + 1];
    const Size b_end = part.b[s + 1];
    const bool keep = semantics == MergeSemantics::kUnion;
    Size count = 0;
    while (a < a_end && b < b_end) {
        const int cmp = compare(a, b);
        if (cmp < 0) {
            count += keep;
            ++a;
        } else if (cmp > 0) {
            count += keep;
            ++b;
        } else {
            ++count;
            ++a;
            ++b;
        }
    }
    if (keep)
        count += (a_end - a) + (b_end - b);
    // Items consumed by this segment, attributed to the executing worker:
    // the suite's per-thread load-imbalance signal for merge-path TEW.
    obs::add_worker("merge.worker_items", worker_id(),
                    (a_end - part.a[s]) + (b_end - part.b[s]));
    return count;
}

}  // namespace pasta::merge
