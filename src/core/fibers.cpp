#include "core/fibers.hpp"

#include "common/error.hpp"
#include "core/convert.hpp"

namespace pasta {

FiberView::FiberView(const CooTensor& x, Size mode)
    : mode_(mode), sorted_(x)
{
    sorted_.sort_fibers_last(mode);
    std::vector<const Index*> rest;
    for (Size m = 0; m < sorted_.order(); ++m)
        if (m != mode)
            rest.push_back(sorted_.mode_indices(m).data());
    fptr_ = run_pointers(sorted_.nnz(), {}, [&](Size p) {
        for (const Index* c : rest)
            if (c[p] != c[p - 1])
                return true;
        return false;
    });
}

FiberArrays
FiberView::arrays() const
{
    return {sorted_.values().data(), sorted_.mode_indices(mode_).data(),
            fptr_.data(),            num_fibers(),
            sorted_.nnz(),           sorted_.dim(mode_)};
}

void
FiberView::copy_heads(const std::vector<Index*>& dst) const
{
    std::vector<const Index*> src;
    for (Size m = 0; m < sorted_.order(); ++m)
        if (m != mode_)
            src.push_back(sorted_.mode_indices(m).data());
    parallel_for_ranges(0, num_fibers(), [&](Size first, Size last) {
        for (Size f = first; f < last; ++f)
            for (Size s = 0; s < src.size(); ++s)
                dst[s][f] = src[s][fptr_[f]];
    });
}

Size
FiberView::storage_bytes() const
{
    return sorted_.storage_bytes() + fptr_.size() * sizeof(Size);
}

GFiberView::GFiberView(const CooTensor& x, Size mode, unsigned block_bits)
    : mode_(mode)
{
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    std::vector<bool> compressed(x.order(), true);
    compressed[mode] = false;
    tensor_ = coo_to_ghicoo(x, std::move(compressed), block_bits);
    const GHiCooTensor& g = tensor_;
    fptr_ = run_pointers(g.nnz(), g.bptr(), [&](Size p) {
        for (Size m : g.compressed_modes())
            if (g.element_index(m, p) != g.element_index(m, p - 1))
                return true;
        return false;
    });
}

FiberArrays
GFiberView::arrays() const
{
    return {tensor_.values().data(), tensor_.raw_indices(mode_).data(),
            fptr_.data(),            num_fibers(),
            tensor_.nnz(),           tensor_.dim(mode_)};
}

void
GFiberView::copy_heads(const BlockBulkFill& dst) const
{
    const GHiCooTensor& g = tensor_;
    const auto& comp = g.compressed_modes();
    const Size nb = g.num_blocks();
    parallel_for_ranges(0, nb, [&](Size first, Size last) {
        // Every block starts a fiber, so its start is in fptr.
        Size f = static_cast<Size>(
            std::lower_bound(fptr_.begin(), fptr_.end(), g.bptr()[first]) -
            fptr_.begin());
        for (Size b = first; b < last; ++b) {
            dst.bptr[b] = f;
            for (Size s = 0; s < comp.size(); ++s)
                dst.blocks[s][b] = g.block_index(comp[s], b);
            for (; fptr_[f] < g.bptr()[b + 1]; ++f)
                for (Size s = 0; s < comp.size(); ++s)
                    dst.elements[s][f] = g.element_index(comp[s], fptr_[f]);
        }
    });
    dst.bptr[nb] = num_fibers();
}

Size
GFiberView::storage_bytes() const
{
    return tensor_.storage_bytes() + fptr_.size() * sizeof(Size);
}

}  // namespace pasta
