#include "core/convert.hpp"

#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "common/membudget.hpp"
#include "core/fibers.hpp"
#include "core/sort_radix.hpp"
#include "obs/trace.hpp"
#include "validate/validate.hpp"

namespace {

/// Post-conversion structural check, armed by PASTA_VALIDATE=convert|full.
template <typename Tensor>
const Tensor&
checked(const Tensor& out)
{
    if (pasta::validate::convert_checks_enabled())
        pasta::validate::validate(out).require();
    return out;
}

}  // namespace

namespace pasta {

HiCooTensor
coo_to_hicoo(const CooTensor& x, unsigned block_bits)
{
    PASTA_SPAN("convert.hicoo");
    HiCooTensor out(x.dims(), block_bits);
    if (x.nnz() == 0)
        return out;

    // Staging working set: the Morton-sorted copy plus the radix sort
    // that orders it (sort_morton's layout).
    const Size n = x.order();
    std::vector<Size> modes(n);
    std::iota(modes.begin(), modes.end(), 0);
    membudget::check(
        membudget::coo_bytes(n, x.nnz()) +
            radix::sort_order_bytes(
                radix::morton_layout(x.dims(), modes, block_bits), x.nnz()),
        "hicoo.convert");
    CooTensor sorted = x;
    sorted.sort_morton(block_bits);

    const Index mask = out.block_size() - 1;
    std::vector<BIndex> block_coords(n);
    std::vector<BIndex> prev_block(n, kMaxIndex);
    std::vector<EIndex> element_coords(n);
    for (Size p = 0; p < sorted.nnz(); ++p) {
        bool new_block = false;
        for (Size m = 0; m < n; ++m) {
            block_coords[m] = sorted.index(m, p) >> block_bits;
            if (block_coords[m] != prev_block[m])
                new_block = true;
        }
        if (new_block) {
            out.append_block(block_coords.data());
            prev_block = block_coords;
        }
        for (Size m = 0; m < n; ++m)
            element_coords[m] =
                static_cast<EIndex>(sorted.index(m, p) & mask);
        out.append_entry(element_coords.data(), sorted.value(p));
    }
    // Build the per-mode block-owner MTTKRP schedules now, so the timed
    // kernels find them cached on the tensor.
    for (Size m = 0; m < n; ++m)
        out.owner_schedule(m);
    return checked(out);
}

CooTensor
hicoo_to_coo(const HiCooTensor& x)
{
    PASTA_SPAN("convert.hicoo_to_coo");
    CooTensor out(x.dims());
    out.reserve(x.nnz());
    Coordinate c(x.order());
    for (Size b = 0; b < x.num_blocks(); ++b) {
        for (Size p = x.bptr()[b]; p < x.bptr()[b + 1]; ++p) {
            for (Size m = 0; m < x.order(); ++m)
                c[m] = x.coordinate(m, b, p);
            out.append(c, x.value(p));
        }
    }
    out.sort_lexicographic();
    return checked(out);
}

GHiCooTensor
coo_to_ghicoo(const CooTensor& x, std::vector<bool> compressed,
              unsigned block_bits)
{
    PASTA_SPAN("convert.ghicoo");
    GHiCooTensor out(x.dims(), block_bits, std::move(compressed));
    if (x.nnz() == 0)
        return out;

    const Size n = x.order();
    const Index mask = out.block_size() - 1;
    const auto& comp = out.compressed_modes();
    const auto& uncomp = out.uncompressed_modes();

    // Order: Morton over compressed-mode blocks, then compressed element
    // offsets, then uncompressed coordinates (lexicographic).  Equal
    // Morton fields imply equal compressed blocks, so the offsets
    // complete the compressed-coordinate tie-break.
    radix::KeyLayout layout =
        radix::morton_layout(x.dims(), comp, block_bits);
    radix::append_lex_fields(layout, x.dims(), uncomp);
    // Staging working set: the sort alone (entries are read through its
    // permutation, no sorted copy is made).
    membudget::check(radix::sort_order_bytes(layout, x.nnz()),
                     "ghicoo.convert");
    const std::vector<Size> perm =
        radix::sort_order(layout, x.indices_view());

    std::vector<BIndex> block_coords(n, 0);
    std::vector<BIndex> prev_block(n, kMaxIndex);
    std::vector<EIndex> element_coords(n, 0);
    std::vector<Index> raw_coords(n, 0);
    for (Size i = 0; i < x.nnz(); ++i) {
        const Size p = perm[i];
        bool new_block = false;
        for (Size m : comp) {
            block_coords[m] = x.index(m, p) >> block_bits;
            if (block_coords[m] != prev_block[m])
                new_block = true;
        }
        if (new_block) {
            out.append_block(block_coords.data());
            for (Size m : comp)
                prev_block[m] = block_coords[m];
        }
        for (Size m : comp)
            element_coords[m] = static_cast<EIndex>(x.index(m, p) & mask);
        for (Size m : uncomp)
            raw_coords[m] = x.index(m, p);
        out.append_entry(element_coords.data(), raw_coords.data(),
                         x.value(p));
    }
    return checked(out);
}

CooTensor
ghicoo_to_coo(const GHiCooTensor& x)
{
    PASTA_SPAN("convert.ghicoo_to_coo");
    CooTensor out(x.dims());
    out.reserve(x.nnz());
    Coordinate c(x.order());
    for (Size b = 0; b < x.num_blocks(); ++b) {
        for (Size p = x.bptr()[b]; p < x.bptr()[b + 1]; ++p) {
            for (Size m = 0; m < x.order(); ++m)
                c[m] = x.coordinate(m, b, p);
            out.append(c, x.value(p));
        }
    }
    out.sort_lexicographic();
    return checked(out);
}

ScooTensor
coo_to_scoo(const CooTensor& x, Size dense_mode)
{
    PASTA_CHECK_MSG(dense_mode < x.order(), "dense mode out of range");
    PASTA_SPAN("convert.scoo");
    // One stripe per mode-`dense_mode` fiber; duplicates sum in sorted
    // order.
    const FiberView fibers(x, dense_mode);
    // Working set once the view is built: the view, plus one dense
    // stripe of I_n values and N - 1 sparse indices per fiber.
    const std::uint64_t stripe_bytes =
        std::uint64_t{x.dim(dense_mode)} * kValueBytes +
        (x.order() - 1) * kIndexBytes;
    membudget::check(fibers.storage_bytes() +
                         stripe_bytes * fibers.num_fibers(),
                     "scoo.convert");
    ScooTensor out(x.dims(), {dense_mode});
    fibers.copy_heads(out.bulk_fill_stripes(fibers.num_fibers()).sparse);
    const FiberArrays a = fibers.arrays();
    parallel_for_ranges(0, a.num_fibers, [&](Size first, Size last) {
        for (Size f = first; f < last; ++f) {
            Value* stripe = out.stripe(f);
            for (Size p = a.fptr[f]; p < a.fptr[f + 1]; ++p)
                stripe[a.indices[p]] += a.values[p];
        }
    });
    return checked(out);
}

SHiCooTensor
scoo_to_shicoo(const ScooTensor& x, unsigned block_bits)
{
    PASTA_SPAN("convert.shicoo");
    SHiCooTensor out(x.dims(), x.dense_modes(), block_bits);
    const Size ns = x.sparse_modes().size();
    const Size count = x.num_sparse();
    if (count == 0)
        return out;

    // Morton-sort the sparse coordinates by block: the key columns are
    // the sparse slots.
    std::vector<Index> slot_dims(ns);
    std::vector<Size> slots(ns);
    for (Size s = 0; s < ns; ++s) {
        slot_dims[s] = x.dims()[x.sparse_modes()[s]];
        slots[s] = s;
    }
    const std::vector<Size> perm =
        radix::sort_order(radix::morton_layout(slot_dims, slots, block_bits),
                          x.sparse_indices_view());

    const Index mask = out.block_size() - 1;
    std::vector<BIndex> block_coords(ns);
    std::vector<BIndex> prev_block(ns, kMaxIndex);
    std::vector<EIndex> element_coords(ns);
    for (Size i = 0; i < count; ++i) {
        const Size pos = perm[i];
        bool new_block = false;
        for (Size s = 0; s < ns; ++s) {
            block_coords[s] = x.sparse_index(s, pos) >> block_bits;
            if (block_coords[s] != prev_block[s])
                new_block = true;
        }
        if (new_block) {
            out.append_block(block_coords.data());
            prev_block = block_coords;
        }
        for (Size s = 0; s < ns; ++s)
            element_coords[s] =
                static_cast<EIndex>(x.sparse_index(s, pos) & mask);
        const Size out_pos = out.append_entry(element_coords.data());
        std::memcpy(out.stripe(out_pos), x.stripe(pos),
                    x.stripe_volume() * sizeof(Value));
    }
    return checked(out);
}

bool
tensors_almost_equal(const CooTensor& a, const CooTensor& b, double tol)
{
    if (a.order() != b.order() || a.dims() != b.dims())
        return false;
    CooTensor ca = a;
    CooTensor cb = b;
    ca.sort_lexicographic();
    ca.coalesce();
    cb.sort_lexicographic();
    cb.coalesce();
    if (ca.nnz() != cb.nnz())
        return false;
    for (Size p = 0; p < ca.nnz(); ++p) {
        for (Size m = 0; m < ca.order(); ++m)
            if (ca.index(m, p) != cb.index(m, p))
                return false;
        if (std::abs(static_cast<double>(ca.value(p)) -
                     static_cast<double>(cb.value(p))) > tol)
            return false;
    }
    return true;
}

}  // namespace pasta
