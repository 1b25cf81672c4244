#include "core/shicoo_tensor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "core/block_math.hpp"

namespace pasta {

SHiCooTensor::SHiCooTensor(std::vector<Index> dims,
                           std::vector<Size> dense_modes, unsigned block_bits)
    : dims_(std::move(dims)), dense_modes_(std::move(dense_modes)),
      block_bits_(block_bits)
{
    PASTA_CHECK_MSG(!dims_.empty(), "tensor order must be at least 1");
    PASTA_CHECK_MSG(!dense_modes_.empty(), "sHiCOO needs a dense mode");
    PASTA_CHECK_MSG(dense_modes_.size() < dims_.size(),
                    "sHiCOO needs at least one sparse mode");
    PASTA_CHECK_MSG(std::is_sorted(dense_modes_.begin(), dense_modes_.end()),
                    "dense modes must be ascending");
    PASTA_CHECK_MSG(block_bits_ >= 1 && block_bits_ <= 8,
                    "block bits outside [1,8]");
    stripe_volume_ = 1;
    for (Size dm : dense_modes_) {
        PASTA_CHECK_MSG(dm < dims_.size(), "dense mode out of range");
        stripe_volume_ *= dims_[dm];
    }
    for (Size m = 0; m < dims_.size(); ++m)
        if (!std::binary_search(dense_modes_.begin(), dense_modes_.end(), m))
            sparse_modes_.push_back(m);
    for (Size m : sparse_modes_)
        check_blockable(dims_[m], block_bits_, m);
    binds_.resize(sparse_modes_.size());
    einds_.resize(sparse_modes_.size());
}

Size
SHiCooTensor::append_block(const BIndex* block_coords)
{
    if (bptr_.empty())
        bptr_.push_back(0);
    for (Size s = 0; s < sparse_modes_.size(); ++s)
        binds_[s].push_back(block_coords[s]);
    bptr_.push_back(num_sparse());
    return bptr_.size() - 2;
}

Size
SHiCooTensor::append_entry(const EIndex* element_coords)
{
    PASTA_ASSERT_MSG(!bptr_.empty(), "append_entry before append_block");
    for (Size s = 0; s < sparse_modes_.size(); ++s)
        einds_[s].push_back(element_coords[s]);
    values_.resize(values_.size() + stripe_volume_, 0);
    bptr_.back() = num_sparse();
    return num_sparse() - 1;
}

BlockBulkFill
SHiCooTensor::bulk_fill(Size num_blocks, Size num_sparse)
{
    BlockBulkFill fill;
    for (Size s = 0; s < sparse_modes_.size(); ++s) {
        binds_[s].resize(num_blocks);
        einds_[s].resize(num_sparse);
        fill.blocks.push_back(binds_[s].data());
        fill.elements.push_back(einds_[s].data());
    }
    bptr_.resize(num_blocks + 1);
    fill.bptr = bptr_.data();
    values_.assign(num_sparse * stripe_volume_, 0);
    return fill;
}

Size
SHiCooTensor::storage_bytes() const
{
    const Size ns = sparse_modes_.size();
    return num_blocks() * (ns * sizeof(BIndex) + sizeof(Size)) +
           num_sparse() * ns * kEIndexBytes + values_.size() * kValueBytes;
}

ScooTensor
SHiCooTensor::to_scoo() const
{
    ScooTensor out(dims_, dense_modes_);
    out.reserve(num_sparse());
    std::vector<Index> sparse_coords(sparse_modes_.size());
    for (Size b = 0; b < num_blocks(); ++b) {
        for (Size pos = bptr_[b]; pos < bptr_[b + 1]; ++pos) {
            for (Size s = 0; s < sparse_modes_.size(); ++s)
                sparse_coords[s] = sparse_coordinate(s, b, pos);
            const Size out_pos = out.append_stripe(sparse_coords.data());
            std::memcpy(out.stripe(out_pos), stripe(pos),
                        stripe_volume_ * sizeof(Value));
        }
    }
    return out;
}

void
SHiCooTensor::validate() const
{
    const Size nb = num_blocks();
    PASTA_CHECK_MSG(bptr_.empty() || bptr_.front() == 0,
                    "bptr must start at 0");
    PASTA_CHECK_MSG(bptr_.empty() || bptr_.back() == num_sparse(),
                    "bptr must end at num_sparse");
    PASTA_CHECK_MSG(values_.size() == num_sparse() * stripe_volume_,
                    "value array length mismatch");
    for (Size s = 0; s < sparse_modes_.size(); ++s) {
        PASTA_CHECK_MSG(binds_[s].size() == nb, "binds length mismatch");
        PASTA_CHECK_MSG(einds_[s].size() == num_sparse(),
                        "einds length mismatch");
    }
    for (Size b = 0; b < nb; ++b) {
        PASTA_CHECK_MSG(bptr_[b] < bptr_[b + 1], "empty block " << b);
        for (Size pos = bptr_[b]; pos < bptr_[b + 1]; ++pos)
            for (Size s = 0; s < sparse_modes_.size(); ++s)
                PASTA_CHECK_MSG(
                    sparse_coordinate(s, b, pos) < dims_[sparse_modes_[s]],
                    "reconstructed sparse coordinate out of range");
    }
}

std::string
SHiCooTensor::describe() const
{
    std::ostringstream oss;
    oss << order() << "-order sHiCOO(B=" << block_size() << ") ";
    for (Size m = 0; m < order(); ++m)
        oss << dims_[m] << (m + 1 < order() ? "x" : "");
    oss << ", " << num_sparse() << " sparse coords x " << stripe_volume_
        << " dense in " << num_blocks() << " blocks";
    return oss.str();
}

}  // namespace pasta
