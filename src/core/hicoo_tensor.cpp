#include "core/hicoo_tensor.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "core/block_math.hpp"
#include "core/sort_radix.hpp"

namespace pasta {

HiCooTensor::HiCooTensor(std::vector<Index> dims, unsigned block_bits)
    : dims_(std::move(dims)), block_bits_(block_bits)
{
    PASTA_CHECK_MSG(!dims_.empty(), "tensor order must be at least 1");
    PASTA_CHECK_MSG(block_bits_ >= 1 && block_bits_ <= 8,
                    "block bits " << block_bits_
                                  << " outside [1,8] (8-bit element index)");
    for (Size m = 0; m < dims_.size(); ++m)
        check_blockable(dims_[m], block_bits_, m);
    binds_.resize(dims_.size());
    einds_.resize(dims_.size());
}

Size
HiCooTensor::append_block(const BIndex* block_coords)
{
    // Structural change invalidates any cached owner schedules.
    owner_cache_.clear();
    owner_built_.clear();
    if (bptr_.empty())
        bptr_.push_back(0);
    for (Size m = 0; m < order(); ++m)
        binds_[m].push_back(block_coords[m]);
    bptr_.push_back(values_.size());
    return binds_[0].size() - 1;
}

void
HiCooTensor::append_entry(const EIndex* element_coords, Value value)
{
    PASTA_ASSERT_MSG(!bptr_.empty(), "append_entry before append_block");
    for (Size m = 0; m < order(); ++m)
        einds_[m].push_back(element_coords[m]);
    values_.push_back(value);
    bptr_.back() = values_.size();
}

BlockBulkFill
HiCooTensor::bulk_fill(Size num_blocks, Size nnz)
{
    owner_cache_.clear();
    owner_built_.clear();
    BlockBulkFill fill;
    for (Size m = 0; m < order(); ++m) {
        binds_[m].resize(num_blocks);
        einds_[m].resize(nnz);
        fill.blocks.push_back(binds_[m].data());
        fill.elements.push_back(einds_[m].data());
    }
    bptr_.resize(num_blocks + 1);
    fill.bptr = bptr_.data();
    values_.assign(nnz, 0);
    return fill;
}

Size
HiCooTensor::max_block_nnz() const
{
    Size worst = 0;
    for (Size b = 0; b < num_blocks(); ++b)
        worst = std::max(worst, bptr_[b + 1] - bptr_[b]);
    return worst;
}

double
HiCooTensor::mean_block_nnz() const
{
    return num_blocks() == 0
               ? 0.0
               : static_cast<double>(nnz()) /
                     static_cast<double>(num_blocks());
}

Size
HiCooTensor::storage_bytes() const
{
    const Size n = order();
    return num_blocks() * (n * sizeof(BIndex) + sizeof(Size)) +
           nnz() * (n * kEIndexBytes + kValueBytes);
}

void
HiCooTensor::validate() const
{
    const Size nb = num_blocks();
    PASTA_CHECK_MSG(bptr_.empty() || bptr_.front() == 0,
                    "bptr must start at 0");
    PASTA_CHECK_MSG(bptr_.empty() || bptr_.back() == nnz(),
                    "bptr must end at nnz");
    const Index max_eind = block_size() - 1;
    for (Size m = 0; m < order(); ++m) {
        PASTA_CHECK_MSG(binds_[m].size() == nb, "binds length mismatch");
        PASTA_CHECK_MSG(einds_[m].size() == nnz(), "einds length mismatch");
        // 64-bit block count: Index arithmetic would wrap for dims near
        // UINT32_MAX and reject every block.
        const Size max_bind = block_count(dims_[m], block_bits_);
        for (BIndex bi : binds_[m])
            PASTA_CHECK_MSG(static_cast<Size>(bi) < max_bind,
                            "block index out of range");
        for (EIndex ei : einds_[m])
            PASTA_CHECK_MSG(ei <= max_eind, "element index out of range");
    }
    for (Size b = 0; b < nb; ++b) {
        PASTA_CHECK_MSG(bptr_[b] < bptr_[b + 1], "empty block " << b);
        for (Size p = bptr_[b]; p < bptr_[b + 1]; ++p) {
            for (Size m = 0; m < order(); ++m)
                PASTA_CHECK_MSG(coordinate(m, b, p) < dims_[m],
                                "reconstructed coordinate out of range");
        }
    }
}

const OwnerSchedule&
HiCooTensor::owner_schedule(Size mode) const
{
    PASTA_CHECK_MSG(mode < order(), "mode " << mode << " out of range");
    if (owner_built_.empty()) {
        owner_cache_.assign(order(), OwnerSchedule{});
        owner_built_.assign(order(), false);
    }
    if (owner_built_[mode])
        return owner_cache_[mode];

    OwnerSchedule& sched = owner_cache_[mode];
    const Size nb = num_blocks();
    if (nb > 0) {
        // Stable radix sort of block ids by output block index: groups
        // come out contiguous and Morton-ordered within.
        std::vector<std::uint64_t> keys(nb);
        for (Size b = 0; b < nb; ++b)
            keys[b] = binds_[mode][b];
        radix::sort_perm(keys, sched.blocks);
        sched.group_ptr.push_back(0);
        for (Size s = 1; s < nb; ++s)
            if (keys[s] != keys[s - 1])
                sched.group_ptr.push_back(s);
        sched.group_ptr.push_back(nb);
        for (Size g = 0; g + 1 < sched.group_ptr.size(); ++g)
            sched.max_group_blocks =
                std::max(sched.max_group_blocks,
                         sched.group_ptr[g + 1] - sched.group_ptr[g]);
    }
    owner_built_[mode] = true;
    return sched;
}

std::string
HiCooTensor::describe() const
{
    std::ostringstream oss;
    oss << order() << "-order HiCOO(B=" << block_size() << ") ";
    for (Size m = 0; m < order(); ++m)
        oss << dims_[m] << (m + 1 < order() ? "x" : "");
    oss << ", " << nnz() << " nnz in " << num_blocks() << " blocks";
    return oss.str();
}

}  // namespace pasta
