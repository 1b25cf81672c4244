#include "core/coo_tensor.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "common/error.hpp"
#include "common/membudget.hpp"
#include "common/parallel.hpp"
#include "core/merge.hpp"
#include "core/sort_radix.hpp"
#include "obs/counters.hpp"

namespace pasta {

namespace {

/// Fixed chunking shared by the coalesce phases: identical boundaries in
/// the count and fill passes keep the scanned offsets valid.
struct Chunking {
    Size chunks = 0;
    Size per = 0;

    explicit Chunking(Size n)
    {
        chunks = std::min<Size>(
            static_cast<Size>(std::max(1, num_threads())), n);
        per = chunks == 0 ? 0 : (n + chunks - 1) / chunks;
    }
};

}  // namespace

CooTensor::CooTensor(std::vector<Index> dims) : dims_(std::move(dims))
{
    PASTA_CHECK_MSG(!dims_.empty(), "tensor order must be at least 1");
    for (Size m = 0; m < dims_.size(); ++m)
        PASTA_CHECK_MSG(dims_[m] > 0, "dimension of mode " << m << " is 0");
    indices_.resize(dims_.size());
}

void
CooTensor::reserve(Size n)
{
    // Governor probe, not a held reservation: the arrays' lifetime is
    // owned by this tensor, so the choke point only has to prove the
    // footprint fits the remaining budget before committing.
    membudget::check(membudget::coo_bytes(order(), n), "coo.reserve");
    for (auto& idx : indices_)
        idx.reserve(n);
    values_.reserve(n);
}

void
CooTensor::append(const Coordinate& coords, Value value)
{
    PASTA_CHECK_MSG(coords.size() == order(),
                    "coordinate arity " << coords.size()
                                        << " != tensor order " << order());
    for (Size m = 0; m < order(); ++m) {
        PASTA_ASSERT_MSG(coords[m] < dims_[m], "coordinate out of range");
        indices_[m].push_back(coords[m]);
    }
    values_.push_back(value);
}

void
CooTensor::resize_nnz(Size n)
{
    if (n > nnz())
        membudget::check(membudget::coo_bytes(order(), n), "coo.resize");
    for (auto& idx : indices_)
        idx.resize(n, 0);
    values_.resize(n, 0);
}

CooBulkFill
CooTensor::bulk_fill(Size n)
{
    resize_nnz(n);
    CooBulkFill out;
    out.modes.resize(order());
    for (Size m = 0; m < order(); ++m)
        out.modes[m] = indices_[m].data();
    out.values = values_.data();
    out.nnz = n;
    return out;
}

Coordinate
CooTensor::coordinate(Size pos) const
{
    Coordinate c(order());
    for (Size m = 0; m < order(); ++m)
        c[m] = indices_[m][pos];
    return c;
}

void
CooTensor::apply_permutation(const std::vector<Size>& perm)
{
    PASTA_ASSERT(perm.size() == nnz());
    std::vector<Value> new_vals(nnz());
    parallel_for_ranges(0, nnz(), [&](Size first, Size last) {
        for (Size p = first; p < last; ++p)
            new_vals[p] = values_[perm[p]];
    });
    values_ = std::move(new_vals);
    std::vector<Index> scratch(nnz());
    for (Size m = 0; m < order(); ++m) {
        parallel_for_ranges(0, nnz(), [&](Size first, Size last) {
            for (Size p = first; p < last; ++p)
                scratch[p] = indices_[m][perm[p]];
        });
        indices_[m].swap(scratch);
    }
}

void
CooTensor::sort_lexicographic()
{
    std::vector<Size> mode_order(order());
    std::iota(mode_order.begin(), mode_order.end(), 0);
    sort_by_mode_order(mode_order);
}

void
CooTensor::sort_by_mode_order(const std::vector<Size>& mode_order)
{
    PASTA_CHECK_MSG(mode_order.size() == order(),
                    "mode order arity mismatch");
    if (nnz() < 2)
        return;
    sort_by_key(radix::lex_layout(dims_, mode_order), "lex");
}

void
CooTensor::sort_fibers_last(Size mode)
{
    PASTA_CHECK_MSG(mode < order(), "mode " << mode << " out of range");
    std::vector<Size> mode_order;
    mode_order.reserve(order());
    for (Size m = 0; m < order(); ++m)
        if (m != mode)
            mode_order.push_back(m);
    mode_order.push_back(mode);
    sort_by_mode_order(mode_order);
}

void
CooTensor::sort_morton(unsigned block_bits)
{
    if (nnz() < 2)
        return;
    std::vector<Size> modes(order());
    std::iota(modes.begin(), modes.end(), 0);
    sort_by_key(radix::morton_layout(dims_, modes, block_bits), "morton");
}

void
CooTensor::sort_by_key(const radix::KeyLayout& layout, const char* kind)
{
    obs::set_label("sort.path", layout.path_label(kind));
    apply_permutation(radix::sort_order(layout, indices_));
}

bool
CooTensor::is_sorted_lexicographic() const
{
    for (Size p = 1; p < nnz(); ++p) {
        int cmp = 0;
        for (Size m = 0; m < order(); ++m) {
            if (indices_[m][p - 1] != indices_[m][p]) {
                cmp = indices_[m][p - 1] < indices_[m][p] ? -1 : 1;
                break;
            }
        }
        if (cmp >= 0)
            return false;
    }
    return true;
}

void
CooTensor::coalesce()
{
    const Size n = nnz();
    if (n == 0)
        return;
    // A position is a run head when its coordinate differs from its
    // predecessor's; each head owns its whole duplicate run, even when
    // the run crosses a chunk boundary.
    auto is_head = [&](Size p) {
        if (p == 0)
            return true;
        for (Size m = 0; m < order(); ++m)
            if (indices_[m][p] != indices_[m][p - 1])
                return true;
        return false;
    };
    const Chunking ck(n);
    std::vector<Size> heads(ck.chunks);
    parallel_for(0, ck.chunks, Schedule::kStatic, [&](Size c) {
        const Size first = c * ck.per;
        const Size last = std::min(n, first + ck.per);
        Size count = 0;
        for (Size p = first; p < last; ++p)
            count += is_head(p);
        heads[c] = count;
    });
    const Size out_n = merge::exclusive_scan(heads);
    if (out_n == n)
        return;  // already duplicate-free
    // Out-of-place fill: compacting in place would have one worker write
    // slots another still reads as sources.
    std::vector<std::vector<Index>> out_idx(order());
    for (auto& idx : out_idx)
        idx.resize(out_n);
    std::vector<Value> out_vals(out_n);
    parallel_for(0, ck.chunks, Schedule::kStatic, [&](Size c) {
        const Size first = c * ck.per;
        const Size last = std::min(n, first + ck.per);
        Size out = heads[c];
        for (Size p = first; p < last; ++p) {
            if (!is_head(p))
                continue;
            // Runs are summed serially in stream order, so the result is
            // bit-identical for every worker count.
            Value v = values_[p];
            for (Size q = p + 1; q < n && !is_head(q); ++q)
                v += values_[q];
            for (Size m = 0; m < order(); ++m)
                out_idx[m][out] = indices_[m][p];
            out_vals[out] = v;
            ++out;
        }
    });
    indices_.swap(out_idx);
    values_.swap(out_vals);
}

Size
CooTensor::count_duplicates() const
{
    const Size n = nnz();
    if (n < 2)
        return 0;
    // Counts fit a double exactly (< 2^53 non-zeros).
    const double dups = parallel_sum(1, n, [&](Size p) {
        for (Size m = 0; m < order(); ++m)
            if (indices_[m][p] != indices_[m][p - 1])
                return 0.0;
        return 1.0;
    });
    return static_cast<Size>(dups + 0.5);
}

void
CooTensor::canonicalize(DuplicatePolicy policy)
{
    sort_lexicographic();
    if (policy == DuplicatePolicy::kSum) {
        coalesce();
        return;
    }
    if (count_duplicates() == 0)
        return;  // parallel fast path; the serial scan below only names
                 // the first offender for the error message
    for (Size p = 1; p < nnz(); ++p) {
        bool same = true;
        for (Size m = 0; m < order(); ++m) {
            if (indices_[m][p] != indices_[m][p - 1]) {
                same = false;
                break;
            }
        }
        if (same) {
            std::ostringstream oss;
            for (Size m = 0; m < order(); ++m)
                oss << (m ? "," : "(") << indices_[m][p];
            oss << ")";
            PASTA_CHECK_MSG(false, "duplicate coordinate "
                                       << oss.str() << " at position " << p
                                       << " rejected by policy");
        }
    }
}

Value
CooTensor::at(const Coordinate& coords) const
{
    PASTA_CHECK_MSG(coords.size() == order(), "coordinate arity mismatch");
    Value total = 0;
    for (Size p = 0; p < nnz(); ++p) {
        bool match = true;
        for (Size m = 0; m < order(); ++m) {
            if (indices_[m][p] != coords[m]) {
                match = false;
                break;
            }
        }
        if (match)
            total += values_[p];
    }
    return total;
}

Size
CooTensor::storage_bytes() const
{
    return (order() + 1) * kIndexBytes * nnz();
}

bool
CooTensor::same_pattern(const CooTensor& other) const
{
    if (order() != other.order() || dims_ != other.dims_ ||
        nnz() != other.nnz())
        return false;
    for (Size m = 0; m < order(); ++m)
        if (indices_[m] != other.indices_[m])
            return false;
    return true;
}

void
CooTensor::validate() const
{
    for (Size m = 0; m < order(); ++m) {
        PASTA_CHECK_MSG(indices_[m].size() == nnz(),
                        "index array length mismatch on mode " << m);
        for (Size p = 0; p < nnz(); ++p)
            PASTA_CHECK_MSG(indices_[m][p] < dims_[m],
                            "index " << indices_[m][p] << " out of range "
                                     << dims_[m] << " on mode " << m);
    }
}

std::string
CooTensor::describe() const
{
    std::ostringstream oss;
    oss << order() << "-order ";
    for (Size m = 0; m < order(); ++m)
        oss << dims_[m] << (m + 1 < order() ? "x" : "");
    oss << ", " << nnz() << " nnz";
    return oss.str();
}

CooTensor
CooTensor::random(const std::vector<Index>& dims, Size nnz, Rng& rng)
{
    CooTensor t(dims);
    double capacity = 1.0;
    for (Index d : dims)
        capacity *= static_cast<double>(d);
    PASTA_CHECK_MSG(static_cast<double>(nnz) <= capacity,
                    "requested nnz exceeds tensor capacity");
    // Hash-based rejection keeps coordinates distinct.
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(nnz * 2);
    t.reserve(nnz);
    Coordinate c(dims.size());
    while (t.nnz() < nnz) {
        std::uint64_t h = 1469598103934665603ULL;
        for (Size m = 0; m < dims.size(); ++m) {
            c[m] = rng.next_index(dims[m]);
            h = (h ^ c[m]) * 1099511628211ULL;
        }
        if (seen.insert(h).second)
            t.append(c, rng.next_float() + 0.5f);
    }
    t.sort_lexicographic();
    // The hash may (rarely) collide two distinct coordinates or admit two
    // equal ones; coalesce guarantees the sorted-unique invariant.
    t.coalesce();
    return t;
}

}  // namespace pasta
