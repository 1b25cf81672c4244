/// \file
/// Dense matrix and vector containers used as kernel operands.
///
/// The paper's TTM takes U in R^{I_n x R} (the transposed-mode convention,
/// footnote 2: rows indexed by the tensor mode, columns by the rank) and
/// MTTKRP takes one such factor matrix per mode.  Row-major storage makes a
/// "row of U for tensor index i" contiguous, which is what every kernel
/// streams over.
///
/// Every pass over a large dense buffer — zero-fill at construction,
/// fill(), randomize(), and the CP-ALS algebra in methods/linalg — runs
/// through one primitive, for_each_dense_block: fixed blocks of
/// kDenseBlock elements (or whole rows totalling about that many),
/// spread over the OpenMP team.  Block boundaries are a compile-time
/// constant, never a function of the thread count, so the contract is:
/// every value these passes produce is bit-identical at any thread count.
///   - Storage is allocated uninitialized; the parallel fill is the first
///     write to each page.  Buffers of kDenseMapBytes and more are mapped
///     on 2 MiB-aligned, MADV_HUGEPAGE memory that arrives zeroed, so
///     zero-initialised construction skips its fill there.
///   - randomize() is counter-based: it draws one 64-bit key from the
///     caller's Rng (which therefore always advances by exactly one draw)
///     and sets element i to unit_float(splitmix64_at(key, i)).
///   - Reductions (dense_block_sum) keep one double partial per block and
///     combine the partials in block order.
/// A buffer of at most one block, or a call that sees num_threads() == 1
/// (a serving job under ThreadBudgetScope(1), a nested region), runs the
/// same blocks serially and opens no OpenMP region.
///
/// A DenseMatrix also tracks what it knows about its zeros (ZeroState),
/// so an MTTKRP output is zeroed only where a previous call wrote:
///   - all-zero: set by the zero-initialising constructor (heap or
///     mapped storage);
///   - masked: a per-row byte mask names the rows that may be non-zero;
///     only the accumulate protocol (begin_accumulate/end_accumulate)
///     sets it;
///   - unknown: every other case.  Every non-const accessor (operator(),
///     row(), data(), fill(), randomize()) resets the state to unknown.
/// Copy and move carry the state; operator== compares values only.
/// Pointer rule: a raw pointer taken from a non-const accessor before an
/// MTTKRP call must not be written through after it, since such a write
/// bypasses the reset and the next call would clear only the rows the
/// mask names.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace pasta {

/// Elements per block of the dense layer's passes (256 KiB of Value).
inline constexpr Size kDenseBlock = Size{1} << 16;

/// Rows per block for a row-wise pass over a matrix with `cols` columns:
/// whole rows totalling about kDenseBlock elements.
constexpr Size
dense_row_block(Size cols)
{
    return std::max<Size>(1, kDenseBlock / std::max<Size>(1, cols));
}

/// Runs `body(first, last)` once per block [b·block, min(n, (b+1)·block))
/// of [0, n).  Blocks are spread statically over num_threads() workers;
/// a single block or a single thread runs serially with no OpenMP region.
template <typename Body>
void
for_each_dense_block(Size n, Size block, Body body)
{
    const Size blocks = (n + block - 1) / block;
    const int nt = blocks > 1 ? num_threads() : 1;
    if (nt == 1) {
        for (Size b = 0; b < blocks; ++b)
            body(b * block, std::min(n, (b + 1) * block));
        return;
    }
    char fork = 0;  // hand-off tokens for ThreadSanitizer only
    char join = 0;
    tsan_release(&fork);
#pragma omp parallel for num_threads(nt) schedule(static)
    for (long long b = 0; b < static_cast<long long>(blocks); ++b) {
        tsan_acquire(&fork);
        const Size first = static_cast<Size>(b) * block;
        body(first, std::min(n, first + block));
        tsan_release(&join);
    }
    tsan_acquire(&join);
}

/// Block-ordered sum of `width` doubles over [0, n):
/// `body(first, last, partial)` adds its block's contributions into
/// `partial` (width zeros on entry); the partials are then summed in
/// block order, so the result does not depend on the thread count.
template <typename Body>
std::vector<double>
dense_block_sum(Size n, Size block, Size width, Body body)
{
    const Size blocks = (n + block - 1) / block;
    std::vector<double> partials(blocks * width, 0.0);
    for_each_dense_block(n, block, [&](Size first, Size last) {
        body(first, last, partials.data() + first / block * width);
    });
    std::vector<double> total(width, 0.0);
    for (Size b = 0; b < blocks; ++b)
        for (Size w = 0; w < width; ++w)
            total[w] += partials[b * width + w];
    return total;
}

#if defined(__SANITIZE_ADDRESS__)
#define PASTA_DENSE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PASTA_DENSE_ASAN 1
#endif
#endif

/// Buffers of at least this many bytes are mapped with anonymous mmap
/// (dense_map) instead of coming from the heap.
inline constexpr std::size_t kDenseMapBytes = std::size_t{4} << 20;

/// AddressSanitizer cannot see overflows on mmap'ed memory, so its builds
/// never map.
#if defined(PASTA_DENSE_ASAN)
inline constexpr bool kDenseMapEnabled = false;
#else
inline constexpr bool kDenseMapEnabled = true;
#endif

/// True when dense storage of `bytes` is mapped.  The one predicate of
/// both the allocator and the zero-initialising constructors: mapped
/// pages arrive zeroed, so those skip their fill exactly when it holds.
constexpr bool
dense_storage_mapped(std::size_t bytes)
{
    return kDenseMapEnabled && bytes >= kDenseMapBytes;
}

/// Maps `bytes` of zeroed memory: 2 MiB-aligned start, length rounded up
/// to the base page, MADV_HUGEPAGE applied.  Throws std::bad_alloc.
void* dense_map(std::size_t bytes);

/// Unmaps a dense_map(bytes) buffer.
void dense_unmap(void* p, std::size_t bytes) noexcept;

/// Allocator of the dense containers: dense_map at or above
/// kDenseMapBytes, std::allocator below.  Value-initialization is
/// default-initialization, so a vector resized through it leaves its
/// storage unwritten and the first touch of each page happens in the
/// parallel pass that follows (or, for a mapped zero buffer, in the
/// first kernel that writes it).
template <typename T>
struct DenseAllocator {
    using value_type = T;

    DenseAllocator() = default;
    template <typename U>
    DenseAllocator(const DenseAllocator<U>&) noexcept
    {
    }

    T* allocate(std::size_t n)
    {
        if (dense_storage_mapped(n * sizeof(T)))
            return static_cast<T*>(dense_map(n * sizeof(T)));
        return std::allocator<T>().allocate(n);
    }
    void deallocate(T* p, std::size_t n) noexcept
    {
        if (dense_storage_mapped(n * sizeof(T)))
            dense_unmap(p, n * sizeof(T));
        else
            std::allocator<T>().deallocate(p, n);
    }

    template <typename U>
    void construct(U* p)
    {
        ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }

    friend bool operator==(const DenseAllocator&, const DenseAllocator&)
    {
        return true;
    }
};

/// Value storage of the dense containers.
using DenseStorage = std::vector<Value, DenseAllocator<Value>>;

/// True when fresh storage of `bytes` must be filled to hold `init`
/// everywhere: always, unless it is mapped (all +0 already) and `init`
/// is +0.
inline bool
dense_fill_needed(std::size_t bytes, Value init)
{
    return !dense_storage_mapped(bytes) || init != 0 || std::signbit(init);
}

/// What a DenseMatrix knows about its zeros (file comment).
enum class ZeroState : std::uint8_t {
    kUnknown,  ///< no claim
    kAllZero,  ///< every element is +0
    kMasked,   ///< every row whose mask byte is 0 is all +0
};

/// Dense row-major matrix of Value.
class DenseMatrix {
  public:
    DenseMatrix() = default;

    /// Creates a rows x cols matrix initialized to `init`.
    DenseMatrix(Size rows, Size cols, Value init = 0)
        : rows_(rows), cols_(cols), data_(rows * cols)
    {
        if (dense_fill_needed(storage_bytes(), init))
            fill(init);
        if (init == 0 && !std::signbit(init))
            zero_ = ZeroState::kAllZero;
    }

    Size rows() const { return rows_; }
    Size cols() const { return cols_; }

    /// Element access (no bounds check in release builds).
    Value& operator()(Size r, Size c)
    {
        forget_zeros();
        return data_[r * cols_ + c];
    }
    Value operator()(Size r, Size c) const { return data_[r * cols_ + c]; }

    /// Pointer to the start of row r; the row is cols() contiguous values.
    Value* row(Size r)
    {
        forget_zeros();
        return data_.data() + r * cols_;
    }
    const Value* row(Size r) const { return data_.data() + r * cols_; }

    Value* data()
    {
        forget_zeros();
        return data_.data();
    }
    const Value* data() const { return data_.data(); }

    /// What the matrix knows about its zeros (file comment).
    ZeroState zero_state() const { return zero_; }

    /// Starts an accumulation into this matrix (the MTTKRP kernels'
    /// protocol): leaves every element at +0, writing only what the zero
    /// state says may be non-zero (nothing when all-zero, the masked rows
    /// when masked, everything when unknown), and returns a rows()-byte
    /// mask of zeros.  The kernel sets mask[i] = 1 (a relaxed
    /// std::atomic_ref store when writers run concurrently) for every row
    /// i it writes, then calls end_accumulate().  The state is unknown in
    /// between, so a kernel that throws leaves a matrix the next call
    /// fills in full.
    std::uint8_t* begin_accumulate();

    /// Ends an accumulation: only the rows marked in the mask since
    /// begin_accumulate() may be non-zero.
    void end_accumulate() { zero_ = ZeroState::kMasked; }

    /// Sets every element to `v`.
    void fill(Value v);

    /// Storage footprint in bytes (values only, matching Table I).
    Size storage_bytes() const { return data_.size() * kValueBytes; }

    /// Fills with uniform random values in [0, 1): counter-based from
    /// one draw of `rng`, identical at any thread count.
    void randomize(Rng& rng);

    /// Returns a rows x cols matrix with uniform random entries.
    static DenseMatrix random(Size rows, Size cols, Rng& rng);

    /// Compares shape and values; the zero state is not part of it.
    friend bool operator==(const DenseMatrix& a, const DenseMatrix& b)
    {
        return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
    }

  private:
    /// Sets the state to unknown.  Parallel writers may all call it: the
    /// check keeps the shared line read-only once the state is unknown.
    void forget_zeros()
    {
        std::atomic_ref<ZeroState> state(zero_);
        if (state.load(std::memory_order_relaxed) != ZeroState::kUnknown)
            state.store(ZeroState::kUnknown, std::memory_order_relaxed);
    }

    Size rows_ = 0;
    Size cols_ = 0;
    DenseStorage data_;
    ZeroState zero_ = ZeroState::kUnknown;
    std::vector<std::uint8_t> mask_;  ///< rows_ bytes once accumulated into
};

/// Dense vector of Value.
class DenseVector {
  public:
    DenseVector() = default;

    /// Creates a length-n vector initialized to `init`.
    explicit DenseVector(Size n, Value init = 0) : data_(n)
    {
        if (dense_fill_needed(storage_bytes(), init))
            fill(init);
    }

    Size size() const { return data_.size(); }

    Value& operator[](Size i) { return data_[i]; }
    Value operator[](Size i) const { return data_[i]; }

    Value* data() { return data_.data(); }
    const Value* data() const { return data_.data(); }

    void fill(Value v);

    Size storage_bytes() const { return data_.size() * kValueBytes; }

    /// Fills with uniform random values in [0, 1): counter-based from
    /// one draw of `rng`, identical at any thread count.
    void randomize(Rng& rng);

    /// Returns a length-n vector with uniform random entries.
    static DenseVector random(Size n, Rng& rng);

    friend bool operator==(const DenseVector&, const DenseVector&) = default;

  private:
    DenseStorage data_;
};

/// Maximum absolute element-wise difference between two matrices of the
/// same shape; used by tests to compare kernel outputs to references.
double max_abs_diff(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace pasta
