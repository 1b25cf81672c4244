#include "core/dense.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include "obs/counters.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

namespace {

constexpr std::uintptr_t kHugePage = std::uintptr_t{1} << 21;

std::uintptr_t
round_up(std::uintptr_t v, std::uintptr_t to)
{
    return (v + to - 1) / to * to;
}

std::size_t
base_page()
{
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

/// True when transparent huge pages are switched off host-wide
/// ("[never]"): MADV_HUGEPAGE is then accepted but has no effect.
bool
thp_never()
{
    static const bool never = [] {
        std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
        const std::string mode{std::istreambuf_iterator<char>(in), {}};
        return mode.find("[never]") != std::string::npos;
    }();
    return never;
}

void
fill_blocks(DenseStorage& data, Value v)
{
    Value* out = data.data();
    for_each_dense_block(data.size(), kDenseBlock,
                         [&](Size first, Size last) {
                             std::fill(out + first, out + last, v);
                         });
}

void
randomize_blocks(DenseStorage& data, Rng& rng)
{
    const std::uint64_t key = rng.next_u64();
    const simd::Isa isa = simd::active_isa();
    Value* out = data.data();
    for_each_dense_block(data.size(), kDenseBlock,
                         [&](Size first, Size last) {
                             simd::random_unit(isa, out + first, key, first,
                                               last - first);
                         });
}

}  // namespace

void*
dense_map(std::size_t bytes)
{
    const std::size_t len = round_up(bytes, base_page());
    // Over-map so a 2 MiB-aligned start exists, then trim both ends.
    const std::size_t span = len + kHugePage - base_page();
    if (len < bytes || span < len)  // wrapped around
        throw std::bad_alloc();
    void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    char* base = static_cast<char*>(raw);
    const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(raw);
    const std::size_t head = round_up(addr, kHugePage) - addr;
    if (head != 0)
        munmap(base, head);
    if (span - head - len != 0)
        munmap(base + head + len, span - head - len);
    char* start = base + head;
    const bool huge = madvise(start, len, MADV_HUGEPAGE) == 0 && !thp_never();
    if (obs::counters_enabled()) {
        obs::add("dense.mapped_bytes", len);
        obs::set_label("dense.pages", huge ? "huge" : "base");
    }
    return start;
}

void
dense_unmap(void* p, std::size_t bytes) noexcept
{
    munmap(p, round_up(bytes, base_page()));
}

void
DenseMatrix::fill(Value v)
{
    forget_zeros();
    fill_blocks(data_, v);
}

void
DenseMatrix::randomize(Rng& rng)
{
    forget_zeros();
    randomize_blocks(data_, rng);
}

std::uint8_t*
DenseMatrix::begin_accumulate()
{
    const char* path = "fresh";
    Size zeroed = 0;  // values written
    if (zero_ == ZeroState::kMasked) {
        path = "rows";
        Value* out = data_.data();
        std::uint8_t* mask = mask_.data();
        const Size cols = cols_;
        const double rows = dense_block_sum(
            rows_, dense_row_block(cols), 1,
            [&](Size first, Size last, double* part) {
                for (Size i = first; i < last; ++i) {
                    if (mask[i] == 0)
                        continue;
                    std::fill(out + i * cols, out + (i + 1) * cols, Value{0});
                    mask[i] = 0;
                    *part += 1;
                }
            })[0];
        zeroed = static_cast<Size>(rows) * cols;
    } else {
        if (zero_ == ZeroState::kUnknown) {
            path = "full";
            fill_blocks(data_, 0);
            zeroed = data_.size();
        }
        mask_.assign(rows_, 0);
    }
    zero_ = ZeroState::kUnknown;
    if (obs::counters_enabled()) {
        obs::add("dense.zeroed_bytes", zeroed * kValueBytes);
        obs::set_label("dense.zero", path);
    }
    return mask_.data();
}

DenseMatrix
DenseMatrix::random(Size rows, Size cols, Rng& rng)
{
    // Sized without the zero-fill: randomize() writes every element.
    DenseMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(rows * cols);
    m.randomize(rng);
    return m;
}

void
DenseVector::fill(Value v)
{
    fill_blocks(data_, v);
}

void
DenseVector::randomize(Rng& rng)
{
    randomize_blocks(data_, rng);
}

DenseVector
DenseVector::random(Size n, Rng& rng)
{
    DenseVector v;
    v.data_.resize(n);
    v.randomize(rng);
    return v;
}

double
max_abs_diff(const DenseMatrix& a, const DenseMatrix& b)
{
    PASTA_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                    "max_abs_diff: shape mismatch");
    double worst = 0.0;
    const Size n = a.rows() * a.cols();
    for (Size i = 0; i < n; ++i)
        worst = std::max(worst,
                         std::abs(static_cast<double>(a.data()[i]) -
                                  static_cast<double>(b.data()[i])));
    return worst;
}

}  // namespace pasta
