#include "core/dense.hpp"

#include <algorithm>
#include <cmath>

namespace pasta {

namespace {

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
    Value* out = data.data();
    for_each_dense_block(data.size(), kDenseBlock,
                         [&](Size first, Size last) {
                             for (Size i = first; i < last; ++i)
                                 out[i] = unit_float(splitmix64_at(key, i));
                         });
}

}  // namespace

void
DenseMatrix::fill(Value v)
{
    fill_blocks(data_, v);
}

void
DenseMatrix::randomize(Rng& rng)
{
    randomize_blocks(data_, rng);
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
