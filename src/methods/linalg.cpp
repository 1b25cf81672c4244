#include "methods/linalg.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

std::vector<double>
gram_matrix(const DenseMatrix& a)
{
    // Upper triangle per row block, mirrored afterwards: the products
    // are symmetric bit for bit, so the mirror equals a full sweep.
    const Size r = a.cols();
    const simd::Isa isa = simd::active_isa();
    std::vector<double> g = dense_block_sum(
        a.rows(), dense_row_block(r), r * r,
        [&](Size first, Size last, double* part) {
            simd::gram_rows(isa, a.row(first), last - first, r, part);
        });
    for (Size p = 0; p < r; ++p)
        for (Size q = 0; q < p; ++q)
            g[p * r + q] = g[q * r + p];
    return g;
}

void
hadamard_inplace(std::vector<double>& target,
                 const std::vector<double>& source)
{
    PASTA_CHECK_MSG(target.size() == source.size(),
                    "hadamard size mismatch");
    for (Size i = 0; i < target.size(); ++i)
        target[i] *= source[i];
}

std::vector<double>
invert_matrix(std::vector<double> a, Size r)
{
    PASTA_CHECK_MSG(a.size() == r * r, "invert_matrix size mismatch");
    std::vector<double> inv(r * r, 0.0);
    for (Size i = 0; i < r; ++i)
        inv[i * r + i] = 1.0;
    for (Size col = 0; col < r; ++col) {
        Size pivot = col;
        for (Size row = col + 1; row < r; ++row)
            if (std::abs(a[row * r + col]) > std::abs(a[pivot * r + col]))
                pivot = row;
        if (std::abs(a[pivot * r + col]) < 1e-12)
            a[pivot * r + col] += 1e-6;  // ridge for rank deficiency
        if (pivot != col) {
            for (Size k = 0; k < r; ++k) {
                std::swap(a[pivot * r + k], a[col * r + k]);
                std::swap(inv[pivot * r + k], inv[col * r + k]);
            }
        }
        const double d = a[col * r + col];
        for (Size k = 0; k < r; ++k) {
            a[col * r + k] /= d;
            inv[col * r + k] /= d;
        }
        for (Size row = 0; row < r; ++row) {
            if (row == col)
                continue;
            const double f = a[row * r + col];
            if (f == 0.0)
                continue;
            for (Size k = 0; k < r; ++k) {
                a[row * r + k] -= f * a[col * r + k];
                inv[row * r + k] -= f * inv[col * r + k];
            }
        }
    }
    return inv;
}

void
matmul_small(const DenseMatrix& lhs, const std::vector<double>& rhs,
             DenseMatrix& out)
{
    const Size r = lhs.cols();
    PASTA_CHECK_MSG(rhs.size() == r * r, "matmul_small size mismatch");
    PASTA_CHECK_MSG(out.rows() == lhs.rows() && out.cols() == r,
                    "matmul_small output shape mismatch");
    const simd::Isa isa = simd::active_isa();
    Value* base = out.data();
    for_each_dense_block(
        lhs.rows(), dense_row_block(r), [&](Size first, Size last) {
            simd::matmul_rows(isa, lhs.row(first), base + first * r,
                              last - first, r, rhs.data());
        });
}

void
orthonormalize_columns(DenseMatrix& a)
{
    for (Size c = 0; c < a.cols(); ++c) {
        for (Size prev = 0; prev < c; ++prev) {
            double dot = 0.0;
            for (Size i = 0; i < a.rows(); ++i)
                dot += static_cast<double>(a(i, c)) * a(i, prev);
            for (Size i = 0; i < a.rows(); ++i)
                a(i, c) -= static_cast<Value>(dot) * a(i, prev);
        }
        double norm = 0.0;
        for (Size i = 0; i < a.rows(); ++i)
            norm += static_cast<double>(a(i, c)) * a(i, c);
        norm = std::sqrt(norm);
        if (norm < 1e-12) {
            a(c % a.rows(), c) = 1.0f;
            norm = 1.0;
        }
        for (Size i = 0; i < a.rows(); ++i)
            a(i, c) = static_cast<Value>(a(i, c) / norm);
    }
}

double
frobenius_norm_squared(const CooTensor& x)
{
    double total = 0.0;
    for (Size p = 0; p < x.nnz(); ++p)
        total += static_cast<double>(x.value(p)) * x.value(p);
    return total;
}

std::vector<double>
normalize_columns(DenseMatrix& a)
{
    // Row pointers, not a(i, c): a non-const element access also resets
    // the zero state (core/dense.hpp), once per element.
    const Size cols = a.cols();
    const Size block = dense_row_block(cols);
    const simd::Isa isa = simd::active_isa();
    const DenseMatrix& in = a;
    std::vector<double> norms = dense_block_sum(
        a.rows(), block, cols, [&](Size first, Size last, double* part) {
            simd::sumsq_rows(isa, in.row(first), last - first, cols, part);
        });
    // A column with norm at most 1e-12 is divided by 1: left as it is.
    std::vector<double> divisor(cols);
    for (Size c = 0; c < cols; ++c) {
        norms[c] = std::sqrt(norms[c]);
        divisor[c] = norms[c] > 1e-12 ? norms[c] : 1.0;
    }
    Value* base = a.data();
    for_each_dense_block(a.rows(), block, [&](Size first, Size last) {
        simd::divide_rows(isa, base + first * cols, last - first, cols,
                          divisor.data());
    });
    return norms;
}

}  // namespace pasta
