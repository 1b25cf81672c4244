/// \file
/// Small dense linear-algebra helpers for the tensor methods: Gram
/// matrices, Hadamard products, Gauss-Jordan inversion, Gram-Schmidt
/// orthonormalization.  R (the decomposition rank) is small — typically
/// 16 — so simple O(R^3) routines suffice and keep the suite free of
/// BLAS/LAPACK dependencies.
///
/// The O(I x R) passes (gram_matrix, matmul_small, normalize_columns) run
/// over the dense layer's fixed row blocks (core/dense.hpp): reductions
/// sum per-block double partials in block order, and row-wise passes
/// write each row independently, so every result is bit-identical at any
/// thread count.  Each block goes through a per-ISA primitive of
/// simd/microkernels.hpp that vectorizes across output elements only,
/// so every result is bit-identical under every ISA as well.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/coo_tensor.hpp"
#include "core/dense.hpp"

namespace pasta {

/// Returns G = A^T A (cols x cols, double precision, row-major).
std::vector<double> gram_matrix(const DenseMatrix& a);

/// Element-wise (Hadamard) product accumulate: target *= source.
void hadamard_inplace(std::vector<double>& target,
                      const std::vector<double>& source);

/// Inverts an r x r row-major matrix by Gauss-Jordan with partial
/// pivoting; near-singular pivots get a small ridge (the CP-ALS normal
/// equations can be rank-deficient early in the iteration).
std::vector<double> invert_matrix(std::vector<double> a, Size r);

/// target = mttkrp_result x v_inv (I x r times r x r), written into
/// `out` (same shape as mttkrp_result).
void matmul_small(const DenseMatrix& lhs, const std::vector<double>& rhs,
                  DenseMatrix& out);

/// Orthonormalizes the columns of `a` in place (modified Gram-Schmidt);
/// collapsed columns are re-seeded with a canonical basis vector.
void orthonormalize_columns(DenseMatrix& a);

/// Squared Frobenius norm of a sparse tensor's stored values.
double frobenius_norm_squared(const CooTensor& x);

/// Column-wise 2-norms of `a`; normalizes columns in place and returns
/// the norms (CP lambda scaling).
std::vector<double> normalize_columns(DenseMatrix& a);

}  // namespace pasta
