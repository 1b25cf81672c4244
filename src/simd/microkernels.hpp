/// \file
/// Explicit SIMD micro-kernels over contiguous rank-R value stripes.
///
/// Every primitive has three implementations — portable scalar, AVX2,
/// and AVX-512 — selected by the Isa handle the caller obtained once per
/// kernel invocation from simd::active_isa().  The TTV, TTM, TEW and CSF
/// kernels call these per fiber, stripe or value run, so each wrapper
/// is a single predictable switch on a value held in a register; the
/// intrinsic bodies carry GCC target attributes, which lets one
/// translation unit hold all three paths without compiling the whole
/// suite with -mavx*.  GCC does not inline a target body into an
/// untargeted caller, so every such call stays out of line.  MTTKRP
/// therefore calls none of them per non-zero: kernels/mttkrp.cpp has its
/// own per-ISA loops over a whole range of non-zeros (PASTA_TARGET_* and
/// PASTA_SCALAR_REF below), picked once per call, which keep each
/// Khatri-Rao stripe in a register.
///
/// Numerical contract: the element-wise primitives (vfill, vscale,
/// vfma_rows, vaxpy, vadd_inplace, vhadamard, vadd, vsub,
/// vdiv) perform exactly one IEEE multiply and/or add per element
/// in the same order as the scalar loop — no FMA contraction — so their
/// vector results are bit-identical to the scalar path (tests/test_simd
/// enforces this).  The reductions (vdot, vdot_gather) reassociate
/// partial sums across lanes; their results stay within the Higham
/// bounds the validate/ diff oracles already allow for parallel
/// reductions.
///
/// The dense-algebra primitives of CP-ALS (gram_rows, matmul_rows,
/// sumsq_rows, divide_rows) run over one row block of the dense layer
/// (core/dense.hpp).  They vectorize across output elements, never
/// across the reduction index: each double lane is one Gram entry,
/// product column or column norm, accumulates in a register for the
/// whole block, and adds the same products in the same row (or p)
/// order as the scalar loop, with separate multiply and add.  So they
/// are bit-identical to the scalar path as well (tests/test_methods).
/// random_unit is integer math plus one exact int-to-float conversion,
/// likewise bit-identical (tests/test_dense).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "simd/simd.hpp"

#if PASTA_SIMD_X86
#include <immintrin.h>
#endif

namespace pasta::simd {

namespace detail {

// fp-contract must stay off inside the vector bodies: avx512f implies
// FMA, and GCC happily contracts a separate _mm512_mul_ps/_mm512_add_ps
// pair into one fused multiply-add, breaking the bit-identity contract
// with the scalar reference path.
#if PASTA_SIMD_X86
#define PASTA_TARGET_AVX2 \
    __attribute__((target("avx2"), optimize("fp-contract=off")))
#define PASTA_TARGET_AVX512 \
    __attribute__((target("avx512f"), optimize("fp-contract=off")))
#endif

// ---- scalar reference implementations ------------------------------
//
// On x86 the scalar bodies are pinned genuinely scalar: no compiler
// auto-vectorization and no FMA contraction.  They are the bit-exact
// reference the vector paths (and the forced PASTA_SIMD=scalar
// baseline) are measured against, so their code must not shift with
// the build's -O/-march flags — under -O3 GCC would SSE-vectorize
// them, and under -march with FMA it would contract a*b+c, changing
// results in the last ulp.  Off x86 there is no alternate path to
// stay identical to, so the attributes are dropped and the compiler
// may optimize freely.
#if PASTA_SIMD_X86 && defined(__GNUC__) && !defined(__clang__)
#define PASTA_SCALAR_REF \
    __attribute__(( \
        optimize("no-tree-vectorize", "no-tree-slp-vectorize", \
                 "fp-contract=off")))
#else
#define PASTA_SCALAR_REF
#endif

PASTA_SCALAR_REF inline void
vfill_scalar(Value* dst, Value v, Size n)
{
    for (Size i = 0; i < n; ++i)
        dst[i] = v;
}

PASTA_SCALAR_REF inline void
vscale_scalar(Value* dst, const Value* src, Value a, Size n)
{
    for (Size i = 0; i < n; ++i)
        dst[i] = a * src[i];
}

PASTA_SCALAR_REF inline void
vfma_rows_scalar(Value* acc, const Value* a, const Value* b, Size n)
{
    for (Size i = 0; i < n; ++i)
        acc[i] += a[i] * b[i];
}

PASTA_SCALAR_REF inline void
vaxpy_scalar(Value* y, Value a, const Value* x, Size n)
{
    for (Size i = 0; i < n; ++i)
        y[i] += a * x[i];
}

PASTA_SCALAR_REF inline void
vadd_inplace_scalar(Value* acc, const Value* a, Size n)
{
    for (Size i = 0; i < n; ++i)
        acc[i] += a[i];
}

PASTA_SCALAR_REF inline void
vhadamard_scalar(Value* z, const Value* x, const Value* y, Size n)
{
    for (Size i = 0; i < n; ++i)
        z[i] = x[i] * y[i];
}

PASTA_SCALAR_REF inline void
vadd_scalar(Value* z, const Value* x, const Value* y, Size n)
{
    for (Size i = 0; i < n; ++i)
        z[i] = x[i] + y[i];
}

PASTA_SCALAR_REF inline void
vsub_scalar(Value* z, const Value* x, const Value* y, Size n)
{
    for (Size i = 0; i < n; ++i)
        z[i] = x[i] - y[i];
}

PASTA_SCALAR_REF inline void
vdiv_scalar(Value* z, const Value* x, const Value* y, Size n)
{
    for (Size i = 0; i < n; ++i)
        z[i] = x[i] / y[i];
}

PASTA_SCALAR_REF inline Value
vdot_scalar(const Value* x, const Value* y, Size n)
{
    Value acc = 0;
    for (Size i = 0; i < n; ++i)
        acc += x[i] * y[i];
    return acc;
}

PASTA_SCALAR_REF inline Value
vdot_gather_scalar(const Value* x, const Index* idx, const Value* table,
                   Size n)
{
    Value acc = 0;
    for (Size i = 0; i < n; ++i)
        acc += x[i] * table[idx[i]];
    return acc;
}

// ---- dense algebra over row blocks (CP-ALS) --------------------------
// `rows` consecutive rows of a row-major matrix with r (or cols)
// columns.  Every sum is in double and runs over rows (or p) in order.

PASTA_SCALAR_REF inline void
gram_rows_scalar(const Value* a, Size rows, Size r, double* part)
{
    for (Size i = 0; i < rows; ++i) {
        const Value* row = a + i * r;
        for (Size p = 0; p < r; ++p)
            for (Size q = p; q < r; ++q)
                part[p * r + q] += static_cast<double>(row[p]) * row[q];
    }
}

PASTA_SCALAR_REF inline void
matmul_rows_scalar(const Value* in, Value* out, Size rows, Size r,
                   const double* rhs)
{
    for (Size i = 0; i < rows; ++i) {
        const Value* x = in + i * r;
        Value* y = out + i * r;
        for (Size q = 0; q < r; ++q) {
            double acc = 0.0;
            for (Size p = 0; p < r; ++p)
                acc += static_cast<double>(x[p]) * rhs[p * r + q];
            y[q] = static_cast<Value>(acc);
        }
    }
}

PASTA_SCALAR_REF inline void
sumsq_rows_scalar(const Value* a, Size rows, Size cols, double* part)
{
    for (Size i = 0; i < rows; ++i) {
        const Value* row = a + i * cols;
        for (Size c = 0; c < cols; ++c)
            part[c] += static_cast<double>(row[c]) * row[c];
    }
}

PASTA_SCALAR_REF inline void
divide_rows_scalar(Value* a, Size rows, Size cols, const double* divisor)
{
    for (Size i = 0; i < rows; ++i) {
        Value* row = a + i * cols;
        for (Size c = 0; c < cols; ++c)
            row[c] = static_cast<Value>(row[c] / divisor[c]);
    }
}

PASTA_SCALAR_REF inline void
random_unit_scalar(Value* dst, std::uint64_t key, std::uint64_t first,
                   Size n)
{
    for (Size i = 0; i < n; ++i)
        dst[i] = unit_float(splitmix64_at(key, first + i));
}

#if PASTA_SIMD_X86

// ---- AVX2 (8 x float) ----------------------------------------------
// Tails run the scalar loop; element-wise bodies use separate mul/add
// (never FMA) to preserve bit-identity with the scalar path.

PASTA_TARGET_AVX2 inline void
vfill_avx2(Value* dst, Value v, Size n)
{
    const __m256 vv = _mm256_set1_ps(v);
    Size i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i, vv);
    for (; i < n; ++i)
        dst[i] = v;
}

PASTA_TARGET_AVX2 inline void
vscale_avx2(Value* dst, const Value* src, Value a, Size n)
{
    const __m256 va = _mm256_set1_ps(a);
    Size i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i,
                         _mm256_mul_ps(va, _mm256_loadu_ps(src + i)));
    for (; i < n; ++i)
        dst[i] = a * src[i];
}

PASTA_TARGET_AVX2 inline void
vfma_rows_avx2(Value* acc, const Value* a, const Value* b, Size n)
{
    Size i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i));
        _mm256_storeu_ps(acc + i,
                         _mm256_add_ps(_mm256_loadu_ps(acc + i), prod));
    }
    for (; i < n; ++i)
        acc[i] += a[i] * b[i];
}

PASTA_TARGET_AVX2 inline void
vaxpy_avx2(Value* y, Value a, const Value* x, Size n)
{
    const __m256 va = _mm256_set1_ps(a);
    Size i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
    }
    for (; i < n; ++i)
        y[i] += a * x[i];
}

PASTA_TARGET_AVX2 inline void
vadd_inplace_avx2(Value* acc, const Value* a, Size n)
{
    Size i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(acc + i,
                         _mm256_add_ps(_mm256_loadu_ps(acc + i),
                                       _mm256_loadu_ps(a + i)));
    for (; i < n; ++i)
        acc[i] += a[i];
}

PASTA_TARGET_AVX2 inline void
vhadamard_avx2(Value* z, const Value* x, const Value* y, Size n)
{
    Size i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(z + i, _mm256_mul_ps(_mm256_loadu_ps(x + i),
                                              _mm256_loadu_ps(y + i)));
    for (; i < n; ++i)
        z[i] = x[i] * y[i];
}

PASTA_TARGET_AVX2 inline void
vadd_avx2(Value* z, const Value* x, const Value* y, Size n)
{
    Size i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(z + i, _mm256_add_ps(_mm256_loadu_ps(x + i),
                                              _mm256_loadu_ps(y + i)));
    for (; i < n; ++i)
        z[i] = x[i] + y[i];
}

PASTA_TARGET_AVX2 inline void
vsub_avx2(Value* z, const Value* x, const Value* y, Size n)
{
    Size i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(z + i, _mm256_sub_ps(_mm256_loadu_ps(x + i),
                                              _mm256_loadu_ps(y + i)));
    for (; i < n; ++i)
        z[i] = x[i] - y[i];
}

PASTA_TARGET_AVX2 inline void
vdiv_avx2(Value* z, const Value* x, const Value* y, Size n)
{
    Size i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(z + i, _mm256_div_ps(_mm256_loadu_ps(x + i),
                                              _mm256_loadu_ps(y + i)));
    for (; i < n; ++i)
        z[i] = x[i] / y[i];
}

/// Horizontal sum with a fixed lane order (low lane first) so repeated
/// runs on the same ISA are deterministic.
PASTA_TARGET_AVX2 inline Value
hsum_avx2(__m256 v)
{
    alignas(32) Value lanes[8];
    _mm256_store_ps(lanes, v);
    Value total = 0;
    for (int l = 0; l < 8; ++l)
        total += lanes[l];
    return total;
}

PASTA_TARGET_AVX2 inline Value
vdot_avx2(const Value* x, const Value* y, Size n)
{
    __m256 acc = _mm256_setzero_ps();
    Size i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_loadu_ps(x + i),
                                          _mm256_loadu_ps(y + i)));
    Value total = hsum_avx2(acc);
    for (; i < n; ++i)
        total += x[i] * y[i];
    return total;
}

PASTA_TARGET_AVX2 inline Value
vdot_gather_avx2(const Value* x, const Index* idx, const Value* table,
                 Size n)
{
    __m256 acc = _mm256_setzero_ps();
    Size i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i vi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(idx + i));
        const __m256 gathered =
            _mm256_i32gather_ps(table, vi, sizeof(Value));
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_loadu_ps(x + i),
                                          gathered));
    }
    Value total = hsum_avx2(acc);
    for (; i < n; ++i)
        total += x[i] * table[idx[i]];
    return total;
}

// Dense algebra: one double lane per output element, 4 per register.
// A group of 4 columns is loaded and stored plainly when whole; a group
// past the row end is masked (the masked lanes neither fault nor
// store), so any width works.

/// Lanes of the 4-column group at column q that lie below `width`.
PASTA_TARGET_AVX2 inline int
live_lanes_avx2(Size q, Size width)
{
    return q < width ? static_cast<int>(std::min<Size>(width - q, 4)) : 0;
}

/// 64-bit lane mask (double loads and stores) of a 4-column group.
PASTA_TARGET_AVX2 inline __m256i
mask_pd_avx2(int live)
{
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(live),
                              _mm256_setr_epi64x(0, 1, 2, 3));
}

/// 32-bit lane mask (float loads and stores) of a 4-column group.
PASTA_TARGET_AVX2 inline __m128i
mask_ps_avx2(int live)
{
    return _mm_cmpgt_epi32(_mm_set1_epi32(live), _mm_setr_epi32(0, 1, 2, 3));
}

PASTA_TARGET_AVX2 inline __m256d
load_ps_as_pd_avx2(const Value* src, int live)
{
    return _mm256_cvtps_pd(live == 4
                               ? _mm_loadu_ps(src)
                               : _mm_maskload_ps(src, mask_ps_avx2(live)));
}

PASTA_TARGET_AVX2 inline void
store_pd_as_ps_avx2(Value* dst, int live, __m256d v)
{
    const __m128 narrowed = _mm256_cvtpd_ps(v);
    if (live == 4)
        _mm_storeu_ps(dst, narrowed);
    else
        _mm_maskstore_ps(dst, mask_ps_avx2(live), narrowed);
}

PASTA_TARGET_AVX2 inline __m256d
load_pd_avx2(const double* src, int live)
{
    return live == 4 ? _mm256_loadu_pd(src)
                     : _mm256_maskload_pd(src, mask_pd_avx2(live));
}

PASTA_TARGET_AVX2 inline void
store_pd_avx2(double* dst, int live, __m256d v)
{
    if (live == 4)
        _mm256_storeu_pd(dst, v);
    else
        _mm256_maskstore_pd(dst, mask_pd_avx2(live), v);
}

/// Gram tile: rows p0..p0+3 (clamped to r-1; the repeats are computed
/// but not stored) x NQ column groups from q0, accumulated in registers
/// over all rows.
template <int NQ>
PASTA_TARGET_AVX2 inline void
gram_tile_avx2(const Value* a, Size rows, Size r, Size p0, Size q0,
               double* part)
{
    constexpr int kNp = 4;
    const Size np = std::min<Size>(kNp, r - p0);
    Size p[kNp];
    int live[NQ];
    __m256d acc[kNp][NQ];
#pragma GCC unroll 8
    for (int j = 0; j < kNp; ++j)
        p[j] = p0 + std::min<Size>(static_cast<Size>(j), np - 1);
#pragma GCC unroll 8
    for (int k = 0; k < NQ; ++k)
        live[k] = live_lanes_avx2(q0 + 4 * k, r);
#pragma GCC unroll 8
    for (int j = 0; j < kNp; ++j)
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            acc[j][k] = load_pd_avx2(part + p[j] * r + q0 + 4 * k, live[k]);
    for (Size i = 0; i < rows; ++i) {
        const Value* row = a + i * r;
        __m256d x[NQ];
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            x[k] = load_ps_as_pd_avx2(row + q0 + 4 * k, live[k]);
#pragma GCC unroll 8
        for (int j = 0; j < kNp; ++j) {
            const __m256d b = _mm256_set1_pd(row[p[j]]);
#pragma GCC unroll 8
            for (int k = 0; k < NQ; ++k)
                acc[j][k] = _mm256_add_pd(acc[j][k], _mm256_mul_pd(b, x[k]));
        }
    }
    for (Size j = 0; j < np; ++j)
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            store_pd_avx2(part + p[j] * r + q0 + 4 * k, live[k], acc[j][k]);
}

PASTA_TARGET_AVX2 inline void
gram_rows_avx2(const Value* a, Size rows, Size r, double* part)
{
    // Tiles start on the diagonal, so they cover the upper triangle
    // plus part of each diagonal 4x4 block.
    for (Size p0 = 0; p0 < r; p0 += 4)
        for (Size q0 = p0; q0 < r; q0 += 8) {
            if (r - q0 > 4)
                gram_tile_avx2<2>(a, rows, r, p0, q0, part);
            else
                gram_tile_avx2<1>(a, rows, r, p0, q0, part);
        }
}

/// Product tile: NQ column groups from q0 of every row of in x rhs.
template <int NQ>
PASTA_TARGET_AVX2 inline void
matmul_tile_avx2(const Value* in, Value* out, Size rows, Size r,
                 const double* rhs, Size q0)
{
    int live[NQ];
#pragma GCC unroll 8
    for (int k = 0; k < NQ; ++k)
        live[k] = live_lanes_avx2(q0 + 4 * k, r);
    for (Size i = 0; i < rows; ++i) {
        const Value* x = in + i * r;
        __m256d acc[NQ];
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            acc[k] = _mm256_setzero_pd();
        for (Size p = 0; p < r; ++p) {
            const __m256d b = _mm256_set1_pd(x[p]);
            const double* w = rhs + p * r + q0;
#pragma GCC unroll 8
            for (int k = 0; k < NQ; ++k)
                acc[k] = _mm256_add_pd(
                    acc[k],
                    _mm256_mul_pd(b, load_pd_avx2(w + 4 * k, live[k])));
        }
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            store_pd_as_ps_avx2(out + i * r + q0 + 4 * k, live[k], acc[k]);
    }
}

PASTA_TARGET_AVX2 inline void
matmul_rows_avx2(const Value* in, Value* out, Size rows, Size r,
                 const double* rhs)
{
    for (Size q0 = 0; q0 < r; q0 += 8) {
        if (r - q0 > 4)
            matmul_tile_avx2<2>(in, out, rows, r, rhs, q0);
        else
            matmul_tile_avx2<1>(in, out, rows, r, rhs, q0);
    }
}

/// Column sums of squares for NC column groups from c0, over all rows.
template <int NC>
PASTA_TARGET_AVX2 inline void
sumsq_tile_avx2(const Value* a, Size rows, Size cols, Size c0, double* part)
{
    int live[NC];
    __m256d acc[NC];
#pragma GCC unroll 8
    for (int k = 0; k < NC; ++k) {
        live[k] = live_lanes_avx2(c0 + 4 * k, cols);
        acc[k] = load_pd_avx2(part + c0 + 4 * k, live[k]);
    }
    for (Size i = 0; i < rows; ++i) {
        const Value* row = a + i * cols + c0;
#pragma GCC unroll 8
        for (int k = 0; k < NC; ++k) {
            const __m256d x = load_ps_as_pd_avx2(row + 4 * k, live[k]);
            acc[k] = _mm256_add_pd(acc[k], _mm256_mul_pd(x, x));
        }
    }
#pragma GCC unroll 8
    for (int k = 0; k < NC; ++k)
        store_pd_avx2(part + c0 + 4 * k, live[k], acc[k]);
}

PASTA_TARGET_AVX2 inline void
sumsq_rows_avx2(const Value* a, Size rows, Size cols, double* part)
{
    for (Size c0 = 0; c0 < cols; c0 += 8) {
        if (cols - c0 > 4)
            sumsq_tile_avx2<2>(a, rows, cols, c0, part);
        else
            sumsq_tile_avx2<1>(a, rows, cols, c0, part);
    }
}

PASTA_TARGET_AVX2 inline void
divide_rows_avx2(Value* a, Size rows, Size cols, const double* divisor)
{
    for (Size i = 0; i < rows; ++i) {
        Value* row = a + i * cols;
        for (Size c = 0; c < cols; c += 4) {
            const int live = live_lanes_avx2(c, cols);
            // Dead lanes divide 0 by 1.
            const __m256d d =
                live == 4 ? _mm256_loadu_pd(divisor + c)
                          : _mm256_blendv_pd(
                                _mm256_set1_pd(1.0),
                                _mm256_maskload_pd(divisor + c,
                                                   mask_pd_avx2(live)),
                                _mm256_castsi256_pd(mask_pd_avx2(live)));
            store_pd_as_ps_avx2(
                row + c, live,
                _mm256_div_pd(load_ps_as_pd_avx2(row + c, live), d));
        }
    }
}

/// z * b mod 2^64 per 64-bit lane, from 32-bit partial products (AVX2
/// has no 64-bit multiply).
PASTA_TARGET_AVX2 inline __m256i
mul64_avx2(__m256i z, std::uint64_t b)
{
    const __m256i lo = _mm256_set1_epi64x(static_cast<long long>(b));
    const __m256i hi = _mm256_set1_epi64x(static_cast<long long>(b >> 32));
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(z, 32), lo),
                         _mm256_mul_epu32(z, hi));
    return _mm256_add_epi64(_mm256_mul_epu32(z, lo),
                            _mm256_slli_epi64(cross, 32));
}

/// splitmix64_mix per lane, then the top 24 bits (unit_float's input).
PASTA_TARGET_AVX2 inline __m256i
mix_top24_avx2(__m256i z)
{
    z = mul64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                   0xBF58476D1CE4E5B9ULL);
    z = mul64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                   0x94D049BB133111EBULL);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
    return _mm256_srli_epi64(z, 40);
}

PASTA_TARGET_AVX2 inline void
random_unit_avx2(Value* dst, std::uint64_t key, std::uint64_t first, Size n)
{
    // Lane l of z0 (z1) holds the counter input of element i + l
    // (i + 4 + l): key + (first + i + l + 1) * gamma.
    alignas(32) std::uint64_t start[8];
    for (int l = 0; l < 8; ++l)
        start[l] = key + (first + static_cast<std::uint64_t>(l) + 1) *
                             kSplitMixGamma;
    __m256i z0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(start));
    __m256i z1 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(start + 4));
    const __m256i step =
        _mm256_set1_epi64x(static_cast<long long>(8 * kSplitMixGamma));
    const __m256 scale = _mm256_set1_ps(0x1.0p-24f);
    Size i = 0;
    for (; i + 8 <= n; i += 8) {
        // Low dwords of both vectors, back in element order.
        const __m256i packed = _mm256_permute4x64_epi64(
            _mm256_castps_si256(_mm256_shuffle_ps(
                _mm256_castsi256_ps(mix_top24_avx2(z0)),
                _mm256_castsi256_ps(mix_top24_avx2(z1)),
                _MM_SHUFFLE(2, 0, 2, 0))),
            _MM_SHUFFLE(3, 1, 2, 0));
        _mm256_storeu_ps(dst + i,
                         _mm256_mul_ps(_mm256_cvtepi32_ps(packed), scale));
        z0 = _mm256_add_epi64(z0, step);
        z1 = _mm256_add_epi64(z1, step);
    }
    for (; i < n; ++i)
        dst[i] = unit_float(splitmix64_at(key, first + i));
}

// ---- AVX-512 (16 x float) ------------------------------------------
// Tails use masked loads/stores: one code path regardless of remainder.

PASTA_TARGET_AVX512 inline void
vfill_avx512(Value* dst, Value v, Size n)
{
    const __m512 vv = _mm512_set1_ps(v);
    Size i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(dst + i, vv);
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        _mm512_mask_storeu_ps(dst + i, m, vv);
    }
}

PASTA_TARGET_AVX512 inline void
vscale_avx512(Value* dst, const Value* src, Value a, Size n)
{
    const __m512 va = _mm512_set1_ps(a);
    Size i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(dst + i,
                         _mm512_mul_ps(va, _mm512_loadu_ps(src + i)));
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        const __m512 s = _mm512_maskz_loadu_ps(m, src + i);
        _mm512_mask_storeu_ps(dst + i, m, _mm512_mul_ps(va, s));
    }
}

PASTA_TARGET_AVX512 inline void
vfma_rows_avx512(Value* acc, const Value* a, const Value* b, Size n)
{
    Size i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 prod = _mm512_mul_ps(_mm512_loadu_ps(a + i),
                                          _mm512_loadu_ps(b + i));
        _mm512_storeu_ps(acc + i,
                         _mm512_add_ps(_mm512_loadu_ps(acc + i), prod));
    }
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        const __m512 prod =
            _mm512_mul_ps(_mm512_maskz_loadu_ps(m, a + i),
                          _mm512_maskz_loadu_ps(m, b + i));
        const __m512 va = _mm512_maskz_loadu_ps(m, acc + i);
        _mm512_mask_storeu_ps(acc + i, m, _mm512_add_ps(va, prod));
    }
}

PASTA_TARGET_AVX512 inline void
vaxpy_avx512(Value* y, Value a, const Value* x, Size n)
{
    const __m512 va = _mm512_set1_ps(a);
    Size i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 prod = _mm512_mul_ps(va, _mm512_loadu_ps(x + i));
        _mm512_storeu_ps(y + i,
                         _mm512_add_ps(_mm512_loadu_ps(y + i), prod));
    }
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        const __m512 prod =
            _mm512_mul_ps(va, _mm512_maskz_loadu_ps(m, x + i));
        const __m512 vy = _mm512_maskz_loadu_ps(m, y + i);
        _mm512_mask_storeu_ps(y + i, m, _mm512_add_ps(vy, prod));
    }
}

PASTA_TARGET_AVX512 inline void
vadd_inplace_avx512(Value* acc, const Value* a, Size n)
{
    Size i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(acc + i,
                         _mm512_add_ps(_mm512_loadu_ps(acc + i),
                                       _mm512_loadu_ps(a + i)));
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        const __m512 va = _mm512_maskz_loadu_ps(m, acc + i);
        const __m512 vb = _mm512_maskz_loadu_ps(m, a + i);
        _mm512_mask_storeu_ps(acc + i, m, _mm512_add_ps(va, vb));
    }
}

PASTA_TARGET_AVX512 inline void
vhadamard_avx512(Value* z, const Value* x, const Value* y, Size n)
{
    Size i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(z + i, _mm512_mul_ps(_mm512_loadu_ps(x + i),
                                              _mm512_loadu_ps(y + i)));
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        _mm512_mask_storeu_ps(
            z + i, m,
            _mm512_mul_ps(_mm512_maskz_loadu_ps(m, x + i),
                          _mm512_maskz_loadu_ps(m, y + i)));
    }
}

PASTA_TARGET_AVX512 inline void
vadd_avx512(Value* z, const Value* x, const Value* y, Size n)
{
    Size i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(z + i, _mm512_add_ps(_mm512_loadu_ps(x + i),
                                              _mm512_loadu_ps(y + i)));
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        _mm512_mask_storeu_ps(
            z + i, m,
            _mm512_add_ps(_mm512_maskz_loadu_ps(m, x + i),
                          _mm512_maskz_loadu_ps(m, y + i)));
    }
}

PASTA_TARGET_AVX512 inline void
vsub_avx512(Value* z, const Value* x, const Value* y, Size n)
{
    Size i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(z + i, _mm512_sub_ps(_mm512_loadu_ps(x + i),
                                              _mm512_loadu_ps(y + i)));
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        _mm512_mask_storeu_ps(
            z + i, m,
            _mm512_sub_ps(_mm512_maskz_loadu_ps(m, x + i),
                          _mm512_maskz_loadu_ps(m, y + i)));
    }
}

PASTA_TARGET_AVX512 inline void
vdiv_avx512(Value* z, const Value* x, const Value* y, Size n)
{
    Size i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(z + i, _mm512_div_ps(_mm512_loadu_ps(x + i),
                                              _mm512_loadu_ps(y + i)));
    // Masked-divide tails would fault-free divide by zero in the dead
    // lanes; run them scalar instead.
    for (; i < n; ++i)
        z[i] = x[i] / y[i];
}

PASTA_TARGET_AVX512 inline Value
hsum_avx512(__m512 v)
{
    alignas(64) Value lanes[16];
    _mm512_store_ps(lanes, v);
    Value total = 0;
    for (int l = 0; l < 16; ++l)
        total += lanes[l];
    return total;
}

PASTA_TARGET_AVX512 inline Value
vdot_avx512(const Value* x, const Value* y, Size n)
{
    __m512 acc = _mm512_setzero_ps();
    Size i = 0;
    for (; i + 16 <= n; i += 16)
        acc = _mm512_add_ps(acc,
                            _mm512_mul_ps(_mm512_loadu_ps(x + i),
                                          _mm512_loadu_ps(y + i)));
    Value total = hsum_avx512(acc);
    for (; i < n; ++i)
        total += x[i] * y[i];
    return total;
}

PASTA_TARGET_AVX512 inline Value
vdot_gather_avx512(const Value* x, const Index* idx, const Value* table,
                   Size n)
{
    __m512 acc = _mm512_setzero_ps();
    Size i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i vi = _mm512_loadu_si512(
            reinterpret_cast<const void*>(idx + i));
        // Masked full-lane gather: the zero source operand keeps the
        // "old value" defined (the plain gather leaves it undefined and
        // trips -Wmaybe-uninitialized inside the GCC intrinsic header).
        const __m512 gathered = _mm512_mask_i32gather_ps(
            _mm512_setzero_ps(), 0xffff, vi, table, sizeof(Value));
        acc = _mm512_add_ps(acc,
                            _mm512_mul_ps(_mm512_loadu_ps(x + i),
                                          gathered));
    }
    Value total = hsum_avx512(acc);
    for (; i < n; ++i)
        total += x[i] * table[idx[i]];
    return total;
}

// Dense algebra: one double lane per output element, 8 per register,
// masked past the row end.  The conversions and integer ops below use
// their zero-masking forms (with all lanes live where no mask is
// needed): the plain forms start from an undefined vector and trip
// -Wmaybe-uninitialized inside the GCC intrinsic header.

constexpr __mmask8 kAllLanes8 = 0xff;

/// Lane mask of the 8-column group at column q below `width`.
PASTA_TARGET_AVX512 inline __mmask8
live_mask_avx512(Size q, Size width)
{
    const Size live = q < width ? std::min<Size>(width - q, 8) : 0;
    return static_cast<__mmask8>((1u << live) - 1u);
}

/// Eight floats widened to doubles.  A full group is one 256-bit load;
/// only a tail group takes the 512-bit masked load.
PASTA_TARGET_AVX512 inline __m512d
load_ps_as_pd_avx512(const Value* src, __mmask8 m)
{
    if (m == kAllLanes8)
        return _mm512_maskz_cvtps_pd(m, _mm256_loadu_ps(src));
    const __m512d loaded = _mm512_castps_pd(_mm512_maskz_loadu_ps(m, src));
    return _mm512_maskz_cvtps_pd(
        m, _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xf, loaded, 0)));
}

/// Eight doubles rounded to floats and stored.  A full group is one
/// 256-bit store: a 512-bit masked store also covers the next 32 bytes,
/// and a later load there (the next group of a row pass) waits for it
/// to retire instead of being forwarded.
PASTA_TARGET_AVX512 inline void
store_pd_as_ps_avx512(Value* dst, __mmask8 m, __m512d v)
{
    const __m256 narrowed = _mm512_maskz_cvtpd_ps(m, v);
    if (m == kAllLanes8)
        _mm256_storeu_ps(dst, narrowed);
    else
        _mm512_mask_storeu_ps(dst, m, _mm512_castps256_ps512(narrowed));
}

/// Gram tile: rows p0..p0+7 (clamped to r-1; the repeats are computed
/// but not stored) x NQ column groups from q0, accumulated in registers
/// over all rows.
template <int NQ>
PASTA_TARGET_AVX512 inline void
gram_tile_avx512(const Value* a, Size rows, Size r, Size p0, Size q0,
                 double* part)
{
    constexpr int kNp = 8;
    const Size np = std::min<Size>(kNp, r - p0);
    Size p[kNp];
    __mmask8 m[NQ];
    __m512d acc[kNp][NQ];
#pragma GCC unroll 8
    for (int j = 0; j < kNp; ++j)
        p[j] = p0 + std::min<Size>(static_cast<Size>(j), np - 1);
#pragma GCC unroll 8
    for (int k = 0; k < NQ; ++k)
        m[k] = live_mask_avx512(q0 + 8 * k, r);
#pragma GCC unroll 8
    for (int j = 0; j < kNp; ++j)
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            acc[j][k] =
                _mm512_maskz_loadu_pd(m[k], part + p[j] * r + q0 + 8 * k);
    for (Size i = 0; i < rows; ++i) {
        const Value* row = a + i * r;
        __m512d x[NQ];
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            x[k] = load_ps_as_pd_avx512(row + q0 + 8 * k, m[k]);
#pragma GCC unroll 8
        for (int j = 0; j < kNp; ++j) {
            const __m512d b = _mm512_set1_pd(row[p[j]]);
#pragma GCC unroll 8
            for (int k = 0; k < NQ; ++k)
                acc[j][k] = _mm512_add_pd(acc[j][k], _mm512_mul_pd(b, x[k]));
        }
    }
    for (Size j = 0; j < np; ++j)
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            _mm512_mask_storeu_pd(part + p[j] * r + q0 + 8 * k, m[k],
                                  acc[j][k]);
}

PASTA_TARGET_AVX512 inline void
gram_rows_avx512(const Value* a, Size rows, Size r, double* part)
{
    // Tiles start on the diagonal, so they cover the upper triangle
    // plus part of each diagonal 8x8 block.
    for (Size p0 = 0; p0 < r; p0 += 8)
        for (Size q0 = p0; q0 < r; q0 += 16) {
            if (r - q0 > 8)
                gram_tile_avx512<2>(a, rows, r, p0, q0, part);
            else
                gram_tile_avx512<1>(a, rows, r, p0, q0, part);
        }
}

/// Product tile: NQ column groups from q0 of every row of in x rhs.
template <int NQ>
PASTA_TARGET_AVX512 inline void
matmul_tile_avx512(const Value* in, Value* out, Size rows, Size r,
                   const double* rhs, Size q0)
{
    __mmask8 m[NQ];
#pragma GCC unroll 8
    for (int k = 0; k < NQ; ++k)
        m[k] = live_mask_avx512(q0 + 8 * k, r);
    for (Size i = 0; i < rows; ++i) {
        const Value* x = in + i * r;
        __m512d acc[NQ];
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            acc[k] = _mm512_setzero_pd();
        for (Size p = 0; p < r; ++p) {
            const __m512d b = _mm512_set1_pd(x[p]);
            const double* w = rhs + p * r + q0;
#pragma GCC unroll 8
            for (int k = 0; k < NQ; ++k)
                acc[k] = _mm512_add_pd(
                    acc[k],
                    _mm512_mul_pd(b, _mm512_maskz_loadu_pd(m[k], w + 8 * k)));
        }
#pragma GCC unroll 8
        for (int k = 0; k < NQ; ++k)
            store_pd_as_ps_avx512(out + i * r + q0 + 8 * k, m[k], acc[k]);
    }
}

PASTA_TARGET_AVX512 inline void
matmul_rows_avx512(const Value* in, Value* out, Size rows, Size r,
                   const double* rhs)
{
    for (Size q0 = 0; q0 < r; q0 += 16) {
        if (r - q0 > 8)
            matmul_tile_avx512<2>(in, out, rows, r, rhs, q0);
        else
            matmul_tile_avx512<1>(in, out, rows, r, rhs, q0);
    }
}

/// Column sums of squares for NC column groups from c0, over all rows.
template <int NC>
PASTA_TARGET_AVX512 inline void
sumsq_tile_avx512(const Value* a, Size rows, Size cols, Size c0,
                  double* part)
{
    __mmask8 m[NC];
    __m512d acc[NC];
#pragma GCC unroll 8
    for (int k = 0; k < NC; ++k) {
        m[k] = live_mask_avx512(c0 + 8 * k, cols);
        acc[k] = _mm512_maskz_loadu_pd(m[k], part + c0 + 8 * k);
    }
    for (Size i = 0; i < rows; ++i) {
        const Value* row = a + i * cols + c0;
#pragma GCC unroll 8
        for (int k = 0; k < NC; ++k) {
            const __m512d x = load_ps_as_pd_avx512(row + 8 * k, m[k]);
            acc[k] = _mm512_add_pd(acc[k], _mm512_mul_pd(x, x));
        }
    }
#pragma GCC unroll 8
    for (int k = 0; k < NC; ++k)
        _mm512_mask_storeu_pd(part + c0 + 8 * k, m[k], acc[k]);
}

PASTA_TARGET_AVX512 inline void
sumsq_rows_avx512(const Value* a, Size rows, Size cols, double* part)
{
    for (Size c0 = 0; c0 < cols; c0 += 16) {
        if (cols - c0 > 8)
            sumsq_tile_avx512<2>(a, rows, cols, c0, part);
        else
            sumsq_tile_avx512<1>(a, rows, cols, c0, part);
    }
}

PASTA_TARGET_AVX512 inline void
divide_rows_avx512(Value* a, Size rows, Size cols, const double* divisor)
{
    const __m512d one = _mm512_set1_pd(1.0);
    for (Size i = 0; i < rows; ++i) {
        Value* row = a + i * cols;
        for (Size c = 0; c < cols; c += 8) {
            const __mmask8 m = live_mask_avx512(c, cols);
            // Dead lanes divide 0 by 1.
            const __m512d d = _mm512_mask_loadu_pd(one, m, divisor + c);
            store_pd_as_ps_avx512(
                row + c, m,
                _mm512_div_pd(load_ps_as_pd_avx512(row + c, m), d));
        }
    }
}

/// z * b mod 2^64 per 64-bit lane, from 32-bit partial products
/// (avx512f has no 64-bit multiply; vpmullq needs avx512dq).
PASTA_TARGET_AVX512 inline __m512i
mul64_avx512(__m512i z, std::uint64_t b)
{
    const __m512i lo = _mm512_set1_epi64(static_cast<long long>(b));
    const __m512i hi = _mm512_set1_epi64(static_cast<long long>(b >> 32));
    const __m512i cross = _mm512_add_epi64(
        _mm512_maskz_mul_epu32(kAllLanes8,
                               _mm512_maskz_srli_epi64(kAllLanes8, z, 32), lo),
        _mm512_maskz_mul_epu32(kAllLanes8, z, hi));
    return _mm512_add_epi64(
        _mm512_maskz_mul_epu32(kAllLanes8, z, lo),
        _mm512_maskz_slli_epi64(kAllLanes8, cross, 32));
}

/// splitmix64_mix per lane, then the top 24 bits as 32-bit integers.
PASTA_TARGET_AVX512 inline __m256i
mix_top24_avx512(__m512i z)
{
    z = mul64_avx512(
        _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAllLanes8, z, 30)),
        0xBF58476D1CE4E5B9ULL);
    z = mul64_avx512(
        _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAllLanes8, z, 27)),
        0x94D049BB133111EBULL);
    z = _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAllLanes8, z, 31));
    return _mm512_maskz_cvtepi64_epi32(
        kAllLanes8, _mm512_maskz_srli_epi64(kAllLanes8, z, 40));
}

PASTA_TARGET_AVX512 inline void
random_unit_avx512(Value* dst, std::uint64_t key, std::uint64_t first,
                   Size n)
{
    // Lane l of z0 (z1) holds the counter input of element i + l
    // (i + 8 + l): key + (first + i + l + 1) * gamma.
    alignas(64) std::uint64_t start[16];
    for (int l = 0; l < 16; ++l)
        start[l] = key + (first + static_cast<std::uint64_t>(l) + 1) *
                             kSplitMixGamma;
    __m512i z0 = _mm512_load_si512(start);
    __m512i z1 = _mm512_load_si512(start + 8);
    const __m512i step =
        _mm512_set1_epi64(static_cast<long long>(16 * kSplitMixGamma));
    const __m512 scale = _mm512_set1_ps(0x1.0p-24f);
    Size i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i top = _mm512_maskz_inserti64x4(
            kAllLanes8, _mm512_castsi256_si512(mix_top24_avx512(z0)),
            mix_top24_avx512(z1), 1);
        _mm512_storeu_ps(
            dst + i,
            _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(0xffff, top), scale));
        z0 = _mm512_add_epi64(z0, step);
        z1 = _mm512_add_epi64(z1, step);
    }
    for (; i < n; ++i)
        dst[i] = unit_float(splitmix64_at(key, first + i));
}

#endif  // PASTA_SIMD_X86

}  // namespace detail

// ---- dispatched entry points ---------------------------------------
// Each is a switch over an Isa value the caller hoisted out of its
// loop; the branch predicts perfectly and the intrinsic bodies inline
// into the case arms.

/// dst[i] = v.
inline void
vfill(Isa isa, Value* dst, Value v, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::vfill_avx512(dst, v, n);
        return;
      case Isa::kAvx2:
        detail::vfill_avx2(dst, v, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::vfill_scalar(dst, v, n);
}

/// dst[i] = a * src[i] (CSF leaf: value times factor row).
inline void
vscale(Isa isa, Value* dst, const Value* src, Value a, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::vscale_avx512(dst, src, a, n);
        return;
      case Isa::kAvx2:
        detail::vscale_avx2(dst, src, a, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::vscale_scalar(dst, src, a, n);
}

/// acc[i] += a[i] * b[i] (CSF subtree merge: child partial x factor row).
inline void
vfma_rows(Isa isa, Value* acc, const Value* a, const Value* b, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::vfma_rows_avx512(acc, a, b, n);
        return;
      case Isa::kAvx2:
        detail::vfma_rows_avx2(acc, a, b, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::vfma_rows_scalar(acc, a, b, n);
}

/// y[i] += a * x[i] (TTM stripe accumulate).
inline void
vaxpy(Isa isa, Value* y, Value a, const Value* x, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::vaxpy_avx512(y, a, x, n);
        return;
      case Isa::kAvx2:
        detail::vaxpy_avx2(y, a, x, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::vaxpy_scalar(y, a, x, n);
}

/// acc[i] += a[i] (run accumulation, owner-partition output update).
inline void
vadd_inplace(Isa isa, Value* acc, const Value* a, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::vadd_inplace_avx512(acc, a, n);
        return;
      case Isa::kAvx2:
        detail::vadd_inplace_avx2(acc, a, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::vadd_inplace_scalar(acc, a, n);
}

/// z[i] = x[i] * y[i] (TEW multiply over matched value streams).
inline void
vhadamard(Isa isa, Value* z, const Value* x, const Value* y, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::vhadamard_avx512(z, x, y, n);
        return;
      case Isa::kAvx2:
        detail::vhadamard_avx2(z, x, y, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::vhadamard_scalar(z, x, y, n);
}

/// z[i] = x[i] + y[i].
inline void
vadd(Isa isa, Value* z, const Value* x, const Value* y, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::vadd_avx512(z, x, y, n);
        return;
      case Isa::kAvx2:
        detail::vadd_avx2(z, x, y, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::vadd_scalar(z, x, y, n);
}

/// z[i] = x[i] - y[i].
inline void
vsub(Isa isa, Value* z, const Value* x, const Value* y, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::vsub_avx512(z, x, y, n);
        return;
      case Isa::kAvx2:
        detail::vsub_avx2(z, x, y, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::vsub_scalar(z, x, y, n);
}

/// z[i] = x[i] / y[i].
inline void
vdiv(Isa isa, Value* z, const Value* x, const Value* y, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::vdiv_avx512(z, x, y, n);
        return;
      case Isa::kAvx2:
        detail::vdiv_avx2(z, x, y, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::vdiv_scalar(z, x, y, n);
}

/// sum_i x[i] * y[i].  Lane partial sums reassociate; deterministic for
/// a fixed ISA, bounded by the Higham forward-error model.
inline Value
vdot(Isa isa, const Value* x, const Value* y, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        return detail::vdot_avx512(x, y, n);
      case Isa::kAvx2:
        return detail::vdot_avx2(x, y, n);
      default:
        break;
    }
#endif
    (void)isa;
    return detail::vdot_scalar(x, y, n);
}

/// sum_i x[i] * table[idx[i]] (TTV fiber dot with gathered vector
/// entries).  Same reassociation contract as vdot.
inline Value
vdot_gather(Isa isa, const Value* x, const Index* idx,
            const Value* table, Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        return detail::vdot_gather_avx512(x, idx, table, n);
      case Isa::kAvx2:
        return detail::vdot_gather_avx2(x, idx, table, n);
      default:
        break;
    }
#endif
    (void)isa;
    return detail::vdot_gather_scalar(x, idx, table, n);
}

/// part[p*r + q] += a_i[p] * a_i[q] in double over the `rows` rows a_i
/// of the r-column matrix at `a`, for every q >= p (the Gram upper
/// triangle of one row block).  Entries below the diagonal are either
/// left alone or get their own sums, which equal their mirrors bit for
/// bit; callers mirror the upper triangle.
inline void
gram_rows(Isa isa, const Value* a, Size rows, Size r, double* part)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::gram_rows_avx512(a, rows, r, part);
        return;
      case Isa::kAvx2:
        detail::gram_rows_avx2(a, rows, r, part);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::gram_rows_scalar(a, rows, r, part);
}

/// out_i[q] = float(sum_p in_i[p] * rhs[p*r + q]), summed in double in
/// p order, for the `rows` rows of two r-column matrices (the CP-ALS
/// solve U = M V^-1 of one row block).  `in` and `out` must not overlap.
inline void
matmul_rows(Isa isa, const Value* in, Value* out, Size rows, Size r,
            const double* rhs)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::matmul_rows_avx512(in, out, rows, r, rhs);
        return;
      case Isa::kAvx2:
        detail::matmul_rows_avx2(in, out, rows, r, rhs);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::matmul_rows_scalar(in, out, rows, r, rhs);
}

/// part[c] += a_i[c]^2 in double over the `rows` rows of a cols-column
/// matrix (column norms of one row block).
inline void
sumsq_rows(Isa isa, const Value* a, Size rows, Size cols, double* part)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::sumsq_rows_avx512(a, rows, cols, part);
        return;
      case Isa::kAvx2:
        detail::sumsq_rows_avx2(a, rows, cols, part);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::sumsq_rows_scalar(a, rows, cols, part);
}

/// a_i[c] = float(double(a_i[c]) / divisor[c]) over the `rows` rows of a
/// cols-column matrix (column normalization of one row block).
inline void
divide_rows(Isa isa, Value* a, Size rows, Size cols, const double* divisor)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::divide_rows_avx512(a, rows, cols, divisor);
        return;
      case Isa::kAvx2:
        detail::divide_rows_avx2(a, rows, cols, divisor);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::divide_rows_scalar(a, rows, cols, divisor);
}

/// dst[i] = unit_float(splitmix64_at(key, first + i)) for i < n (the
/// counter-based dense random init of core/dense.hpp).  Integer math
/// plus one exact int-to-float conversion: the same bits on every ISA.
inline void
random_unit(Isa isa, Value* dst, std::uint64_t key, std::uint64_t first,
            Size n)
{
#if PASTA_SIMD_X86
    switch (isa) {
      case Isa::kAvx512:
        detail::random_unit_avx512(dst, key, first, n);
        return;
      case Isa::kAvx2:
        detail::random_unit_avx2(dst, key, first, n);
        return;
      default:
        break;
    }
#endif
    (void)isa;
    detail::random_unit_scalar(dst, key, first, n);
}

}  // namespace pasta::simd
