// Tests for the complete tensor methods, CP-ALS and Tucker-HOOI, plus
// the small linear algebra they rest on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "kernels/ttm.hpp"
#include "methods/cpd.hpp"
#include "methods/linalg.hpp"
#include "methods/tucker.hpp"
#include "simd/simd.hpp"

namespace pasta {
namespace {

TEST(Linalg, GramMatrixMatchesHandComputation)
{
    DenseMatrix a(3, 2);
    a(0, 0) = 1;
    a(1, 0) = 2;
    a(2, 0) = 3;
    a(0, 1) = 4;
    a(1, 1) = 5;
    a(2, 1) = 6;
    const auto g = gram_matrix(a);
    EXPECT_DOUBLE_EQ(g[0], 14.0);   // 1+4+9
    EXPECT_DOUBLE_EQ(g[1], 32.0);   // 4+10+18
    EXPECT_DOUBLE_EQ(g[2], 32.0);
    EXPECT_DOUBLE_EQ(g[3], 77.0);   // 16+25+36
}

TEST(Linalg, InvertRecoversIdentity)
{
    std::vector<double> a = {4, 7, 2, 6};
    const auto inv = invert_matrix(a, 2);
    // a * inv = I.
    for (Size i = 0; i < 2; ++i) {
        for (Size j = 0; j < 2; ++j) {
            double acc = 0;
            for (Size k = 0; k < 2; ++k)
                acc += a[i * 2 + k] * inv[k * 2 + j];
            EXPECT_NEAR(acc, i == j ? 1.0 : 0.0, 1e-9);
        }
    }
}

TEST(Linalg, InvertSurvivesNearSingularViaRidge)
{
    std::vector<double> singular = {1, 1, 1, 1};
    EXPECT_NO_THROW(invert_matrix(singular, 2));
}

TEST(Linalg, OrthonormalizeProducesOrthonormalColumns)
{
    Rng rng(1);
    DenseMatrix a = DenseMatrix::random(20, 5, rng);
    orthonormalize_columns(a);
    for (Size c1 = 0; c1 < 5; ++c1) {
        for (Size c2 = 0; c2 <= c1; ++c2) {
            double dot = 0;
            for (Size i = 0; i < 20; ++i)
                dot += static_cast<double>(a(i, c1)) * a(i, c2);
            EXPECT_NEAR(dot, c1 == c2 ? 1.0 : 0.0, 1e-4);
        }
    }
}

TEST(Linalg, NormalizeColumnsReturnsNorms)
{
    DenseMatrix a(2, 2);
    a(0, 0) = 3;
    a(1, 0) = 4;
    a(0, 1) = 0;
    a(1, 1) = 2;
    const auto norms = normalize_columns(a);
    EXPECT_NEAR(norms[0], 5.0, 1e-6);
    EXPECT_NEAR(norms[1], 2.0, 1e-6);
    EXPECT_NEAR(a(0, 0), 0.6, 1e-6);
    EXPECT_NEAR(a(1, 1), 1.0, 1e-6);
}

/// Scalar first, then every vector ISA this CPU runs (the others are
/// skipped, as in test_simd).
std::vector<simd::Isa>
runnable_isas()
{
    std::vector<simd::Isa> isas{simd::Isa::kScalar};
    for (simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kAvx512})
        if (simd::isa_supported(isa))
            isas.push_back(isa);
    return isas;
}

/// Drops a forced ISA on scope exit: the next active_isa() re-reads
/// PASTA_SIMD.
struct IsaGuard {
    ~IsaGuard() { simd::reset_isa_cache(); }
};

template <typename T>
bool
same_bits(const std::vector<T>& a, const std::vector<T>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool
same_bits(const DenseMatrix& a, const DenseMatrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.storage_bytes()) == 0;
}

TEST(Linalg, DenseAlgebraBitsIdenticalUnderEveryIsa)
{
    IsaGuard guard;
    for (Size cols : {1, 3, 8, 15, 16, 17, 33}) {
        // Three row blocks and a tail; values of both signs and some -0.
        const Size rows = 3 * dense_row_block(cols) + 5;
        Rng rng(cols);
        DenseMatrix a(rows, cols);
        for (Size i = 0; i < rows; ++i)
            for (Size c = 0; c < cols; ++c)
                a(i, c) = (i + c) % 7 == 0 ? -0.0f
                                           : 2.0f * rng.next_float() - 1.0f;
        std::vector<double> rhs(cols * cols);
        for (auto& w : rhs)
            w = 2.0 * rng.next_double() - 1.0;
        if (cols >= 3) {
            // Columns 0 and 1 cancel against two equal rhs rows of 2^40:
            // the solve's p-order sum drops them exactly, any other order
            // leaves rounding residue visible after the cast to float.
            // The last column is all zeros of both signs, which
            // normalize_columns leaves alone.
            for (Size i = 0; i < rows; ++i) {
                a(i, 1) = -a(i, 0);
                a(i, cols - 1) = i % 2 == 0 ? 0.0f : -0.0f;
            }
            for (Size q = 0; q < cols; ++q)
                rhs[q] = rhs[cols + q] = 0x1p40;
        }

        struct Results {
            std::vector<double> gram, norms;
            DenseMatrix product, normalized;
        };
        const auto run = [&](simd::Isa isa) {
            simd::set_isa(isa);
            Results res;
            res.gram = gram_matrix(a);
            res.product = DenseMatrix(rows, cols);
            matmul_small(a, rhs, res.product);
            res.normalized = a;
            res.norms = normalize_columns(res.normalized);
            return res;
        };
        const Results ref = run(simd::Isa::kScalar);
        for (simd::Isa isa : runnable_isas()) {
            const Results got = run(isa);
            const char* name = simd::isa_name(isa);
            EXPECT_TRUE(same_bits(got.gram, ref.gram))
                << name << " " << cols;
            EXPECT_TRUE(same_bits(got.product, ref.product))
                << name << " " << cols;
            EXPECT_TRUE(same_bits(got.norms, ref.norms))
                << name << " " << cols;
            EXPECT_TRUE(same_bits(got.normalized, ref.normalized))
                << name << " " << cols;
        }
        if (cols >= 3) {
            EXPECT_EQ(ref.norms[cols - 1], 0.0);
            for (Size i = 0; i < rows; ++i)
                ASSERT_EQ(std::signbit(ref.normalized(i, cols - 1)),
                          i % 2 == 1)
                    << cols << " " << i;
        }
    }
}

/// Builds a random rank-r CP tensor (sparse representation of a dense
/// low-rank object restricted to sampled coordinates is NOT low rank, so
/// we materialize all coordinates of a small cube).
CooTensor
planted_cp_tensor(Size n, Size rank, Rng& rng,
                  std::vector<DenseMatrix>* planted = nullptr)
{
    std::vector<DenseMatrix> mats;
    for (int m = 0; m < 3; ++m)
        mats.push_back(
            DenseMatrix::random(n, rank, rng));
    CooTensor x({static_cast<Index>(n), static_cast<Index>(n),
                 static_cast<Index>(n)});
    for (Index i = 0; i < n; ++i)
        for (Index j = 0; j < n; ++j)
            for (Index k = 0; k < n; ++k) {
                double v = 0;
                for (Size r = 0; r < rank; ++r)
                    v += static_cast<double>(mats[0](i, r)) *
                         mats[1](j, r) * mats[2](k, r);
                x.append({i, j, k}, static_cast<Value>(v));
            }
    if (planted)
        *planted = std::move(mats);
    return x;
}

TEST(CpAls, RecoversPlantedLowRankTensor)
{
    Rng rng(2);
    CooTensor x = planted_cp_tensor(10, 3, rng);
    CpdOptions options;
    options.rank = 3;
    options.max_sweeps = 60;
    options.tolerance = 1e-9;
    const CpdResult result = cp_als(x, options);
    EXPECT_GT(result.fit, 0.98) << "sweeps " << result.sweeps;
}

TEST(CpAls, FitImprovesAndStaysStable)
{
    Rng rng(3);
    CooTensor x = planted_cp_tensor(8, 2, rng);
    CpdOptions options;
    options.rank = 4;
    options.max_sweeps = 15;
    options.tolerance = 0;  // run all sweeps
    const CpdResult result = cp_als(x, options);
    ASSERT_GE(result.fit_history.size(), 3u);
    // ALS is monotone in exact arithmetic; in single precision the fit
    // may jitter at the 1e-3 level once converged, but must never take a
    // real step backwards and must end at least as good as it started.
    for (Size s = 2; s < result.fit_history.size(); ++s)
        EXPECT_GE(result.fit_history[s], result.fit_history[s - 1] - 1e-3)
            << "sweep " << s;
    EXPECT_GE(result.fit_history.back(), result.fit_history.front() - 1e-3);
}

TEST(CpAls, HicooBackendMatchesCoo)
{
    Rng rng(4);
    CooTensor x = planted_cp_tensor(8, 2, rng);
    CpdOptions coo_options;
    coo_options.rank = 2;
    coo_options.max_sweeps = 10;
    coo_options.seed = 9;
    CpdOptions hicoo_options = coo_options;
    hicoo_options.mttkrp_format = Format::kHicoo;
    const CpdResult a = cp_als(x, coo_options);
    const CpdResult b = cp_als(x, hicoo_options);
    EXPECT_NEAR(a.fit, b.fit, 1e-3);
}

/// Bit-identical factors, lambdas and fit history.
bool
same(const CpdResult& a, const CpdResult& b)
{
    bool same = a.sweeps == b.sweeps && a.lambdas == b.lambdas &&
                a.fit_history == b.fit_history &&
                a.factors.size() == b.factors.size();
    for (Size m = 0; same && m < a.factors.size(); ++m)
        same = same_bits(a.factors[m], b.factors[m]);
    return same;
}

CpdOptions
three_sweeps(Format format)
{
    CpdOptions options;
    options.rank = 16;
    options.max_sweeps = 3;
    options.tolerance = 0;
    options.mttkrp_format = format;
    return options;
}

/// Runs cp_als on 1, 3 and 4 threads and inside ThreadBudgetScope(1);
/// expects bit-identical factors, lambdas and fit history.
void
expect_cp_als_thread_invariant(const CooTensor& x, Format format)
{
    const CpdOptions options = three_sweeps(format);
    const char* name = format == Format::kCoo ? "COO" : "HiCOO";
    set_num_threads(1);
    const CpdResult reference = cp_als(x, options);
    for (int threads : {3, 4}) {
        set_num_threads(threads);
        EXPECT_TRUE(same(cp_als(x, options), reference))
            << name << ", " << threads << " threads";
    }
    {
        ThreadBudgetScope budget(1);
        EXPECT_TRUE(same(cp_als(x, options), reference))
            << name << ", ThreadBudgetScope(1)";
    }
    set_num_threads(0);
}

// Factors span several of the dense layer's row blocks, so Grams,
// column norms, the fit and the solves all cross block boundaries.
constexpr auto kDim = static_cast<Index>(3 * dense_row_block(16) + 77);

/// One non-zero per slice in every mode: each MTTKRP output row is a
/// single product, so even the atomic and privatized COO schedules are
/// order-free and a test on it isolates the dense algebra.
CooTensor
permuted_diagonal(Rng& rng)
{
    std::vector<Index> p1(kDim), p2(kDim);
    for (Index i = 0; i < kDim; ++i)
        p1[i] = p2[i] = i;
    for (Index i = kDim; i-- > 1;) {
        std::swap(p1[i], p1[rng.next_index(i + 1)]);
        std::swap(p2[i], p2[rng.next_index(i + 1)]);
    }
    CooTensor diagonal({kDim, kDim, kDim});
    for (Index i = 0; i < kDim; ++i)
        diagonal.append({i, p1[i], p2[i]}, 0.5f + rng.next_float());
    return diagonal;
}

TEST(CpAls, BitIdenticalAtAnyThreadCount)
{
    Rng rng(21);
    const CooTensor diagonal = permuted_diagonal(rng);
    expect_cp_als_thread_invariant(diagonal, Format::kCoo);
    expect_cp_als_thread_invariant(diagonal, Format::kHicoo);

    // HiCOO's block-owner schedule gives each output tile one writer in a
    // fixed order, so a general tensor is thread-count invariant too.
    const CooTensor x = CooTensor::random({kDim, kDim, kDim}, 20000, rng);
    expect_cp_als_thread_invariant(x, Format::kHicoo);
}

TEST(CpAls, SameBitsUnderEveryIsa)
{
    IsaGuard guard;
    Rng rng(21);
    const CooTensor diagonal = permuted_diagonal(rng);
    for (Format format : {Format::kCoo, Format::kHicoo}) {
        const CpdOptions options = three_sweeps(format);
        simd::set_isa(simd::Isa::kScalar);
        const CpdResult reference = cp_als(diagonal, options);
        for (simd::Isa isa : runnable_isas()) {
            simd::set_isa(isa);
            EXPECT_TRUE(same(cp_als(diagonal, options), reference))
                << format_name(format) << ", " << simd::isa_name(isa);
        }
    }
}

TEST(CpAls, ModelEvaluatesCloseToData)
{
    Rng rng(5);
    CooTensor x = planted_cp_tensor(6, 2, rng);
    CpdOptions options;
    options.rank = 2;
    options.max_sweeps = 60;
    options.tolerance = 1e-10;
    const CpdResult model = cp_als(x, options);
    ASSERT_GT(model.fit, 0.95);
    double worst = 0;
    for (Size p = 0; p < x.nnz(); ++p)
        worst = std::max(worst,
                         std::abs(cpd_value_at(model, x.coordinate(p)) -
                                  static_cast<double>(x.value(p))));
    EXPECT_LT(worst, 0.25);
}

TEST(CpAls, RejectsBadInputs)
{
    CooTensor empty({4, 4});
    EXPECT_THROW(cp_als(empty), PastaError);
    CooTensor x({4, 4});
    x.append({0, 0}, 1.0f);
    CpdOptions options;
    options.rank = 0;
    EXPECT_THROW(cp_als(x, options), PastaError);
}

TEST(TtmChain, ProjectsEveryModeExceptSkipped)
{
    Rng rng(6);
    CooTensor x = CooTensor::random({8, 10, 12}, 120, rng);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < 3; ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), 3, rng));
    CooTensor all = ttm_chain(x, mats);
    EXPECT_EQ(all.dims(), (std::vector<Index>{3, 3, 3}));
    CooTensor skip1 = ttm_chain(x, mats, 1);
    EXPECT_EQ(skip1.dims(), (std::vector<Index>{3, 10, 3}));
}

TEST(TtmChain, OrderOfContractionsDoesNotChangeResult)
{
    // ttm_chain orders by ascending rank internally; compare against a
    // manual fixed-order chain.
    Rng rng(7);
    CooTensor x = CooTensor::random({6, 7, 8}, 80, rng);
    std::vector<DenseMatrix> mats;
    mats.push_back(DenseMatrix::random(6, 5, rng));
    mats.push_back(DenseMatrix::random(7, 2, rng));
    mats.push_back(DenseMatrix::random(8, 3, rng));
    CooTensor chained = ttm_chain(x, mats);
    CooTensor manual = x;
    for (Size m = 0; m < 3; ++m)
        manual = ttm_coo(manual, mats[m], m).to_coo();
    EXPECT_TRUE(tensors_almost_equal(chained, manual, 1e-2));
}

TEST(TuckerHooi, CoreNormNonDecreasingAndBounded)
{
    Rng rng(8);
    CooTensor x = CooTensor::random({12, 12, 12}, 200, rng);
    TuckerOptions options;
    options.rank = 3;
    options.max_passes = 4;
    options.tolerance = 0;
    const TuckerResult result = tucker_hooi(x, options);
    const double norm_x = std::sqrt(frobenius_norm_squared(x));
    for (Size p = 1; p < result.core_norm_history.size(); ++p)
        EXPECT_GE(result.core_norm_history[p],
                  result.core_norm_history[p - 1] - 1e-3);
    // Orthonormal projections cannot increase the norm.
    EXPECT_LE(result.core_norm, norm_x + 1e-3);
}

TEST(TuckerHooi, ExactlyRecoversLowMultirankTensor)
{
    // A tensor that *is* rank (2,2,2) must be captured exactly:
    // |core| = |X|.
    Rng rng(9);
    std::vector<DenseMatrix> mats;
    for (int m = 0; m < 3; ++m) {
        mats.push_back(DenseMatrix::random(9, 2, rng));
        orthonormalize_columns(mats.back());
    }
    // X = G x1 U1 x2 U2 x3 U3 with a random 2x2x2 core.
    CooTensor core({2, 2, 2});
    for (Index a = 0; a < 2; ++a)
        for (Index b = 0; b < 2; ++b)
            for (Index c = 0; c < 2; ++c)
                core.append({a, b, c}, rng.next_float() + 0.5f);
    CooTensor x({9, 9, 9});
    for (Index i = 0; i < 9; ++i)
        for (Index j = 0; j < 9; ++j)
            for (Index k = 0; k < 9; ++k) {
                double v = 0;
                for (Size p = 0; p < core.nnz(); ++p)
                    v += static_cast<double>(core.value(p)) *
                         mats[0](i, core.index(0, p)) *
                         mats[1](j, core.index(1, p)) *
                         mats[2](k, core.index(2, p));
                if (std::abs(v) > 1e-8)
                    x.append({i, j, k}, static_cast<Value>(v));
            }
    TuckerOptions options;
    options.rank = 2;
    options.max_passes = 6;
    options.power_iterations = 20;
    const TuckerResult result = tucker_hooi(x, options);
    const double norm_x = std::sqrt(frobenius_norm_squared(x));
    EXPECT_NEAR(result.core_norm, norm_x, 0.02 * norm_x);
}

TEST(TuckerHooi, CoreAndFactorsBitIdenticalAtAnyThreadCount)
{
    // 2000 sparse slots reach the fused endgame of every TTM chain, so
    // its chunked core sum runs on several workers.
    Rng rng(12);
    const CooTensor x = CooTensor::random({60, 50, 40}, 20000, rng);
    TuckerOptions options;
    options.rank = 4;
    options.max_passes = 2;
    options.tolerance = 0;
    const auto run = [&](int threads) {
        set_num_threads(threads);
        TuckerResult result = tucker_hooi(x, options);
        set_num_threads(0);
        return result;
    };
    const TuckerResult reference = run(1);
    ASSERT_GT(reference.core.nnz(), 0u);
    for (int threads : {2, 4}) {
        const TuckerResult result = run(threads);
        EXPECT_EQ(result.core_norm_history, reference.core_norm_history)
            << threads << " threads";
        ASSERT_EQ(result.core.nnz(), reference.core.nnz())
            << threads << " threads";
        for (Size p = 0; p < reference.core.nnz(); ++p) {
            EXPECT_EQ(result.core.coordinate(p), reference.core.coordinate(p))
                << threads << " threads, entry " << p;
            EXPECT_EQ(std::memcmp(&result.core.values()[p],
                                  &reference.core.values()[p],
                                  sizeof(Value)),
                      0)
                << threads << " threads, entry " << p;
        }
        ASSERT_EQ(result.factors.size(), reference.factors.size());
        for (Size m = 0; m < reference.factors.size(); ++m)
            EXPECT_TRUE(same_bits(result.factors[m], reference.factors[m]))
                << threads << " threads, factor " << m;
    }
}

}  // namespace
}  // namespace pasta
